"""What the brute-force searches share: the enumeration budget, index
arrays built in blocks or read from a bounded cache, and the constants
their value bounds rest on.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

DEFAULT_BUDGET = 10 ** 7
_BLOCK_POINTS = 16384    # points, or index entries, per index block; smaller blocks
                         # pay numpy's fixed cost per call more often
_U = 2.0 ** -53          # unit roundoff of a double
_F_RANGE = (2.0 ** -960, 2.0 ** 960)    # F where the oracles' value bounds hold
_LEVEL_BYTES = 2 ** 17   # the most one cached level holds; larger ones are built per block
_CACHE_BYTES = 2 ** 20   # the most the cache holds; the oldest levels go first

_cache: dict = {}


class BudgetExceededError(ValueError):
    """Enumeration would emit more points than the caller's budget."""

    def __init__(self, message: str, exact_count: int):
        super().__init__(message)
        self.exact_count = exact_count


def _index_array(tuples, k: int, dtype=np.intp) -> np.ndarray:
    """The k-tuples of an itertools iterator as the rows of an int array."""
    return np.fromiter(itertools.chain.from_iterable(tuples), dtype=dtype).reshape(-1, k)


def _cached(key, build):
    """The read-only arrays build() returns, kept under key unless they take
    more than _LEVEL_BYTES. The oldest entries make room for a new one."""
    arrays = _cache.get(key)
    if arrays is None:
        arrays = build()
        for a in arrays:
            a.flags.writeable = False
        size = sum(a.nbytes for a in arrays)
        if size <= _LEVEL_BYTES:
            while cache_nbytes() + size > _CACHE_BYTES:
                del _cache[next(iter(_cache))]
            _cache[key] = arrays
    return arrays


def cache_nbytes() -> int:
    """Bytes held by the cached index arrays."""
    return sum(a.nbytes for arrays in _cache.values() for a in arrays)


def pairings(a: int, b: int, k: int):
    """Every k-subset of range(a) (`combinations`) paired with every
    k-arrangement of range(b) (`permutations`), subset-major, if the level
    is small enough to keep.

    Returns (subsets, arrangements, offsets), read-only: row t of the two
    (m, k) arrays is the t-th pairing, and offsets[:, t] its entries
    subset * b + arrangement, the flat positions in an a x b table, as a
    (k, m) array. Each is uint8 where its values fit. Returns None when the
    three would take more than _LEVEL_BYTES.
    """
    index = np.uint8 if max(a, b) <= 256 else np.intp
    flat = np.uint8 if a * b <= 256 else np.intp
    count = math.comb(a, k) * math.perm(b, k)
    if count * k * (2 * np.dtype(index).itemsize + np.dtype(flat).itemsize) > _LEVEL_BYTES:
        return None

    def build():
        subsets, arrangements, offsets = next(_gathered(a, b, k, count, index))
        return subsets, arrangements, np.ascontiguousarray(offsets, dtype=flat)
    return _cached(("pairings", a, b, k), build)


def pairing_blocks(a: int, b: int, k: int, step: int):
    """The level of `pairings` in blocks (subsets, arrangements, offsets) of
    at most step pairings: sliced from the cache when the level is kept
    there, and gathered block by block otherwise."""
    level = pairings(a, b, k)
    if level is None:
        yield from _gathered(a, b, k, step)
        return
    subsets, arrangements, offsets = level
    for start in range(0, len(subsets), step):
        stop = start + step
        yield subsets[start:stop], arrangements[start:stop], offsets[:, start:stop]


def _gathered(a: int, b: int, k: int, step: int, dtype=np.intp):
    """`pairing_blocks` gathered from the subsets and the arrangements,
    which are built once."""
    subsets = _index_array(itertools.combinations(range(a), k), k, dtype)
    arrangements = _index_array(itertools.permutations(range(b), k), k, dtype)
    count = len(subsets) * len(arrangements)
    for start in range(0, count, step):
        c, p = np.divmod(np.arange(start, min(start + step, count)), len(arrangements))
        block_subsets, block_arrangements = subsets[c], arrangements[p]
        offsets = block_subsets.T.astype(np.intp, copy=False) * b + block_arrangements.T
        yield block_subsets, block_arrangements, offsets


def sign_vectors(k: int) -> np.ndarray:
    """The 2**k sign vectors of length k in `product((1, -1))` order, as a
    read-only int8 array."""
    return _cached(("signs", k), lambda: (
        _index_array(itertools.product((1, -1), repeat=k), k, np.int8),))[0]
