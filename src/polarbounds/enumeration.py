"""What the brute-force searches share: the enumeration budget, index
arrays built in blocks, and the constants their value bounds rest on.
"""

from __future__ import annotations

import itertools

import numpy as np

DEFAULT_BUDGET = 10 ** 7
_BLOCK_POINTS = 4096     # points, or index entries, per index block
_U = 2.0 ** -53          # unit roundoff of a double
_F_RANGE = (2.0 ** -960, 2.0 ** 960)    # F where the oracles' value bounds hold


class BudgetExceededError(ValueError):
    """Enumeration would emit more points than the caller's budget."""

    def __init__(self, message: str, exact_count: int):
        super().__init__(message)
        self.exact_count = exact_count


def _index_array(tuples, k: int) -> np.ndarray:
    """The k-tuples of an itertools iterator as the rows of an int array."""
    return np.fromiter(itertools.chain.from_iterable(tuples), dtype=np.intp).reshape(-1, k)
