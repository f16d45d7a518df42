"""The Kittaneh closed forms' arrangement scan against the scan it replaced.

`scalar_arrangement_scan` is the loop `bounds._arrangement_scan` ran before
it bounded the pairings over index arrays: every pairing exactly, one at a
time, its terms read from a per-row-subset block at cached byte offsets.
Both bounds must return its result, repr for repr, ties and 0/0 pairings
included, on both routes of the new scan: every pairing through the exact
loop, and only the survivors of the numpy prefilter.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from polarbounds import bounds
from polarbounds.bounds import ENUM_CAP, kittaneh_lower_coeff, kittaneh_upper_coeff
from polarbounds.spectra import validate_eigen_pair

from conftest import WIDE_FAMILIES, WIDE_SIZES, eigenvalues, seeded_eigen_pairs, wide_eigen_pairs


@functools.lru_cache(maxsize=None)
def _arrangements(n, k):
    """Each arrangement cols of k of range(n), in `permutations` order, as
    its offsets a * n + cols[a] into a flat k x n block, one byte each."""
    return tuple(bytes([a * n + j for a, j in enumerate(cols)])
                 for cols in itertools.permutations(range(n), k))


def scalar_arrangement_scan(F, mods, reals, ks, upper):
    """Reference: (value, rows, cols) of the first pairing with the largest
    (upper) or smallest ratio, or None when every pairing is 0/0, scanning
    every pairing row-subset-first."""
    n = len(mods[0])
    tol = 1e-12 * max(1.0, F)
    fsum = math.fsum
    best = best_rows = best_offsets = None
    for k in ks:
        arrangements = _arrangements(n, k)
        for rows in itertools.combinations(range(len(mods)), k):
            mod_term = [x for i in rows for x in mods[i]].__getitem__
            real_term = [x for i in rows for x in reals[i]].__getitem__
            for offsets in arrangements:
                num = F - 2.0 * fsum(map(mod_term, offsets))
                den = F - 2.0 * fsum(map(real_term, offsets))
                if abs(num) < tol and abs(den) < tol:
                    continue
                value = num / den
                if best is None or (value > best if upper else value < best):
                    best, best_rows, best_offsets = value, rows, offsets
    if best is None:
        return None
    return best, best_rows, tuple([o - a * n for a, o in enumerate(best_offsets)])


def bound_reprs(eig):
    return repr(kittaneh_lower_coeff(eig)), repr(kittaneh_upper_coeff(eig, n=eig.s))


def assert_matches_scalar_scan(eigs):
    for eig in eigs:
        got = bound_reprs(eig)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_arrangement_scan", scalar_arrangement_scan)
            want = bound_reprs(eig)
        assert got == want, (eig.lam, eig.lam_hat)


def tied_reals(rng, r, s):
    return validate_eigen_pair(rng.choice([-2.0, -1.0, 1.0, 2.0], r),
                               rng.choice([-2.0, -1.0, 1.0, 2.0], s))


@pytest.mark.parametrize("family", WIDE_FAMILIES)
def test_wide_families(family):
    assert_matches_scalar_scan(wide_eigen_pairs(WIDE_SIZES, (family,)))


def test_seeded_pairs():
    assert_matches_scalar_scan(seeded_eigen_pairs())


@pytest.mark.parametrize("r,s", [(3, 5), (4, 5), (5, 6), (6, 6)])
def test_tied_reals(r, s):
    # many pairings share the optimum; the first in scan order must win
    rng = np.random.default_rng(10 * r + s)
    assert_matches_scalar_scan(tied_reals(rng, r, s) for _ in range(4))


@pytest.mark.parametrize("seed", [14, 21, 29])
def test_ties_the_array_sums_round_apart(seed):
    # tied values whose products are inexact: numpy's sums of tied pairings
    # round apart, and an interval without slack drops the first of them
    rng = np.random.default_rng(seed)
    values = np.array([-2.0, -1.0, 1.0, 2.0]) / 3 * 1.1
    assert_matches_scalar_scan(
        validate_eigen_pair(rng.choice(values, r) * 1j ** rng.integers(0, 4, r),
                            rng.choice(values, 6) * 1j ** rng.integers(0, 4, 6))
        for r in (4, 5, 6))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_identical_spectra(n):
    # lam_hat permutes lam: each full pairing that matches equal values is
    # 0/0, and with all values equal every full pairing is
    rng = np.random.default_rng(n)
    lam = eigenvalues(rng, n, 2)
    assert_matches_scalar_scan([validate_eigen_pair(lam, [lam[i] for i in rng.permutation(n)]),
                                validate_eigen_pair([1.0] * n, [1.0] * n),
                                validate_eigen_pair([2j] * (n - 1), [2j] * n)])


@pytest.mark.parametrize("delta", [1e-6, 5e-7])
def test_near_zero_over_zero_box(delta):
    # matching each value with its shifted copy gives num and den below
    # tol, so the exact loop skips it as 0/0, but its box's quotients lie
    # far from the optimum: only an open interval keeps them out of the
    # value the other pairings are dropped against
    for lam, shift in (([2, 2j, 2, 2, 2j], [1, -1j, -1j, 1j, 1]),
                       ([2j, -1, -2j, -1, -1], [-1j, -1j, 1j, -1j, 1j]),
                       ([3, 2j, -1, 1.5 - 1j], [1j, -1, 1j, 1])):
        assert_matches_scalar_scan(
            [validate_eigen_pair(lam, [z + delta * u for z, u in zip(lam, shift)])])


def test_fuzzed_generic_pairs():
    rng = np.random.default_rng(2026)
    eigs = []
    for _ in range(30):
        s = int(rng.integers(1, ENUM_CAP + 1))
        r = int(rng.integers(1, s + 1))
        scale = 10.0 ** rng.uniform(-3, 3)
        eigs.append(validate_eigen_pair([z * scale for z in eigenvalues(rng, r, 0)],
                                        [z * scale for z in eigenvalues(rng, s, 0)]))
    assert_matches_scalar_scan(eigs)


def test_routes_around_the_threshold(monkeypatch):
    # each k with more than EXACT_ONLY_PAIRINGS pairings, and only those,
    # runs the prefilter, unless F leaves its range; on the shapes whose
    # largest k sits just at or just above the threshold both routes agree
    # with the reference on generic and tied pairs
    calls = []
    survivors = bounds._survivors

    def spy(*args):
        calls.append(args[4])
        return survivors(*args)

    monkeypatch.setattr(bounds, "_survivors", spy)
    threshold = bounds.EXACT_ONLY_PAIRINGS
    rng = np.random.default_rng(64)
    for s in range(1, ENUM_CAP + 1):
        for r in range(1, s + 1):
            unit = [tied_reals(rng, r, s),
                    validate_eigen_pair(eigenvalues(rng, r, 0), eigenvalues(rng, s, 0))]
            for upper, ks in ((False, range(1, r + 1)), (True, (r,))):
                # the lower bound pairs k of s rows with k of r columns, the
                # upper bound r rows with r of s columns
                counts = {k: (math.comb(s, k) * math.perm(r, k) if not upper
                              else math.perm(s, r)) for k in ks}
                expected = [k for k in ks if counts[k] > threshold]
                for scale in (1.0, 1e150):
                    for eig in unit:
                        eig = validate_eigen_pair([z * scale for z in eig.lam],
                                                  [z * scale for z in eig.lam_hat])
                        calls.clear()
                        if upper:
                            kittaneh_upper_coeff(eig, n=s)
                        else:
                            kittaneh_lower_coeff(eig)
                        assert calls == (expected if scale == 1.0 else []), (r, s, upper)
                if 0.5 * threshold < max(counts.values()) <= 2 * threshold:
                    assert_matches_scalar_scan(unit)
