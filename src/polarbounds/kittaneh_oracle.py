"""Brute-force ground truth for the normal-matrix (Kittaneh) arrangement
bounds.

`brute_force_kittaneh` sums its own F_hat, walks the injections of one
eigenvalue list into the other column-subset-first, bounds every injection's
ratio over index arrays, and evaluates exactly, in enumeration order, only
those that may hold the optimum. `oracle` re-exports it beside the q oracle.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator, Optional, Tuple

import numpy as np

from .enumeration import (_BLOCK_POINTS, _F_RANGE, _U, DEFAULT_BUDGET, BudgetExceededError,
                          _index_array, pairing_blocks)
from .spectra import BoundResult, EigenPair


def _eigen_sum_of_squares(eig: EigenPair) -> float:
    """F^, the sum of the squared moduli of both eigenvalue lists.

    The oracle sums F^ itself rather than reading `EigenPair.F_hat`, which
    the closed forms read, so a wrong F_hat there cannot pass both.
    `math.fsum` rounds the exact sum once, so this equals `F_hat` bit for bit.
    """
    return math.fsum([abs(z) ** 2 for z in eig.lam] + [abs(z) ** 2 for z in eig.lam_hat])


def _injection_blocks(r: int, s: int, k: int
                      ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The injections of k of lam's r indices into lam_hat's s, in blocks.

    Column subsets (`combinations`) come first, then arrangements of rows
    (`permutations`). Yields (rows, cols, index): rows and cols are (m, k)
    int arrays of at most _BLOCK_POINTS // k injections, so each holds
    about _BLOCK_POINTS entries, and injection t is zip(rows[t], cols[t]);
    index[a, t] = cols[t, a] * s + rows[t, a] places its entries in a flat
    r x s table. When a column subset's arrangements fit in one block, the
    blocks span column subsets (`enumeration.pairing_blocks`); otherwise
    each subset's arrangements are streamed, so memory stays bounded at
    every size.
    """
    step = max(1, _BLOCK_POINTS // k)
    if math.perm(s, k) <= step:
        for cols, rows, index in pairing_blocks(r, s, k, step):
            yield rows, cols, index
        return
    for col_set in itertools.combinations(range(r), k):
        arrangements = itertools.permutations(range(s), k)
        while len(rows := _index_array(itertools.islice(arrangements, step), k)):
            cols = np.broadcast_to(col_set, rows.shape)
            yield rows, cols, np.ravel_multi_index((cols.T, rows.T), (r, s))


def _kittaneh_intervals(eig: EigenPair, F: float, ks):
    """Every injection's ratio bounded over index arrays, in blocks.

    The injections pair k-subsets of lam's indices with k-arrangements of
    lam_hat's, for k in ks, in the order of `_injection_blocks`. Yields
    (rows, cols, lo, hi, is_open) per block: injection t is zip(rows[t],
    cols[t]), and its ratio lies in [lo[t], hi[t]] unless is_open[t].

    num = F - 2*sum(|l^_i||l_j|) and den = F - 2*sum(Re l^_i conj(l_j)) are
    summed from the terms `brute_force_kittaneh` sums, added in order. Each
    differs from that function's value by at most (k + 4)*u*F (u = 2**-53):
    with T the sum of the k terms' moduli, T <= F/2 since |l^_i||l_j| <=
    (|l^_i|^2 + |l_j|^2)/2 and |Re l^_i conj(l_j)| <= |l^_i||l_j|; the
    ordered sum errs by (k - 1)*u*T, fsum by u*T, doubling is exact, and
    each subtraction errs by u*|F - 2S| <= 2u*F. The box num -+ slack, den
    -+ slack with slack = (k + 8)*u*F also absorbs the rounding of its ends,
    at most u*(2F + slack) each, with 2u*F to spare for second-order terms.
    Where den - slack > tol, that function's den exceeds tol, so its value
    is not 0/0, and since division rounds monotonically that value lies in
    [lo, hi], the least and greatest quotients of the box's corners.
    Elsewhere, and everywhere when F is too near the ends of the double
    range for those relative bounds to hold, the interval is open.
    """
    tol = 1e-12 * max(1.0, F)
    bounded = _F_RANGE[0] <= F <= _F_RANGE[1]
    # the terms at [j, i], pairing lam_hat[i] with lam[j]
    mods = np.array([[abs(a) * abs(b) for a in eig.lam_hat] for b in eig.lam])
    reals = np.array([[(a * b.conjugate()).real for a in eig.lam_hat] for b in eig.lam])

    def block(rows, cols, index, slack):
        # the temporaries die on return, before the next block is built
        mod_terms, real_terms = mods.take(index), reals.take(index)    # (k, m)
        num = np.zeros(len(rows))
        den = np.zeros(len(rows))
        for a in range(rows.shape[1]):
            num += mod_terms[a]
            den += real_terms[a]
        num *= -2.0
        num += F
        den *= -2.0
        den += F
        num_lo, num_hi = num - slack, np.add(num, slack, out=num)
        den_hi, den_lo = den + slack, np.subtract(den, slack, out=den)
        is_open = ~(den_lo > tol)
        is_open |= not bounded
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lo = num_lo / den_hi
            np.minimum(lo, np.divide(num_lo, den_lo, out=num_lo), out=lo)
            hi = num_hi / den_lo
            np.maximum(hi, np.divide(num_hi, den_hi, out=num_hi), out=hi)
        return rows, cols, lo, hi, is_open

    for k in ks:
        for rows, cols, index in _injection_blocks(eig.r, eig.s, k):
            yield block(rows, cols, index, (k + 8) * _U * F)


def _kittaneh_candidates(eig: EigenPair, F: float, ks, upper: bool
                         ) -> Iterator[Tuple[tuple, tuple]]:
    """The injections (rows, cols) that may hold the max (upper) or the
    min, in enumeration order.

    An injection is left out only when its interval lies above a value some
    injection is known to reach (min) or below one (max). One whose interval
    is open is always kept.
    """
    best = -math.inf if upper else math.inf    # a floor under the max, a ceiling over the min
    for rows, cols, lo, hi, is_open in _kittaneh_intervals(eig, F, ks):
        closed = ~is_open
        if upper:
            if closed.any():
                best = max(best, float(lo[closed].max()))
            keep = is_open | (hi >= best)
        else:
            if closed.any():
                best = min(best, float(hi[closed].min()))
            keep = is_open | (lo <= best)
        for t in np.flatnonzero(keep).tolist():
            yield tuple(rows[t].tolist()), tuple(cols[t].tolist())


def brute_force_kittaneh(eig: EigenPair, mode: str, n: Optional[int] = None,
                         budget: int = DEFAULT_BUDGET) -> BoundResult:
    """Re-derive the normal-matrix arrangement optimum by dense injections.

    Deliberately iterates injection maps column-subset-first (the closed-form
    module iterates row-subset-first) so a shared indexing bug cannot hide.
    Every injection is bounded over index arrays; the candidates are then
    evaluated exactly, in enumeration order, with the strict comparison of
    a scan of every injection, so the optimum and its tuple, ties included,
    are that scan's.
    """
    if mode not in ("lower", "upper"):
        raise ValueError(f"mode must be 'lower' or 'upper', got {mode!r}")
    F = _eigen_sum_of_squares(eig)
    tol = 1e-12 * max(1.0, F)

    def ratio(pairs) -> Optional[float]:
        num = F - 2.0 * math.fsum(abs(eig.lam_hat[i]) * abs(eig.lam[j])
                                  for i, j in pairs)
        den = F - 2.0 * math.fsum((eig.lam_hat[i] * eig.lam[j].conjugate()).real
                                  for i, j in pairs)
        if abs(num) < tol and abs(den) < tol:
            return None
        return num / den

    upper = mode == "upper"
    if upper:
        if n is None:
            raise ValueError("mode='upper' requires n")
        if eig.s != n:
            raise ValueError(f"full-rank second matrix required: s={eig.s}, n={n}")
        # injections from all r columns into [n], iterated row-list-first
        count, what, better, ks = math.perm(n, eig.r), "arrangements", operator.gt, (eig.r,)
    else:
        count = sum(math.comb(eig.r, k) * math.perm(eig.s, k)
                    for k in range(1, eig.r + 1))
        what, better, ks = "injections", operator.lt, range(1, eig.r + 1)
    if count > budget:
        raise BudgetExceededError(f"{count} {what} exceed budget {budget}", count)
    best = best_tuple = None
    for rows, cols in _kittaneh_candidates(eig, F, ks, upper):
        val = ratio(list(zip(rows, cols)))
        if val is not None and (best is None or better(val, best)):
            best, best_tuple = val, rows if upper else (rows, cols)
    theorem_id = f"kittaneh-{mode}"
    if best is None:
        return BoundResult(theorem_id=theorem_id, coefficient=1.0, degenerate=True)
    return BoundResult(theorem_id=theorem_id,
                       coefficient=min(math.sqrt(max(best, 0.0)), 1.0),
                       optimal_tuple=best_tuple)
