"""Closed-form perturbation coefficients.

Each function maps a validated spectrum (or eigenvalue) pair to the sharp
constant of one Frobenius-norm inequality: subunitary-factor upper/lower
bounds (a max/min over an index k), positive-factor upper/lower bounds,
the strengthened Lee constants, refined AM-GM and Cauchy-Schwarz constants,
and the normal-matrix arrangement bounds.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .spectra import (BoundResult, EigenPair, NumericalRangeError, SpectrumPair,
                      check_range, fg_scalars)

SQRT2 = math.sqrt(2.0)
LEE_CLASSICAL = math.sqrt((1.0 + math.sqrt(2.0)) / 2.0)

ENUM_CAP = 6   # largest r or s the arrangement bounds enumerate
# a k with at most this many pairings skips the arrangement prefilter: its
# numpy calls cost a fixed 25-30 us per k, about what the exact loop spends
# on 30-60 pairings, so only larger k gain; at 100 the campaign (at most 33
# pairings in all) and `polarbounds bounds` (at most 96 per k, up to (4, 4))
# never pay it
EXACT_ONLY_PAIRINGS = 100
_U = 2.0 ** -53                          # unit roundoff of a double
_F_RANGE = (2.0 ** -960, 2.0 ** 960)     # F where the prefilter's bounds hold


class RankMismatchError(ValueError):
    """Bound only defined for equal ranks (r = s)."""


class EnumerationCapError(ValueError):
    """Exact enumeration would exceed the configured size cap."""

    def __init__(self, message: str, required_count: int):
        super().__init__(message)
        self.required_count = required_count


# (theorem id, degree in the spectra) of each sharp constant, in report
# order: the eight spectrum constants, then the two eigenvalue constants.
# c(t sigma, t sigma~) = t^degree c(sigma, sigma~). REPORT_KEYS holds each
# report key once, so reports share the strings instead of one per record.
CONSTANTS = (("q-upper", -1), ("q-lower", -1), ("h-upper", 0), ("h-lower", 0),
             ("lee-upper", 0), ("lee-lower", 0), ("amgm", 0), ("cauchy-schwarz", 0),
             ("kittaneh-lower", 0), ("kittaneh-upper", 0))
SPECTRUM_CONSTANTS = CONSTANTS[:8]
REPORT_KEYS = {theorem_id: theorem_id.replace("-", "_") for theorem_id, _ in CONSTANTS}


def closed_form(theorem_id: str):
    """The function `<report key>_coeff` of a constant in CONSTANTS, looked
    up by name at call time, so a replaced module attribute is the one
    returned."""
    return globals()[REPORT_KEYS[theorem_id] + "_coeff"]


@dataclass(frozen=True)
class KRatioTable:
    """Values of the ratio function at k = 0..r; None marks a 0/0 entry."""
    values: Tuple[Optional[float], ...]


def _q_upper_dens(pair: SpectrumPair, start: int = 0):
    """Denominator of the subunitary-factor upper ratio at k = start..r,
    one `fsum` per k:
    den(k) = sum_{j<r-k} (sig_j - sigt_j)**2 + sum_{j<k} (sig_{r-1-j} + sigt_{s-k+j})**2
             + sum_{r-k<=j<s-k} sigt_j**2.
    Each aligned and square term is formed once, by the first k that reads
    it, so every k raises what its own terms and sum would raise, in k order.
    `**`, not `*`: y * y and y ** 2 differ in the last bit for some doubles.
    """
    sig, sigt = pair.sigma, pair.sigma_tilde
    r, s = pair.r, pair.s
    rev = sig[::-1]
    aligned = [(x - y) ** 2 for x, y in zip(sig[:r - start], sigt)]
    squares = [y ** 2 for y in sigt[r - start:s - start]]   # sigt_j**2 for j >= r - k
    for k in range(start, r + 1):
        if k > start:
            squares.insert(0, sigt[r - k] ** 2)
        yield math.fsum(aligned[:r - k] + [(x + y) ** 2 for x, y in zip(rev, sigt[s - k:])]
                        + squares[:s - r])


def _q_lower_dens(pair: SpectrumPair, start: int = 0):
    """Denominator of the subunitary-factor lower ratio at k = start..r, as
    `_q_upper_dens`:
    den(k) = sum_{j<k} (sig_j + sigt_j)**2 + sum_{j<r-k} (sig_{r-1-j} - sigt_{s-r+k+j})**2
             + sum_{k<=j<s-r+k} sigt_j**2.
    """
    sig, sigt = pair.sigma, pair.sigma_tilde
    r, s = pair.r, pair.s
    rev = sig[::-1]
    aligned = [(x + y) ** 2 for x, y in zip(sig[:start], sigt)]
    squares = [y ** 2 for y in sigt[start:s - r + start]]   # sigt_j**2 for j >= start
    for k in range(start, r + 1):
        if k > start:
            aligned.append((sig[k - 1] + sigt[k - 1]) ** 2)
            squares.append(sigt[s - r + k - 1] ** 2)
        yield math.fsum(aligned + [(x - y) ** 2 for x, y in zip(rev, sigt[s - r + k:])]
                        + squares[k - start:])


def q_upper_numden(pair: SpectrumPair, k: int) -> Tuple[float, float]:
    """Numerator and denominator of the subunitary-factor upper ratio at k."""
    return float(pair.s - pair.r + 4 * k), next(_q_upper_dens(pair, k))


def q_lower_numden(pair: SpectrumPair, k: int) -> Tuple[float, float]:
    """Numerator and denominator of the subunitary-factor lower ratio at k."""
    return float(pair.s - pair.r + 4 * k), next(_q_lower_dens(pair, k))


def li_sun_coeff(pair: SpectrumPair) -> BoundResult:
    """Classical equal-rank subunitary bound 2 / (smallest + smallest)."""
    if pair.r != pair.s:
        raise RankMismatchError(f"equal ranks required, got r={pair.r}, s={pair.s}")
    c = 2.0 / (pair.sigma[-1] + pair.sigma_tilde[-1])
    check_range("li-sun", c, 0.0, sys.float_info.max)
    return BoundResult(theorem_id="li-sun", coefficient=c)


def _q_table(pair: SpectrumPair, theorem_id: str, dens, start: int = 0) -> KRatioTable:
    """num(k) / den(k) for k = 0..r, num(k) = s - r + 4k and den(k) from
    dens (k = start..r); None (0/0) below start and where num and den are
    both below 1e-12 * max(1, F). Each k is divided as its den arrives."""
    r, s = pair.r, pair.s
    values = [None] * start
    try:   # a squared term overflows, or a denominator underflows to 0
        tol = 1e-12 * max(1.0, fg_scalars(pair).F)
        for k, den in enumerate(dens, start):
            num = float(s - r + 4 * k)
            values.append(None if num < tol and abs(den) < tol else num / den)
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalRangeError(f"{theorem_id}: {exc}") from exc
    return KRatioTable(values=tuple(values))


def _q_optimum(theorem_id: str, table: KRatioTable,
               upper: bool) -> Tuple[BoundResult, KRatioTable]:
    """Square root of the first largest (upper) or smallest value of the
    table, 0/0 entries skipped; every value checked to be a finite double."""
    best = None
    for k, v in enumerate(table.values):
        if v is not None:
            check_range(theorem_id, v, 0.0, sys.float_info.max)
            if best is None or (v > best[1] if upper else v < best[1]):
                best = (k, v)
    if best is None:
        raise NumericalRangeError(f"{theorem_id}: every k is 0/0")
    k, value = best
    return BoundResult(theorem_id=theorem_id, coefficient=math.sqrt(value),
                       optimal_index=k), table


def q_upper_coeff(pair: SpectrumPair) -> Tuple[BoundResult, KRatioTable]:
    """Square root of the max of the upper ratio table over k."""
    return _q_optimum("q-upper", _q_table(pair, "q-upper", _q_upper_dens(pair)), upper=True)


def q_lower_coeff(pair: SpectrumPair) -> Tuple[BoundResult, KRatioTable]:
    """Square root of the min of the lower ratio table over k."""
    return _q_optimum("q-lower", _q_table(pair, "q-lower", _q_lower_dens(pair)), upper=False)


def refined_li_sun(q_upper: Tuple[BoundResult, KRatioTable],
                   li_sun: BoundResult) -> Tuple[BoundResult, KRatioTable]:
    """Refined Li-Sun read off an equal-rank pair's q-upper result and
    table: the same values with k = 0 marked 0/0. At r = s the k = 0 value
    is 0 or 0/0 and the k = r value is positive (its den is at least F), so
    q-upper's first max lies at some k >= 1 and is also the max over k >= 1.
    It cannot exceed the pair's classical `li_sun` constant."""
    result, table = q_upper
    result = BoundResult(theorem_id="refined-li-sun", coefficient=result.coefficient,
                         optimal_index=result.optimal_index)
    check_range("refined-li-sun", result.coefficient, 0.0, li_sun.coefficient * (1 + 1e-12))
    return result, KRatioTable(values=(None,) + table.values[1:])


def refined_li_sun_coeff(pair: SpectrumPair) -> Tuple[BoundResult, KRatioTable]:
    """Equal-rank sharpening of the classical subunitary bound: q-upper over k >= 1."""
    li_sun = li_sun_coeff(pair)   # raises unless r == s
    table = _q_table(pair, "refined-li-sun", _q_upper_dens(pair, 1), 1)
    return refined_li_sun(_q_optimum("refined-li-sun", table, upper=True), li_sun)


def h_upper_coeff(pair: SpectrumPair) -> BoundResult:
    """Sharp upper constant for the positive-factor difference."""
    # sqrt((F - sqrt(F^2 - 2GF)) / G) as sqrt(2 / (1 + sqrt(D / F))) with
    # D = F - 2G: no cancellation, no F^2
    u = pair.unit_sums
    c = math.sqrt(2.0 / (1.0 + math.sqrt(u.D / u.F)))
    check_range("h-upper", c, 0.0, SQRT2 * (1 + 1e-12))
    return BoundResult(theorem_id="h-upper", coefficient=c)


def _fg_lower(pair: SpectrumPair, theorem_id: str) -> BoundResult:
    """sqrt((F - 2G) / (F + 2G)), the h-lower and lee-lower constant, with
    F - 2G summed as D."""
    u = pair.unit_sums
    c = math.sqrt(u.D / (u.F + 2.0 * u.G))
    check_range(theorem_id, c, 0.0, 1.0)
    return BoundResult(theorem_id=theorem_id, coefficient=c)


def h_lower_coeff(pair: SpectrumPair) -> BoundResult:
    """Sharp lower constant for the positive-factor difference."""
    return _fg_lower(pair, "h-lower")


def lee_upper_coeff(pair: SpectrumPair) -> BoundResult:
    """Sharp upper constant relating ||A + A~|| to ||H + H~||."""
    # sqrt(G / (sqrt(F^2 + 2GF) - F)) with x = G / F: no cancellation, no F^2
    u = pair.unit_sums
    x = u.G / u.F
    c = math.sqrt((1.0 + math.sqrt(1.0 + 2.0 * x)) / 2.0)
    check_range("lee-upper", c, 0.0, LEE_CLASSICAL * (1 + 1e-12))
    return BoundResult(theorem_id="lee-upper", coefficient=c)


def lee_lower_coeff(pair: SpectrumPair) -> BoundResult:
    """Sharp lower constant relating ||A + A~|| to ||H + H~||."""
    return _fg_lower(pair, "lee-lower")


def amgm_coeff(pair: SpectrumPair) -> BoundResult:
    """Refined constant for ||A B*|| <= c ||  |A|^2 + |B|^2 ||."""
    u = pair.unit_sums
    c = math.sqrt(u.cross_squares / (u.quarts + 2.0 * u.cross_squares))
    check_range("amgm", c, 0.0, 0.5 * (1 + 1e-12))
    return BoundResult(theorem_id="amgm", coefficient=c)


def cauchy_schwarz_coeff(pair: SpectrumPair) -> BoundResult:
    """Refined constant for |tr B* A| <= c ||A|| ||B||."""
    u = pair.unit_sums
    c = u.G / (math.sqrt(u.squares) * math.sqrt(u.squares_tilde))
    check_range("cauchy-schwarz", c, 0.0, 1.0 + 1e-12)
    return BoundResult(theorem_id="cauchy-schwarz", coefficient=min(c, 1.0))


@functools.lru_cache(maxsize=None)
def _offsets(nrows: int, n: int, k: int) -> np.ndarray:
    """offsets[a, c, p] = i * n + j locates the a-th entry (i, j) of pairing
    (c, p), the c-th k-subset of range(nrows) (`combinations`) with the p-th
    k-arrangement of range(n) (`permutations`), in a flat nrows x n table:
    a read-only uint8 array (nrows * n <= ENUM_CAP**2 < 256), pairings in
    scan order."""
    subsets, arrangements = (
        np.fromiter(itertools.chain.from_iterable(tuples), dtype=np.uint8).reshape(-1, k).T
        for tuples in (itertools.combinations(range(nrows), k),
                       itertools.permutations(range(n), k)))
    offsets = subsets[:, :, None] * np.uint8(n) + arrangements[:, None, :]
    offsets.flags.writeable = False
    return offsets


@functools.lru_cache(maxsize=None)
def _arrangement_tuples(n: int, k: int) -> tuple:
    """Every k-arrangement of range(n), in `permutations` order, for the k
    that the exact loop scans whole."""
    return tuple(itertools.permutations(range(n), k))


def _survivors(F: float, tol: float, terms: np.ndarray, n: int, k: int, best, upper: bool):
    """The pairings of one k that may hold the max (upper) or the min, as
    (rows, [cols, ...]) groups in scan order.

    terms holds the flat tables of per-entry terms, |l^_i||l_j| then Re l^_i
    conj(l_j), with n columns each. num = F - 2 sum(mod terms) and den = F -
    2 sum(real terms) are summed for every pairing at once, in numpy's
    order. Each differs from the exact loop's value, whose sum `fsum` rounds
    once, by at most (k + 4) u F (u = 2**-53):
    - the k terms' moduli sum to T <= F/2, since |l^_i||l_j| <= (|l^_i|^2 +
      |l_j|^2)/2 over distinct i and distinct j, and |Re l^_i conj(l_j)| <=
      |l^_i||l_j|;
    - k terms added in any order err by (k - 1) u T and `fsum` by u T, and
      doubling is exact, so the two 2 sums differ by (k - 1) u F + u F;
    - subtracting from F errs by u |F - 2 sum| <= 2 u F on each side.
    The box num -+ slack, den -+ slack with slack = (k + 8) u F also absorbs
    the rounding of its ends, u (2F + slack) each, with u F left for the
    second-order terms. Where den - slack > tol the exact den exceeds tol,
    so that pairing is not 0/0, and since division rounds monotonically its
    value lies in [lo, hi], the least and greatest quotients of the box's
    corners. Elsewhere the interval is open. F must lie in _F_RANGE, where
    slack and the box's ends are normal doubles.

    A pairing is dropped only when its interval is closed and lies above
    (min) or below (max) a value that `best` or a closed interval of this k
    shows some pairing reaches. Under strict comparisons in scan order such
    a pairing can neither hold the optimum nor be the first to tie it.
    """
    offsets = _offsets(terms.shape[1] // n, n, k)
    sums = terms.take(offsets[0], axis=1)
    for a in range(1, k):
        sums += terms.take(offsets[a], axis=1)
    sums *= -2.0
    sums += F
    num, den = sums
    slack = (k + 8) * _U * F
    num_lo, num_hi, den_lo, den_hi = num - slack, num + slack, den - slack, den + slack
    closed = den_lo > tol
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lo = np.minimum(num_lo / den_lo, num_lo / den_hi)
        hi = np.maximum(num_hi / den_lo, num_hi / den_hi)
    reached = best
    if closed.any():
        this_k = float(lo[closed].max()) if upper else float(hi[closed].min())
        reached = this_k if best is None else (max if upper else min)(this_k, best)
    keep = ~closed
    if reached is not None:
        keep |= (hi >= reached) if upper else (lo <= reached)
    entries = offsets[:, keep].T       # the survivors' entries, one row each
    for rows, group in itertools.groupby(zip((entries // n).tolist(), (entries % n).tolist()),
                                         key=operator.itemgetter(0)):
        yield tuple(rows), [tuple(cols) for _, cols in group]


def _pairing_sums(F: float, mods, reals, rows, arrangements):
    """(nums, dens): F - 2 sum_a mods[rows[a]][cols[a]] and the same over
    reals, for each cols of arrangements, with k = len(rows) >= 2. Two
    terms are summed by one plain add, which rounds their exact sum once,
    as `fsum` does for more; each term is at most F/2, so none overflows."""
    if len(rows) == 2:
        m0, m1, r0, r1 = mods[rows[0]], mods[rows[1]], reals[rows[0]], reals[rows[1]]
        return ([F - 2.0 * (m0[a] + m1[b]) for a, b in arrangements],
                [F - 2.0 * (r0[a] + r1[b]) for a, b in arrangements])
    mod_rows, real_rows = [mods[i] for i in rows], [reals[i] for i in rows]
    fsum, getitem = math.fsum, operator.getitem
    return ([F - 2.0 * fsum(map(getitem, mod_rows, cols)) for cols in arrangements],
            [F - 2.0 * fsum(map(getitem, real_rows, cols)) for cols in arrangements])


def _first_optimum(nums, dens, tol: float, best, upper: bool):
    """(index, value) of the first ratio num / den that is larger (upper)
    or smaller than best and than every ratio before it, 0/0 pairs (num
    and den below tol) skipped; None when no ratio beats best."""
    found = None
    for i, (num, den) in enumerate(zip(nums, dens)):
        if abs(num) < tol and abs(den) < tol:
            continue
        value = num / den
        if best is None or (value > best if upper else value < best):
            best, found = value, i
    return None if found is None else (found, best)


def _arrangement_scan(F: float, mods, reals, ks, upper: bool):
    """(value, rows, cols) of the first pairing with the largest (upper) or
    smallest ratio (F - 2 sum mods) / (F - 2 sum reals), or None when every
    pairing is 0/0.

    mods and reals are tables of per-entry terms; a pairing matches the rows
    of a k-subset (`combinations`, for k in ks) with the columns of a
    k-arrangement (`permutations`), row-subset-first. One exact loop decides
    the optimum: each pairing's sums are its exact sums rounded once (a
    single term, one add of two, `fsum` of more), 0/0 pairings are skipped,
    and strict comparisons keep the first of tied pairings. k = 1 pairs
    each entry alone, row by row: at most ENUM_CAP**2 pairings. A larger k
    with more than EXACT_ONLY_PAIRINGS pairings, when F lies in _F_RANGE,
    sends the loop only its `_survivors`, which drop no pairing that could
    change its result; every other k sends every pairing.
    """
    nrows, n = len(mods), len(mods[0])
    tol = 1e-12 * max(1.0, F)
    bounded = _F_RANGE[0] <= F <= _F_RANGE[1]
    terms = None
    best = best_rows = best_cols = None
    for k in ks:
        if k == 1:
            found = _first_optimum([F - 2.0 * x for row in mods for x in row],
                                   [F - 2.0 * x for row in reals for x in row], tol, best, upper)
            if found is not None:
                i, best = found
                best_rows, best_cols = (i // n,), (i % n,)
            continue
        if bounded and math.comb(nrows, k) * math.perm(n, k) > EXACT_ONLY_PAIRINGS:
            if terms is None:
                terms = np.array([mods, reals]).reshape(2, -1)
            groups = _survivors(F, tol, terms, n, k, best, upper)
        else:
            groups = zip(itertools.combinations(range(nrows), k),
                         itertools.repeat(_arrangement_tuples(n, k)))
        for rows, arrangements in groups:
            found = _first_optimum(*_pairing_sums(F, mods, reals, rows, arrangements),
                                   tol, best, upper)
            if found is not None:
                i, best = found
                best_rows, best_cols = rows, arrangements[i]
    if best is None:
        return None
    return best, best_rows, best_cols


def _arrangement_coeff(eig: EigenPair, theorem_id: str, count, upper: bool) -> BoundResult:
    """Square root of the optimum of (F - 2 sum |l^_i||l_j|) / (F - 2 sum
    Re l^_i conj(l_j)) over pairings of lam_hat's values i with lam's values
    j. The lower bound pairs k-subsets of lam_hat with k-arrangements of lam,
    1 <= k <= r, labelled (rows, cols). The upper bound pairs all of lam
    with r-arrangements of lam_hat, the same scan on the transposed tables,
    labelled by the arrangement. `count()` gives the number of pairings.
    """
    r, s = eig.r, eig.s
    if r > ENUM_CAP or s > ENUM_CAP:
        count = count()
        raise EnumerationCapError(
            f"sizes r={r}, s={s} exceed enumeration cap {ENUM_CAP}; "
            f"{count} tuples would be required", count)
    F = eig.F_hat
    mods = [[abs(a) * abs(b) for b in eig.lam] for a in eig.lam_hat]
    reals = [[(a * b.conjugate()).real for b in eig.lam] for a in eig.lam_hat]
    if upper:
        best = _arrangement_scan(F, list(zip(*mods)), list(zip(*reals)), (r,), upper)
    else:
        best = _arrangement_scan(F, mods, reals, range(1, r + 1), upper)
    if best is None:
        return BoundResult(theorem_id=theorem_id, coefficient=1.0, degenerate=True)
    value, rows, cols = best
    c = math.sqrt(max(value, 0.0))
    check_range(theorem_id, c, 0.0, 1.0 + 1e-12)
    return BoundResult(theorem_id=theorem_id, coefficient=min(c, 1.0),
                       optimal_tuple=cols if upper else (rows, cols))


def kittaneh_lower_coeff(eig: EigenPair) -> BoundResult:
    """Sharp lower constant for || |A| - |B| || / ||A - B|| on normal pairs.

    Exact minimum over every pairing (rows, cols) of k distinct eigenvalues
    of one matrix with k distinct eigenvalues of the other, 1 <= k <= r. 0/0
    pairings are skipped; if every pairing is skipped the bound is vacuous
    and the result is flagged degenerate with value 1.
    """
    return _arrangement_coeff(eig, "kittaneh-lower",
                              lambda: sum(math.comb(eig.s, k) * math.perm(eig.r, k)
                                          for k in range(1, eig.r + 1)),
                              upper=False)


def kittaneh_upper_coeff(eig: EigenPair, n: int) -> BoundResult:
    """Sharp upper constant on normal pairs when the second matrix has full rank.

    Exact maximum over arrangements pairing each of the r eigenvalues of the
    rank-deficient matrix with a distinct eigenvalue of the full-rank one.
    """
    if eig.s != n:
        raise RankMismatchError(
            f"full-rank second matrix required: s={eig.s} must equal n={n}")
    return _arrangement_coeff(eig, "kittaneh-upper", lambda: math.perm(n, eig.r),
                              upper=True)
