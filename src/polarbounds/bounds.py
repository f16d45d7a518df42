"""Closed-form perturbation coefficients.

Each function maps a validated spectrum (or eigenvalue) pair to the sharp
constant of one Frobenius-norm inequality: subunitary-factor upper/lower
bounds (a max/min over an index k), positive-factor upper/lower bounds,
the strengthened Lee constants, refined AM-GM and Cauchy-Schwarz constants,
and the normal-matrix arrangement bounds.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

from .spectra import (BoundResult, EigenPair, NumericalRangeError, SpectrumPair,
                      check_range, fg_scalars)

SQRT2 = math.sqrt(2.0)
LEE_CLASSICAL = math.sqrt((1.0 + math.sqrt(2.0)) / 2.0)

ENUM_CAP = 6   # largest r or s the arrangement bounds enumerate


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


def _ratios(F: float, numdens):
    """num / den for each (num, den); None (0/0) when both are below
    1e-12 * max(1, F)."""
    tol = 1e-12 * max(1.0, F)
    for num, den in numdens:
        yield None if abs(num) < tol and abs(den) < tol else num / den


def _extreme(items, upper: bool):
    """First (label, value) of `items` with the largest (upper) or smallest
    value, skipping None values; None when every value is None."""
    best = None
    for label, value in items:
        if value is not None and (best is None or (
                value > best[1] if upper else value < best[1])):
            best = (label, value)
    return best


def q_upper_numden(pair: SpectrumPair, k: int) -> Tuple[float, float]:
    """Numerator and denominator of the subunitary-factor upper ratio at k."""
    sig, sigt = pair.sigma, pair.sigma_tilde
    r, s = pair.r, pair.s
    num = float(s - r + 4 * k)
    den = math.fsum(
        [(sig[j] - sigt[j]) ** 2 for j in range(r - k)]
        + [(sig[r - 1 - j] + sigt[s - k + j]) ** 2 for j in range(k)]
        + [sigt[j] ** 2 for j in range(r - k, s - k)])
    return num, den


def q_lower_numden(pair: SpectrumPair, k: int) -> Tuple[float, float]:
    """Numerator and denominator of the subunitary-factor lower ratio at k."""
    sig, sigt = pair.sigma, pair.sigma_tilde
    r, s = pair.r, pair.s
    num = float(s - r + 4 * k)
    den = math.fsum(
        [(sig[j] + sigt[j]) ** 2 for j in range(k)]
        + [(sig[r - 1 - j] - sigt[s - r + k + j]) ** 2 for j in range(r - k)]
        + [sigt[j] ** 2 for j in range(k, s - r + k)])
    return num, den


def li_sun_coeff(pair: SpectrumPair) -> BoundResult:
    """Classical equal-rank subunitary bound 2 / (smallest + smallest)."""
    if pair.r != pair.s:
        raise RankMismatchError(f"equal ranks required, got r={pair.r}, s={pair.s}")
    c = 2.0 / (pair.sigma[-1] + pair.sigma_tilde[-1])
    return BoundResult(theorem_id="li-sun", coefficient=c)


def _q_coeff(pair: SpectrumPair, theorem_id: str, numden,
             upper: bool) -> Tuple[BoundResult, KRatioTable]:
    """Square root of the max (upper) or min of the ratio table over k."""
    values = tuple(_ratios(fg_scalars(pair).F, map(numden, range(pair.r + 1))))
    for v in values:
        if v is not None:
            check_range(theorem_id, v, 0.0, sys.float_info.max)
    best = _extreme(enumerate(values), upper)
    if best is None:
        raise NumericalRangeError(f"{theorem_id}: every k is 0/0")
    k, value = best
    return BoundResult(theorem_id=theorem_id, coefficient=math.sqrt(value),
                       optimal_index=k), KRatioTable(values=values)


def q_upper_coeff(pair: SpectrumPair) -> Tuple[BoundResult, KRatioTable]:
    return _q_coeff(pair, "q-upper", lambda k: q_upper_numden(pair, k), upper=True)


def q_lower_coeff(pair: SpectrumPair) -> Tuple[BoundResult, KRatioTable]:
    return _q_coeff(pair, "q-lower", lambda k: q_lower_numden(pair, k), upper=False)


def refined_li_sun_coeff(pair: SpectrumPair) -> Tuple[BoundResult, KRatioTable]:
    """Equal-rank sharpening of the classical subunitary bound: q-upper over k >= 1."""
    classical = li_sun_coeff(pair).coefficient   # raises unless r == s

    def numden(k):   # (0, 0) marks k = 0 indeterminate, which drops it from the max
        return (0.0, 0.0) if k == 0 else q_upper_numden(pair, k)

    result, table = _q_coeff(pair, "refined-li-sun", numden, upper=True)
    check_range("refined-li-sun", result.coefficient, 0.0, classical * (1 + 1e-12))
    return result, table


def h_upper_coeff(pair: SpectrumPair) -> BoundResult:
    """Sharp upper constant for the positive-factor difference."""
    # sqrt((F - sqrt(F^2 - 2GF)) / G) as sqrt(2 / (1 + sqrt(D / F))) with
    # D = F - 2G: no cancellation, no F^2
    fg = fg_scalars(pair)
    c = math.sqrt(2.0 / (1.0 + math.sqrt(fg.D / fg.F)))
    check_range("h-upper", c, 0.0, SQRT2 * (1 + 1e-12))
    return BoundResult(theorem_id="h-upper", coefficient=c)


def _fg_lower(pair: SpectrumPair, theorem_id: str) -> BoundResult:
    """sqrt((F - 2G) / (F + 2G)), the h-lower and lee-lower constant, with
    F - 2G summed as D."""
    fg = fg_scalars(pair)
    c = math.sqrt(fg.D / (fg.F + 2.0 * fg.G))
    check_range(theorem_id, c, 0.0, 1.0)
    return BoundResult(theorem_id=theorem_id, coefficient=c)


def h_lower_coeff(pair: SpectrumPair) -> BoundResult:
    """Sharp lower constant for the positive-factor difference."""
    return _fg_lower(pair, "h-lower")


def lee_upper_coeff(pair: SpectrumPair) -> BoundResult:
    """Sharp upper constant relating ||A + A~|| to ||H + H~||."""
    # sqrt(G / (sqrt(F^2 + 2GF) - F)) with x = G / F: no cancellation, no F^2
    fg = fg_scalars(pair)
    x = fg.G / fg.F
    c = math.sqrt((1.0 + math.sqrt(1.0 + 2.0 * x)) / 2.0)
    check_range("lee-upper", c, 0.0, LEE_CLASSICAL * (1 + 1e-12))
    return BoundResult(theorem_id="lee-upper", coefficient=c)


def lee_lower_coeff(pair: SpectrumPair) -> BoundResult:
    """Sharp lower constant relating ||A + A~|| to ||H + H~||."""
    return _fg_lower(pair, "lee-lower")


def _unit_scaled(pair: SpectrumPair) -> Tuple[list, list]:
    """Both spectra divided by the even power of two that brings
    max(sigma_1, sigma~_1) into [0.5, 2). The division is exact, and the
    squares and fourth powers of a degree-0 constant then neither overflow
    nor underflow at any scale of the input."""
    _, e = math.frexp(max(pair.sigma[0], pair.sigma_tilde[0]))
    e -= e % 2
    return ([math.ldexp(x, -e) for x in pair.sigma],
            [math.ldexp(y, -e) for y in pair.sigma_tilde])


def amgm_coeff(pair: SpectrumPair) -> BoundResult:
    """Refined constant for ||A B*|| <= c ||  |A|^2 + |B|^2 ||."""
    sig, sigh = _unit_scaled(pair)
    cross = math.fsum((x * y) ** 2 for x, y in zip(sig, sigh))
    quarts = math.fsum([x ** 4 for x in sig] + [y ** 4 for y in sigh])
    c = math.sqrt(cross / (quarts + 2.0 * cross))
    check_range("amgm", c, 0.0, 0.5 * (1 + 1e-12))
    return BoundResult(theorem_id="amgm", coefficient=c)


def cauchy_schwarz_coeff(pair: SpectrumPair) -> BoundResult:
    """Refined constant for |tr B* A| <= c ||A|| ||B||."""
    sig, sigh = _unit_scaled(pair)
    cross = math.fsum(x * y for x, y in zip(sig, sigh))
    c = cross / (math.sqrt(math.fsum(x * x for x in sig))
                 * math.sqrt(math.fsum(y * y for y in sigh)))
    check_range("cauchy-schwarz", c, 0.0, 1.0 + 1e-12)
    return BoundResult(theorem_id="cauchy-schwarz", coefficient=min(c, 1.0))


def _arrangement_coeff(eig: EigenPair, theorem_id: str, labels, count, pairs_of,
                       upper: bool) -> BoundResult:
    """Square root of the optimum of (F - 2 sum |l^_i||l_j|) / (F - 2 sum
    Re l^_i conj(l_j)) over the pairings in `labels`, streamed in order;
    `count()` gives their number and `pairs_of(label)` a pairing's (i, j)
    indices into (lam_hat, lam).
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
    labels, tabled = itertools.tee(labels)
    numdens = ((F - 2.0 * math.fsum(mods[i][j] for i, j in pairs_of(label)),
                F - 2.0 * math.fsum(reals[i][j] for i, j in pairs_of(label)))
               for label in tabled)
    best = _extreme(zip(labels, _ratios(F, numdens)), upper)
    if best is None:
        return BoundResult(theorem_id=theorem_id, coefficient=1.0, degenerate=True)
    label, value = best
    c = math.sqrt(max(value, 0.0))
    check_range(theorem_id, c, 0.0, 1.0 + 1e-12)
    return BoundResult(theorem_id=theorem_id, coefficient=min(c, 1.0),
                       optimal_tuple=label)


def kittaneh_lower_coeff(eig: EigenPair) -> BoundResult:
    """Sharp lower constant for || |A| - |B| || / ||A - B|| on normal pairs.

    Exact minimum over every pairing (rows, cols) of k distinct eigenvalues
    of one matrix with k distinct eigenvalues of the other, 1 <= k <= r. 0/0
    pairings are skipped; if every pairing is skipped the bound is vacuous
    and the result is flagged degenerate with value 1.
    """
    labels = ((rows, cols) for k in range(1, eig.r + 1)
              for rows in itertools.combinations(range(eig.s), k)
              for cols in itertools.permutations(range(eig.r), k))
    return _arrangement_coeff(eig, "kittaneh-lower", labels,
                              lambda: sum(math.comb(eig.s, k) * math.perm(eig.r, k)
                                          for k in range(1, eig.r + 1)),
                              lambda rows_cols: zip(*rows_cols), upper=False)


def kittaneh_upper_coeff(eig: EigenPair, n: int) -> BoundResult:
    """Sharp upper constant on normal pairs when the second matrix has full rank.

    Exact maximum over arrangements pairing each of the r eigenvalues of the
    rank-deficient matrix with a distinct eigenvalue of the full-rank one.
    """
    if eig.s != n:
        raise RankMismatchError(
            f"full-rank second matrix required: s={eig.s} must equal n={n}")
    return _arrangement_coeff(eig, "kittaneh-upper",
                              itertools.permutations(range(n), eig.r),
                              lambda: math.perm(n, eig.r),
                              lambda arrangement: zip(arrangement, range(eig.r)),
                              upper=True)
