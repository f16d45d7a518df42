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
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .spectra import (BoundResult, EigenPair, NumericalRangeError, SpectrumPair,
                      check_range, fg_scalars)

SQRT2 = math.sqrt(2.0)
LEE_CLASSICAL = math.sqrt((1.0 + math.sqrt(2.0)) / 2.0)

DEFAULT_ENUM_CAP = 6


class RankMismatchError(ValueError):
    """Bound only defined for equal ranks (r = s)."""


class EnumerationCapError(ValueError):
    """Exact enumeration would exceed the configured size cap."""

    def __init__(self, message: str, required_count: int):
        super().__init__(message)
        self.required_count = required_count


@dataclass(frozen=True)
class KRatioTable:
    """Values of the ratio function at k = 0..r; None marks a 0/0 entry."""
    values: Tuple[Optional[float], ...]
    argmax: Optional[int]
    argmin: Optional[int]


def _indeterminate_tol(F: float) -> float:
    return 1e-12 * max(1.0, F)


def _ratio_table(pair: SpectrumPair, numden) -> KRatioTable:
    F = fg_scalars(pair).F
    tol = _indeterminate_tol(F)
    values: List[Optional[float]] = []
    for k in range(pair.r + 1):
        num, den = numden(k)
        if abs(num) < tol and abs(den) < tol:
            values.append(None)
        else:
            values.append(num / den)
    defined = [(v, k) for k, v in enumerate(values) if v is not None]
    if not defined:
        return KRatioTable(values=tuple(values), argmax=None, argmin=None)
    vmax = max(v for v, _ in defined)
    vmin = min(v for v, _ in defined)
    argmax = min(k for v, k in defined if v == vmax)
    argmin = min(k for v, k in defined if v == vmin)
    return KRatioTable(values=tuple(values), argmax=argmax, argmin=argmin)


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
    table = _ratio_table(pair, numden)
    k = table.argmax if upper else table.argmin
    if k is None:
        raise NumericalRangeError(f"{theorem_id}: every k is 0/0")
    c = math.sqrt(table.values[k])
    return BoundResult(theorem_id=theorem_id, coefficient=c, optimal_index=k), table


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
    fg = fg_scalars(pair)
    F, G = fg.F, fg.G
    disc = max(F * F - 2.0 * G * F, 0.0)
    c = math.sqrt((F - math.sqrt(disc)) / G)
    check_range("h-upper", c, 0.0, SQRT2 * (1 + 1e-12))
    return BoundResult(theorem_id="h-upper", coefficient=c)


def _fg_lower(pair: SpectrumPair, theorem_id: str) -> BoundResult:
    """sqrt((F - 2G) / (F + 2G)), the h-lower and lee-lower constant."""
    fg = fg_scalars(pair)
    c = math.sqrt(max(fg.F - 2.0 * fg.G, 0.0) / (fg.F + 2.0 * fg.G))
    check_range(theorem_id, c, 0.0, 1.0)
    return BoundResult(theorem_id=theorem_id, coefficient=c)


def h_lower_coeff(pair: SpectrumPair) -> BoundResult:
    """Sharp lower constant for the positive-factor difference."""
    return _fg_lower(pair, "h-lower")


def lee_upper_coeff(pair: SpectrumPair) -> BoundResult:
    """Sharp upper constant relating ||A + A~|| to ||H + H~||."""
    fg = fg_scalars(pair)
    F, G = fg.F, fg.G
    c = math.sqrt(G / (math.sqrt(F * F + 2.0 * G * F) - F))
    check_range("lee-upper", c, 0.0, LEE_CLASSICAL * (1 + 1e-12))
    return BoundResult(theorem_id="lee-upper", coefficient=c)


def lee_lower_coeff(pair: SpectrumPair) -> BoundResult:
    """Sharp lower constant relating ||A + A~|| to ||H + H~||."""
    return _fg_lower(pair, "lee-lower")


def amgm_coeff(pair: SpectrumPair) -> BoundResult:
    """Refined constant for ||A B*|| <= c ||  |A|^2 + |B|^2 ||."""
    sig, sigh = pair.sigma, pair.sigma_tilde
    cross = math.fsum((x * y) ** 2 for x, y in zip(sig, sigh))
    quarts = math.fsum([x ** 4 for x in sig] + [y ** 4 for y in sigh])
    c = math.sqrt(cross / (quarts + 2.0 * cross))
    check_range("amgm", c, 0.0, 0.5 * (1 + 1e-12))
    return BoundResult(theorem_id="amgm", coefficient=c)


def cauchy_schwarz_coeff(pair: SpectrumPair) -> BoundResult:
    """Refined constant for |tr B* A| <= c ||A|| ||B||."""
    sig, sigh = pair.sigma, pair.sigma_tilde
    cross = math.fsum(x * y for x, y in zip(sig, sigh))
    c = cross / (math.sqrt(math.fsum(x * x for x in sig))
                 * math.sqrt(math.fsum(y * y for y in sigh)))
    check_range("cauchy-schwarz", c, 0.0, 1.0 + 1e-12)
    return BoundResult(theorem_id="cauchy-schwarz", coefficient=min(c, 1.0))


def _kittaneh_count(r: int, s: int) -> int:
    return sum(math.comb(s, k) * math.comb(r, k) * math.factorial(k)
               for k in range(1, r + 1))


def _check_cap(r: int, s: int, cap: int) -> None:
    if r > cap or s > cap:
        count = _kittaneh_count(r, s)
        raise EnumerationCapError(
            f"sizes r={r}, s={s} exceed enumeration cap {cap}; "
            f"{count} tuples would be required", count)


def kittaneh_lower_coeff(eig: EigenPair, cap: int = DEFAULT_ENUM_CAP) -> BoundResult:
    """Sharp lower constant for || |A| - |B| || / ||A - B|| on normal pairs.

    Exact minimum over every pairing of k distinct eigenvalues of one matrix
    with k distinct eigenvalues of the other, 1 <= k <= r. 0/0 pairings are
    skipped; if every pairing is skipped the bound is vacuous and the result
    is flagged degenerate with value 1.
    """
    _check_cap(eig.r, eig.s, cap)
    F = eig.F_hat
    tol = _indeterminate_tol(F)
    best = None
    best_tuple = None
    for k in range(1, eig.r + 1):
        for rows in itertools.combinations(range(eig.s), k):
            for cols in itertools.permutations(range(eig.r), k):
                num = F - 2.0 * math.fsum(
                    abs(eig.lam_hat[i]) * abs(eig.lam[j]) for i, j in zip(rows, cols))
                den = F - 2.0 * math.fsum(
                    (eig.lam_hat[i] * eig.lam[j].conjugate()).real
                    for i, j in zip(rows, cols))
                if abs(num) < tol and abs(den) < tol:
                    continue
                val = num / den
                if best is None or val < best:
                    best = val
                    best_tuple = (rows, cols)
    if best is None:
        return BoundResult(theorem_id="kittaneh-lower", coefficient=1.0,
                           degenerate=True)
    c = math.sqrt(max(best, 0.0))
    check_range("kittaneh-lower", c, 0.0, 1.0 + 1e-12)
    return BoundResult(theorem_id="kittaneh-lower", coefficient=min(c, 1.0),
                       optimal_tuple=best_tuple)


def kittaneh_upper_coeff(eig: EigenPair, n: int,
                         cap: int = DEFAULT_ENUM_CAP) -> BoundResult:
    """Sharp upper constant on normal pairs when the second matrix has full rank.

    Exact maximum over arrangements pairing each of the r eigenvalues of the
    rank-deficient matrix with a distinct eigenvalue of the full-rank one.
    """
    if eig.s != n:
        raise RankMismatchError(
            f"full-rank second matrix required: s={eig.s} must equal n={n}")
    _check_cap(eig.r, n, cap)
    F = eig.F_hat
    tol = _indeterminate_tol(F)
    best = None
    best_tuple = None
    for arrangement in itertools.permutations(range(n), eig.r):
        num = F - 2.0 * math.fsum(
            abs(eig.lam_hat[i]) * abs(eig.lam[j])
            for j, i in enumerate(arrangement))
        den = F - 2.0 * math.fsum(
            (eig.lam_hat[i] * eig.lam[j].conjugate()).real
            for j, i in enumerate(arrangement))
        if abs(num) < tol and abs(den) < tol:
            continue
        val = num / den
        if best is None or val > best:
            best = val
            best_tuple = arrangement
    if best is None:
        return BoundResult(theorem_id="kittaneh-upper", coefficient=1.0,
                           degenerate=True)
    c = math.sqrt(max(best, 0.0))
    check_range("kittaneh-upper", c, 0.0, 1.0 + 1e-12)
    return BoundResult(theorem_id="kittaneh-upper", coefficient=min(c, 1.0),
                       optimal_tuple=best_tuple)
