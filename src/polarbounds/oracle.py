"""Brute-force ground truth for the closed-form coefficients.

Enumerates the extreme points of the signed doubly-substochastic polytope
(row and column absolute sums <= 1), evaluates the ratio function at every
point, re-derives the normal-matrix arrangement optima with an independent
iteration strategy, and checks the directional-move steps used to reduce the
optimum to a one-index search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .bounds import EnumerationCapError, q_lower_numden, q_upper_numden
from .spectra import BoundResult, EigenPair, NumericalRangeError, SpectrumPair, fg_scalars

DEFAULT_BUDGET = 10 ** 7


class BudgetExceededError(ValueError):
    """Enumeration would emit more points than the caller's budget."""

    def __init__(self, message: str, exact_count: int):
        super().__init__(message)
        self.exact_count = exact_count


@dataclass(frozen=True)
class SignedSubPermutation:
    """Extreme point of the signed substochastic polytope: a sparse +-1 pattern.

    `support` lists (row, col, sign) with all rows distinct and all columns
    distinct; the zero matrix is the empty support.
    """
    rows: int      # s
    cols: int      # r
    support: Tuple[Tuple[int, int, int], ...]

    @property
    def k(self) -> int:
        return len(self.support)

    def dense(self):
        import numpy as np
        x = np.zeros((self.rows, self.cols))
        for i, j, sg in self.support:
            x[i, j] = sg
        return x


@dataclass(frozen=True)
class FEvaluation:
    point: SignedSubPermutation
    numerator: float
    denominator: float
    value: Optional[float]    # None when numerator and denominator are both ~0


@dataclass(frozen=True)
class DirectionalMove:
    """A proof-step violation record: a grid move whose claimed sign failed."""
    variant: str              # "max" | "min"
    from_point: Tuple[int, int]
    to_point: Tuple[int, int]
    delta_numerator: float
    delta_denominator: float
    detail: str


def extreme_point_count(r: int, s: int) -> int:
    """Closed-form count: zero point plus all signed partial pairings."""
    return 1 + sum(math.comb(s, k) * math.comb(r, k) * math.factorial(k) * 2 ** k
                   for k in range(1, r + 1))


def enumerate_extreme_points(r: int, s: int,
                             budget: int = DEFAULT_BUDGET
                             ) -> Iterator[SignedSubPermutation]:
    """Stream every extreme point exactly once, k ascending then lexicographic."""
    if not (1 <= r <= s):
        raise ValueError(f"need 1 <= r <= s, got r={r}, s={s}")
    count = extreme_point_count(r, s)
    if count > budget:
        raise BudgetExceededError(
            f"enumeration of r={r}, s={s} needs {count} points, budget is {budget}",
            count)
    yield SignedSubPermutation(rows=s, cols=r, support=())
    for k in range(1, r + 1):
        for row_set in itertools.combinations(range(s), k):
            for col_arrangement in itertools.permutations(range(r), k):
                for signs in itertools.product((1, -1), repeat=k):
                    support = tuple(
                        (i, j, sg)
                        for i, j, sg in zip(row_set, col_arrangement, signs))
                    yield SignedSubPermutation(rows=s, cols=r, support=support)


def evaluate_f(pair: SpectrumPair, point: SignedSubPermutation) -> FEvaluation:
    """Ratio of perturbation numerator to denominator at one extreme point."""
    F = fg_scalars(pair).F
    tol = 1e-12 * max(1.0, F)
    num = float(pair.r + pair.s - 2 * sum(sg for _, _, sg in point.support))
    den = F - 2.0 * math.fsum(
        sg * pair.sigma_tilde[i] * pair.sigma[j] for i, j, sg in point.support)
    if abs(num) < tol and abs(den) < tol:
        return FEvaluation(point=point, numerator=num, denominator=den, value=None)
    return FEvaluation(point=point, numerator=num, denominator=den, value=num / den)


def brute_force_f_extrema(pair: SpectrumPair,
                          budget: int = DEFAULT_BUDGET
                          ) -> Tuple[FEvaluation, FEvaluation]:
    """Exact max and min of the ratio over all enumerated extreme points."""
    best_max: Optional[FEvaluation] = None
    best_min: Optional[FEvaluation] = None
    for point in enumerate_extreme_points(pair.r, pair.s, budget=budget):
        ev = evaluate_f(pair, point)
        if ev.value is None:
            continue
        if best_max is None or ev.value > best_max.value:
            best_max = ev
        if best_min is None or ev.value < best_min.value:
            best_min = ev
    if best_max is None or best_min is None:
        raise NumericalRangeError("every extreme point is 0/0, impossible for a valid pair")
    return best_max, best_min


def brute_force_kittaneh(eig: EigenPair, mode: str, n: Optional[int] = None,
                         budget: int = DEFAULT_BUDGET) -> BoundResult:
    """Re-derive the normal-matrix arrangement optimum by dense injections.

    Deliberately iterates injection maps column-subset-first (the closed-form
    module iterates row-subset-first) so a shared indexing bug cannot hide.
    """
    if mode not in ("lower", "upper"):
        raise ValueError(f"mode must be 'lower' or 'upper', got {mode!r}")
    F = eig.F_hat
    tol = 1e-12 * max(1.0, F)

    def ratio(pairs) -> Optional[float]:
        num = F - 2.0 * math.fsum(abs(eig.lam_hat[i]) * abs(eig.lam[j])
                                  for i, j in pairs)
        den = F - 2.0 * math.fsum((eig.lam_hat[i] * eig.lam[j].conjugate()).real
                                  for i, j in pairs)
        if abs(num) < tol and abs(den) < tol:
            return None
        return num / den

    if mode == "upper":
        if n is None:
            raise ValueError("mode='upper' requires n")
        if eig.s != n:
            raise ValueError(f"full-rank second matrix required: s={eig.s}, n={n}")
        count = math.perm(n, eig.r)
        if count > budget:
            raise BudgetExceededError(
                f"{count} arrangements exceed budget {budget}", count)
        best = None
        best_tuple = None
        # injections from all r columns into [n], iterated row-list-first
        for row_list in itertools.permutations(range(n), eig.r):
            val = ratio(list(zip(row_list, range(eig.r))))
            if val is not None and (best is None or val > best):
                best = val
                best_tuple = row_list
        if best is None:
            return BoundResult(theorem_id="kittaneh-upper", coefficient=1.0,
                               degenerate=True)
        return BoundResult(theorem_id="kittaneh-upper",
                           coefficient=min(math.sqrt(max(best, 0.0)), 1.0),
                           optimal_tuple=best_tuple)

    count = sum(math.comb(eig.r, k) * math.perm(eig.s, k)
                for k in range(1, eig.r + 1))
    if count > budget:
        raise BudgetExceededError(f"{count} injections exceed budget {budget}", count)
    best = None
    best_tuple = None
    for k in range(1, eig.r + 1):
        for col_subset in itertools.combinations(range(eig.r), k):
            for row_list in itertools.permutations(range(eig.s), k):
                val = ratio(list(zip(row_list, col_subset)))
                if val is not None and (best is None or val < best):
                    best = val
                    best_tuple = (row_list, col_subset)
    if best is None:
        return BoundResult(theorem_id="kittaneh-lower", coefficient=1.0,
                           degenerate=True)
    return BoundResult(theorem_id="kittaneh-lower",
                       coefficient=min(math.sqrt(max(best, 0.0)), 1.0),
                       optimal_tuple=best_tuple)


def _grid_value_max(pair: SpectrumPair, k1: int, k2: int) -> Tuple[float, float]:
    """(numerator, denominator) of the reduced grid objective, max variant.

    k1 counts reverse-paired negative entries, k2 top-aligned positive ones.
    """
    sig, sigt = pair.sigma, pair.sigma_tilde
    r, s = pair.r, pair.s
    num = float(r + s + 2 * (k1 - k2))
    a = math.fsum(sigt[s - k1 + j] * sig[r - 1 - j] for j in range(k1))
    b = math.fsum(sigt[j] * sig[j] for j in range(k2))
    den = fg_scalars(pair).F + 2.0 * a - 2.0 * b
    return num, den


def _grid_value_min(pair: SpectrumPair, k1: int, k2: int) -> Tuple[float, float]:
    """(numerator, denominator) of the reduced grid objective, min variant.

    k1 counts top-aligned negative entries, k2 reverse-paired positive ones.
    """
    sig, sigt = pair.sigma, pair.sigma_tilde
    r, s = pair.r, pair.s
    num = float(r + s + 2 * (k1 - k2))
    b = math.fsum(sigt[j] * sig[j] for j in range(k1))
    a = math.fsum(sigt[s - k2 + j] * sig[r - 1 - j] for j in range(k2))
    den = fg_scalars(pair).F + 2.0 * b - 2.0 * a
    return num, den


def directional_move_check(pair: SpectrumPair, variant: str) -> List[DirectionalMove]:
    """Check the diagonal-move sign claims on every feasible grid point.

    For the max variant a diagonal step (k1, k2) -> (k1+1, k2+1) must not
    increase the denominator (so the ratio does not decrease); for the min
    variant it must not decrease it. Violations are returned as data.
    """
    if variant not in ("max", "min"):
        raise ValueError(f"variant must be 'max' or 'min', got {variant!r}")
    grid = _grid_value_max if variant == "max" else _grid_value_min
    violations: List[DirectionalMove] = []
    r = pair.r
    tol = 1e-12 * max(1.0, fg_scalars(pair).F)
    for k1 in range(r - 1):
        for k2 in range(r - 1 - k1):
            if k1 + k2 + 2 > r:
                continue
            num0, den0 = grid(pair, k1, k2)
            num1, den1 = grid(pair, k1 + 1, k2 + 1)
            d_num = num1 - num0
            d_den = den1 - den0
            if abs(d_num) > tol:
                violations.append(DirectionalMove(
                    variant=variant, from_point=(k1, k2), to_point=(k1 + 1, k2 + 1),
                    delta_numerator=d_num, delta_denominator=d_den,
                    detail="diagonal move changed the numerator"))
                continue
            if variant == "max" and d_den > tol:
                violations.append(DirectionalMove(
                    variant=variant, from_point=(k1, k2), to_point=(k1 + 1, k2 + 1),
                    delta_numerator=d_num, delta_denominator=d_den,
                    detail="denominator increased on a max-variant diagonal move"))
            if variant == "min" and d_den < -tol:
                violations.append(DirectionalMove(
                    variant=variant, from_point=(k1, k2), to_point=(k1 + 1, k2 + 1),
                    delta_numerator=d_num, delta_denominator=d_den,
                    detail="denominator decreased on a min-variant diagonal move"))
            # the move must also order the ratio values correctly
            if num0 > tol and den0 > tol and den1 > tol:
                f0, f1 = num0 / den0, num1 / den1
                if variant == "max" and f1 < f0 - tol:
                    violations.append(DirectionalMove(
                        variant=variant, from_point=(k1, k2),
                        to_point=(k1 + 1, k2 + 1),
                        delta_numerator=d_num, delta_denominator=d_den,
                        detail=f"ratio dropped on a max-variant diagonal move: "
                               f"{f0} -> {f1}"))
                if variant == "min" and f1 > f0 + tol:
                    violations.append(DirectionalMove(
                        variant=variant, from_point=(k1, k2),
                        to_point=(k1 + 1, k2 + 1),
                        delta_numerator=d_num, delta_denominator=d_den,
                        detail=f"ratio rose on a min-variant diagonal move: "
                               f"{f0} -> {f1}"))
    return violations


def boundary_grid_check(pair: SpectrumPair) -> bool:
    """True when the closed-form k tables equal the k1 + k2 = r grid boundary."""
    tolF = 1e-10 * max(1.0, fg_scalars(pair).F)
    for k in range(pair.r + 1):
        num_g, den_g = _grid_value_max(pair, k, pair.r - k)
        num_c, den_c = q_upper_numden(pair, k)
        if abs(num_g - num_c) > tolF or abs(den_g - den_c) > tolF:
            return False
        num_g, den_g = _grid_value_min(pair, k, pair.r - k)
        num_c, den_c = q_lower_numden(pair, k)
        if abs(num_g - num_c) > tolF or abs(den_g - den_c) > tolF:
            return False
    return True
