"""Brute-force ground truth for the closed-form coefficients.

Enumerates the extreme points of the signed doubly-substochastic polytope
(row and column absolute sums <= 1), bounds the ratio function at every
point over index arrays and evaluates it exactly wherever the max or the min
may lie, re-derives the normal-matrix arrangement optima with an independent
iteration strategy, and checks the directional-move steps used to reduce the
optimum to a one-index search.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .bounds import q_lower_numden, q_upper_numden
from .spectra import BoundResult, EigenPair, NumericalRangeError, SpectrumPair, fg_scalars

DEFAULT_BUDGET = 10 ** 7
_BLOCK_POINTS = 4096     # extreme points per index block
_U = 2.0 ** -53          # unit roundoff of a double
_F_RANGE = (2.0 ** -960, 2.0 ** 960)    # F where the oracle's value bounds hold


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


def _index_array(tuples, k: int) -> np.ndarray:
    """The k-tuples of an itertools iterator as the rows of an int array."""
    return np.fromiter(itertools.chain.from_iterable(tuples), dtype=np.intp).reshape(-1, k)


def _index_blocks(r: int, s: int, budget: int
                  ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every extreme point once, as blocks (rows, cols, signs) of int arrays.

    rows and cols are (m, k): m row subsets paired with column arrangements.
    signs is (2**k, k). The block's points are each pairing with each sign
    vector, pairing-major: point t is zip(rows[p], cols[p], signs[q]) with
    p, q = divmod(t, 2**k). The order is k ascending, then row subsets
    (`combinations`), column arrangements (`permutations`) and signs
    (`product`, + before -). A block holds about _BLOCK_POINTS points, so
    the arrays derived from it stay small however many points there are.
    """
    if not (1 <= r <= s):
        raise ValueError(f"need 1 <= r <= s, got r={r}, s={s}")
    count = extreme_point_count(r, s)
    if count > budget:
        raise BudgetExceededError(
            f"enumeration of r={r}, s={s} needs {count} points, budget is {budget}",
            count)
    zero = np.zeros((1, 0), dtype=np.intp)
    yield zero, zero, zero
    for k in range(1, r + 1):
        row_sets = _index_array(itertools.combinations(range(s), k), k)
        arrangements = _index_array(itertools.permutations(range(r), k), k)
        signs = _index_array(itertools.product((1, -1), repeat=k), k)
        n_arr = len(arrangements)
        n_pairings = len(row_sets) * n_arr
        step = max(1, _BLOCK_POINTS // len(signs))
        for start in range(0, n_pairings, step):
            pairing = np.arange(start, min(start + step, n_pairings))
            yield row_sets[pairing // n_arr], arrangements[pairing % n_arr], signs


def _point_builder(r: int, s: int):
    """point(rows, cols, signs) -> the SignedSubPermutation of those entries.

    Supports share one (row, col, sign) tuple per entry. Building each
    afresh between the array blocks' allocations grew the oracle's peak RSS
    by about 0.4 MB over a few hundred calls.
    """
    entry = [[{sg: (i, j, sg) for sg in (1, -1)} for j in range(r)] for i in range(s)]

    def point(rows, cols, signs) -> SignedSubPermutation:
        return SignedSubPermutation(rows=s, cols=r, support=tuple(
            [entry[i][j][sg] for i, j, sg in zip(rows, cols, signs)]))
    return point


def enumerate_extreme_points(r: int, s: int,
                             budget: int = DEFAULT_BUDGET
                             ) -> Iterator[SignedSubPermutation]:
    """Stream every extreme point exactly once, k ascending then lexicographic."""
    point = _point_builder(r, s)
    for rows, cols, signs in _index_blocks(r, s, budget):
        sign_lists = signs.tolist()
        for i, j in zip(rows.tolist(), cols.tolist()):
            for sg in sign_lists:
                yield point(i, j, sg)


def _sum_of_squares(pair: SpectrumPair) -> float:
    """F, the sum of the squares of both spectra.

    The oracle sums F itself rather than reading the closed forms' cached
    scalar, so a wrong F there cannot pass both. `math.fsum` rounds the exact
    sum once, so this equals `fg_scalars(pair).F` bit for bit.
    """
    return math.fsum([x * x for x in pair.sigma] + [x * x for x in pair.sigma_tilde])


def evaluate_f(pair: SpectrumPair, point: SignedSubPermutation) -> FEvaluation:
    """Ratio of perturbation numerator to denominator at one extreme point.

    The denominator F - 2*sum(sign * sigma_tilde[i] * sigma[j]) is summed as
    the squares (sigma_tilde[i] - sign * sigma[j])**2 of the matched entries
    plus the squares of the unmatched values of both spectra, so no digit
    cancels. It is 0 only when every term is, which forces num = 0 (the 0/0
    box) on spectra whose squares do not underflow.
    """
    F = _sum_of_squares(pair)
    tol = 1e-12 * max(1.0, F)
    num = float(pair.r + pair.s - 2 * sum(sg for _, _, sg in point.support))
    rows = {i for i, _, _ in point.support}
    cols = {j for _, j, _ in point.support}
    den = math.fsum(
        [(pair.sigma_tilde[i] - sg * pair.sigma[j]) ** 2 for i, j, sg in point.support]
        + [x * x for i, x in enumerate(pair.sigma_tilde) if i not in rows]
        + [x * x for j, x in enumerate(pair.sigma) if j not in cols])
    if abs(num) < tol and abs(den) < tol:
        return FEvaluation(point=point, numerator=num, denominator=den, value=None)
    return FEvaluation(point=point, numerator=num, denominator=den, value=num / den)


def _ratio_blocks(pair: SpectrumPair, budget: int):
    """`_index_blocks` with the ratio's numerator and denominator.

    Yields (rows, cols, signs, num, den, err). num[q] belongs to sign vector
    q and is exact; den[p, q] to pairing p with sign vector q. den is
    F - 2*sum_j(sign_j * w_j) with w = sigma_tilde[i] * sigma[j], summed
    over j in order, and differs from `evaluate_f`'s denominator by at most
    err = (2k + 16)*u*F (u = 2**-53). Against the exact denominator d, with
    sum(|sigma_tilde[i] * sigma[j]|) <= F/2 over the k entries and d <= 2F:
    here F errs by 2u*F (squares, then fsum), the products w by u*F/2 in
    all, their sum by (k - 1)*u*F/2, doubling is exact, and the final
    subtraction errs by u*|den| <= 2u*F, in all (k + 4)*u*F. `evaluate_f`
    rounds each of its nonnegative terms to within 3u of itself and their
    sum once, so it errs by 4u*d <= 8u*F. That is (k + 12)*u*F to first
    order, with (k + 4)*u*F to spare.
    """
    F = _sum_of_squares(pair)
    w = np.multiply.outer(np.array(pair.sigma_tilde), np.array(pair.sigma))
    for rows, cols, signs in _index_blocks(pair.r, pair.s, budget):
        picked, sign_values = w[rows, cols], signs.astype(float)
        den = np.zeros((len(rows), len(signs)))
        for j in range(signs.shape[1]):
            den += picked[:, j, None] * sign_values[:, j]
        den *= -2.0
        den += F
        num = pair.r + pair.s - 2.0 * sign_values.sum(axis=1)
        yield rows, cols, signs, num, den, (2 * signs.shape[1] + 16) * _U * F


def _candidates(pair: SpectrumPair, budget: int) -> Iterator[SignedSubPermutation]:
    """The extreme points that may hold the max or the min, in enumeration order.

    A point is left out only when its value interval lies below a value some
    point is known to reach (so it cannot be the max) and above one (so it
    cannot be the min). The interval divides num >= 0 by den -+ (err + 5u*F):
    the 5u*F absorbs the rounding of that sum and of the quotient, each at
    most u relative on |den| <= 2F, so the computed ends enclose the exact
    value. A point whose interval is open, its denominator possibly 0 or in
    the 0/0 box, is always kept, and so is every point when F is too near
    the ends of the double range for those relative bounds to hold.
    """
    F = _sum_of_squares(pair)
    tol = 1e-12 * max(1.0, F)
    bounded = _F_RANGE[0] <= F <= _F_RANGE[1]
    point = _point_builder(pair.r, pair.s)
    max_floor, min_ceiling = -math.inf, math.inf
    for rows, cols, signs, num, den, err in _ratio_blocks(pair, budget):
        slack = err + 5 * _U * F
        is_open = np.abs(den) <= 2.0 * (slack + np.where(np.abs(num) < tol, tol, 0.0))
        # the value falls as den rises, on either side of 0; hi reuses den
        lo = den + slack
        hi = np.subtract(den, slack, out=den)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.divide(num, lo, out=lo)
            np.divide(num, hi, out=hi)
        is_open |= ~np.isfinite(lo)
        is_open |= ~np.isfinite(hi)
        is_open |= not bounded
        closed = ~is_open
        if closed.any():
            max_floor = max(max_floor, float(lo[closed].max()))
            min_ceiling = min(min_ceiling, float(hi[closed].min()))
        keep = is_open
        keep |= hi >= max_floor
        keep |= lo <= min_ceiling
        for t in np.flatnonzero(keep).tolist():
            p, q = divmod(t, len(signs))
            yield point(rows[p].tolist(), cols[p].tolist(), signs[q].tolist())


def brute_force_f_extrema(pair: SpectrumPair,
                          budget: int = DEFAULT_BUDGET
                          ) -> Tuple[FEvaluation, FEvaluation]:
    """Exact max and min of the ratio over all enumerated extreme points.

    Every extreme point is bounded over index arrays; the candidates are then
    re-evaluated by `evaluate_f` in enumeration order, with the strict
    comparisons of a scan of every point. The winners, ties included, are
    therefore those of that scan.
    """
    best_max: Optional[FEvaluation] = None
    best_min: Optional[FEvaluation] = None
    for point in _candidates(pair, budget):
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

    # (rows, cols, optimal_tuple) of each injection, in the order searched
    if mode == "upper":
        if n is None:
            raise ValueError("mode='upper' requires n")
        if eig.s != n:
            raise ValueError(f"full-rank second matrix required: s={eig.s}, n={n}")
        count, what, better = math.perm(n, eig.r), "arrangements", operator.gt
        # injections from all r columns into [n], iterated row-list-first
        labels = ((rows, range(eig.r), rows)
                  for rows in itertools.permutations(range(n), eig.r))
    else:
        count = sum(math.comb(eig.r, k) * math.perm(eig.s, k)
                    for k in range(1, eig.r + 1))
        what, better = "injections", operator.lt
        labels = ((rows, cols, (rows, cols))
                  for k in range(1, eig.r + 1)
                  for cols in itertools.combinations(range(eig.r), k)
                  for rows in itertools.permutations(range(eig.s), k))
    if count > budget:
        raise BudgetExceededError(f"{count} {what} exceed budget {budget}", count)
    best = best_tuple = None
    for rows, cols, label in labels:
        val = ratio(list(zip(rows, cols)))
        if val is not None and (best is None or better(val, best)):
            best, best_tuple = val, label
    theorem_id = f"kittaneh-{mode}"
    if best is None:
        return BoundResult(theorem_id=theorem_id, coefficient=1.0, degenerate=True)
    return BoundResult(theorem_id=theorem_id,
                       coefficient=min(math.sqrt(max(best, 0.0)), 1.0),
                       optimal_tuple=best_tuple)


def _top_cross(pair: SpectrumPair, k: int) -> float:
    """Cross sum of the k largest values of both spectra, top-aligned."""
    return math.fsum(pair.sigma_tilde[j] * pair.sigma[j] for j in range(k))


def _reverse_cross(pair: SpectrumPair, k: int) -> float:
    """Cross sum pairing the k smallest values of both spectra in reverse."""
    sig, sigt = pair.sigma, pair.sigma_tilde
    return math.fsum(sigt[pair.s - k + j] * sig[pair.r - 1 - j] for j in range(k))


def _grid_value(pair: SpectrumPair, variant: str, k1: int, k2: int
                ) -> Tuple[float, float]:
    """(numerator, denominator) of the reduced grid objective.

    k1 counts negative entries and k2 positive ones. The max variant
    reverse-pairs the negative entries and top-aligns the positive ones; the
    min variant does the opposite.
    """
    if variant == "max":
        neg, pos = _reverse_cross, _top_cross
    else:
        neg, pos = _top_cross, _reverse_cross
    num = float(pair.r + pair.s + 2 * (k1 - k2))
    den = fg_scalars(pair).F + 2.0 * neg(pair, k1) - 2.0 * pos(pair, k2)
    return num, den


def directional_move_check(pair: SpectrumPair, variant: str) -> List[DirectionalMove]:
    """Check the diagonal-move sign claims on every feasible grid point.

    For the max variant a diagonal step (k1, k2) -> (k1+1, k2+1) must not
    increase the denominator (so the ratio does not decrease); for the min
    variant it must not decrease it. The numerator r + s + 2(k1 - k2) does
    not change on such a step. Violations are returned as data.
    """
    if variant not in ("max", "min"):
        raise ValueError(f"variant must be 'max' or 'min', got {variant!r}")
    is_max = variant == "max"
    den_word, ratio_word = ("increased", "dropped") if is_max else ("decreased", "rose")
    violations: List[DirectionalMove] = []
    tol = 1e-12 * max(1.0, fg_scalars(pair).F)
    for k1 in range(pair.r - 1):
        for k2 in range(pair.r - 1 - k1):
            num0, den0 = _grid_value(pair, variant, k1, k2)
            num1, den1 = _grid_value(pair, variant, k1 + 1, k2 + 1)
            d_den = den1 - den0
            details = []
            if (d_den > tol) if is_max else (d_den < -tol):
                details.append(f"denominator {den_word} on a {variant}-variant diagonal move")
            # the move must also order the ratio values correctly
            if num0 > tol and den0 > tol and den1 > tol:
                f0, f1 = num0 / den0, num1 / den1
                if (f1 < f0 - tol) if is_max else (f1 > f0 + tol):
                    details.append(f"ratio {ratio_word} on a {variant}-variant diagonal "
                                   f"move: {f0} -> {f1}")
            violations += [DirectionalMove(
                variant=variant, from_point=(k1, k2), to_point=(k1 + 1, k2 + 1),
                delta_numerator=num1 - num0, delta_denominator=d_den, detail=detail)
                for detail in details]
    return violations


def boundary_grid_check(pair: SpectrumPair) -> bool:
    """True when the closed-form k tables equal the k1 + k2 = r grid boundary."""
    tolF = 1e-10 * max(1.0, fg_scalars(pair).F)
    for k in range(pair.r + 1):
        for variant, closed_numden in (("max", q_upper_numden), ("min", q_lower_numden)):
            num_g, den_g = _grid_value(pair, variant, k, pair.r - k)
            num_c, den_c = closed_numden(pair, k)
            if abs(num_g - num_c) > tolF or abs(den_g - den_c) > tolF:
                return False
    return True
