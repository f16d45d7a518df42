"""Brute-force ground truth for the closed-form coefficients.

Enumerates the extreme points of the signed doubly-substochastic polytope
(row and column absolute sums <= 1), bounds the ratio function at every
point over index arrays and evaluates it exactly wherever the max or the min
may lie, and checks the directional-move steps used to reduce the optimum
to a one-index search. `brute_force_kittaneh`, re-derived in
`kittaneh_oracle` with an independent iteration strategy, is exported here
too; the two oracles share only `enumeration`'s budget and index arrays.

The two Kittaneh searches agree bit for bit but share no code. The closed
form (`bounds.kittaneh_*_coeff`) reads F_hat from the pair, walks the
pairings row-subset-first and evaluates exactly, one at a time, every
pairing of a k with few pairings, or those its own numpy bounds leave of a
k with many. `brute_force_kittaneh` sums its own F_hat, walks the injections
column-subset-first, bounds them all over index arrays, and evaluates
exactly, in order, only those that may hold the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import kittaneh_oracle
from .bounds import q_lower_numden, q_upper_numden
from .enumeration import (_BLOCK_POINTS, _F_RANGE, _U, DEFAULT_BUDGET, BudgetExceededError,
                          pairing_blocks, sign_vectors)
from .spectra import NumericalRangeError, SpectrumPair, fg_scalars

brute_force_kittaneh = kittaneh_oracle.brute_force_kittaneh


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


def _index_blocks(r: int, s: int, budget: int
                  ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Every extreme point once, as blocks (rows, cols, offsets, signs) of
    int arrays.

    rows and cols are (m, k): m row subsets paired with column arrangements.
    offsets is (k, m), offsets[j, p] = rows[p, j] * r + cols[p, j], the
    entries' places in a flat s x r table. signs is (2**k, k). The block's
    points are each pairing with each sign vector, pairing-major: point t is
    zip(rows[p], cols[p], signs[q]) with p, q = divmod(t, 2**k). The order
    is k ascending, then row subsets (`combinations`), column arrangements
    (`permutations`) and signs (`product`, + before -). A block holds about
    _BLOCK_POINTS points (16,384), so the arrays derived from it stay under
    1 MB however many points there are (`enumeration.pairing_blocks`).
    """
    if not (1 <= r <= s):
        raise ValueError(f"need 1 <= r <= s, got r={r}, s={s}")
    count = extreme_point_count(r, s)
    if count > budget:
        raise BudgetExceededError(
            f"enumeration of r={r}, s={s} needs {count} points, budget is {budget}",
            count)
    zero = np.zeros((1, 0), dtype=np.intp)
    yield zero, zero, zero.T, zero
    for k in range(1, r + 1):
        signs = sign_vectors(k)
        step = max(1, _BLOCK_POINTS // len(signs))
        for rows, cols, offsets in pairing_blocks(s, r, k, step):
            yield rows, cols, offsets, signs


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
    for rows, cols, _, signs in _index_blocks(r, s, budget):
        sign_lists = signs.tolist()
        for i, j in zip(rows.tolist(), cols.tolist()):
            for sg in sign_lists:
                yield point(i, j, sg)


def _sum_of_squares(pair: SpectrumPair) -> float:
    """F, the sum of the squares of both spectra.

    The oracle sums F itself rather than reading the closed forms' cached
    scalar, so a wrong F there cannot pass both. `math.fsum` rounds the exact
    sum once, so this equals `fg_scalars(pair).F` bit for bit wherever the
    squares and F are normal doubles.
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

    The sums are built by doubling: from a row of zeros, step j puts sum +
    w_j and sum + (-w_j) side by side, so the 2**(j + 1) sums of the first
    j + 1 entries come out in `product` order, each added in the order j.
    They are stored sign-major, so each step writes contiguous rows, and
    den is the transpose of that array.
    """
    F = _sum_of_squares(pair)
    w = np.multiply.outer(np.array(pair.sigma_tilde), np.array(pair.sigma)).ravel()
    plus_minus = np.array([[1.0], [-1.0]])
    level = None
    for rows, cols, offsets, signs in _index_blocks(pair.r, pair.s, budget):
        if signs is not level:
            level = signs
            num = pair.r + pair.s - 2.0 * signs.sum(axis=1)
            err = (2 * signs.shape[1] + 16) * _U * F
        m = len(rows)
        den = np.zeros((1, m))
        for terms in w.take(offsets)[:, None, :] * plus_minus:    # (k, 2, m)
            den = (den[:, None, :] + terms).reshape(-1, m)
        den *= -2.0
        den += F
        yield rows, cols, signs, num, den.T, err


def _candidates(pair: SpectrumPair, budget: int) -> Iterator[SignedSubPermutation]:
    """The extreme points that may hold the max or the min, in enumeration order.

    A point is left out only when its value is provably below a value some
    point is known to reach (so it cannot be the max) and above one (so it
    cannot be the min). num = r + s - 2k + 4c >= 0 depends only on the
    number c of minus signs, so each test compares den (`_ratio_blocks`)
    with a threshold per c. `evaluate_f`'s denominator d lies within err of
    den, and its value is fl(num/d); let slack = err + 5u*F.

    * Open points. A point with den <= 2*(slack + tol) when num < tol, or
      den <= 2*slack otherwise, may be in the 0/0 box or near a 0
      denominator and is always kept. Any other point has d > den - err >
      0, and d > tol where num < tol, so a value; its value lies in [lo,
      hi] = [num/(den + slack), num/(den - slack)], each end rounded twice:
      den + slack rounds to at least d, since 5u*F covers its rounding
      error of at most u*(2F + slack), and division rounds monotonically
      (hi alike).
    * Reached values. max_floor is the greatest lo, and min_ceiling the
      least hi, over the points closed so far, this block's included. lo
      falls and hi rises with den, so a sign vector's greatest lo is at its
      least closed den and its least hi at its greatest den.
    * The max. If d >= (1 + 4u)*num/max_floor, then num/d <= (1 - 3u) *
      max_floor, which rounds to below max_floor, a normal double. Since
      d > den - err, den > (1 + 12u)*num/max_floor + (1 - u)*slack implies
      it, as (1 - u)*slack > err. The computed threshold (1 + 16u) *
      (num/max_floor) + slack, three roundings of at most u each, is at
      least that. A point is kept for the max when den is at most the
      threshold, or open.
    * The min. If d <= (1 - 4u)*num/min_ceiling, then num/d >= (1 + 4u) *
      min_ceiling, which rounds to above min_ceiling, 0 or a normal double.
      Likewise the computed (1 - 16u)*(num/min_ceiling) - slack is at most
      (1 - 12u)*num/min_ceiling - (1 - u)*slack, so a point is kept for the
      min when den is at least that threshold. A point with num = 0 has
      value 0, which no value is below, so it is always kept for the min,
      also once min_ceiling = 0 and num/min_ceiling = 0/0.

    Before any point is closed, max_floor = -inf keeps every point for the
    max and min_ceiling = inf every point for the min; a reached value that
    is not finite is not used, and a threshold that overflows keeps more.
    A sign vector whose den range meets neither threshold holds no kept
    point, and none that could move a reached value, so only the others are
    compared point by point. When F is too near the ends of the double
    range for these relative bounds to hold, every point is kept.
    """
    F = _sum_of_squares(pair)
    tol = 1e-12 * max(1.0, F)
    bounded = _F_RANGE[0] <= F <= _F_RANGE[1]
    point = _point_builder(pair.r, pair.s)
    max_floor, min_ceiling = -math.inf, math.inf
    level = None

    def thresholds():
        """Per sign vector, keep a point when den <= upper or den >= lower."""
        uppers, lowers = [], []
        for x, top in zip(nums, tops):
            if not bounded:
                upper, lower = math.inf, -math.inf
            else:
                upper = (1 + 16 * _U) * (x / max_floor) + slack if max_floor > 0 else math.inf
                lower = ((1 - 16 * _U) * (x / min_ceiling) - slack if min_ceiling > 0
                         else math.inf)
                if x == 0:
                    lower = -math.inf
            uppers.append(max(upper, top))
            lowers.append(lower)
        return np.array(uppers).take(minus), np.array(lowers).take(minus)

    for rows, cols, signs, num, den, err in _ratio_blocks(pair, budget):
        if signs is not level:    # a new k: a threshold per count c of minus signs
            level, k = signs, signs.shape[1]
            minus = (signs < 0).sum(axis=1)
            minus_list = minus.tolist()
            nums = [float(pair.r + pair.s - 2 * k + 4 * c) for c in range(k + 1)]
            slack = err + 5 * _U * F
            tops = [2.0 * (slack + (tol if x < tol else 0.0)) for x in nums]
            upper, lower = thresholds()
        den = den.T    # sign-major
        least, greatest = den.min(axis=1), den.max(axis=1)
        hits = np.flatnonzero((least <= upper) | (greatest >= lower))
        if not len(hits):
            continue
        den = den[hits]
        moved = False
        for c, (q, low, high) in enumerate(zip(hits.tolist(), least[hits].tolist(),
                                               greatest[hits].tolist())):
            x, top = nums[minus_list[q]], tops[minus_list[q]]
            if not bounded or high <= top:    # no closed point
                continue
            if low <= top:
                low = float(den[c][den[c] > top].min())
            lo, hi = x / (low + slack), x / (high - slack)
            if lo > max_floor and math.isfinite(lo):
                max_floor, moved = lo, True
            if hi < min_ceiling and math.isfinite(hi):
                min_ceiling, moved = hi, True
        if moved:
            upper, lower = thresholds()
        keep = den <= upper[hits, None]
        keep |= den >= lower[hits, None]
        p_list, c_list = np.divmod(np.flatnonzero(keep.T), len(hits))
        for p, q in zip(p_list.tolist(), hits[c_list].tolist()):
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
