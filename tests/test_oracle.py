import itertools
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polarbounds import enumeration, kittaneh_oracle, oracle
from polarbounds.bounds import (
    kittaneh_lower_coeff,
    kittaneh_upper_coeff,
    q_lower_coeff,
    q_upper_coeff,
)
from polarbounds.oracle import (
    BudgetExceededError,
    DirectionalMove,
    FEvaluation,
    SignedSubPermutation,
    brute_force_f_extrema,
    brute_force_kittaneh,
    directional_move_check,
    evaluate_f,
    extreme_point_count,
)
from polarbounds.spectra import (
    BoundResult,
    NumericalRangeError,
    SpectrumPair,
    fg_scalars,
    validate_eigen_pair,
    validate_spectrum_pair,
)

from conftest import WIDE_FAMILIES, WIDE_SIZES, random_pair, wide_eigen_pairs
from test_q_kernel import reference_lower_numden, reference_upper_numden


def scalar_f_extrema(pair):
    """Reference: the ratio at every extreme point, one point at a time.

    This is the loop `brute_force_f_extrema` ran before it bounded the points
    over index arrays, with its own enumeration and evaluation, so the two
    share no code. A point is 0/0 by the exact rule: its numerator is 0 and
    every pair it matches is equal with sign +1; any other point with
    numerator 0 has the value 0.
    """
    sig, sigt = pair.sigma, pair.sigma_tilde
    supports = itertools.chain([()], (
        tuple(zip(rows, cols, signs))
        for k in range(1, pair.r + 1)
        for rows in itertools.combinations(range(pair.s), k)
        for cols in itertools.permutations(range(pair.r), k)
        for signs in itertools.product((1, -1), repeat=k)))
    best_max = best_min = None
    for support in supports:
        num = float(pair.r + pair.s - 2 * sum(sg for _, _, sg in support))
        rows, cols = {i for i, _, _ in support}, {j for _, j, _ in support}
        # the unmatched squares as x * x, like F: x ** 2 (libm pow) misrounds
        # some doubles, e.g. 2.999999910593033 ** 2 by one ulp
        den = math.fsum([(sigt[i] - sg * sig[j]) ** 2 for i, j, sg in support]
                        + [sigt[i] * sigt[i] for i in range(pair.s) if i not in rows]
                        + [sig[j] * sig[j] for j in range(pair.r) if j not in cols])
        if num == 0 and all(sg == 1 and sigt[i] == sig[j] for i, j, sg in support):
            continue
        ev = FEvaluation(point=SignedSubPermutation(rows=pair.s, cols=pair.r, support=support),
                         numerator=num, denominator=den, value=num / den if num else 0.0)
        if best_max is None or ev.value > best_max.value:
            best_max = ev
        if best_min is None or ev.value < best_min.value:
            best_min = ev
    if best_max is None:
        raise NumericalRangeError("every extreme point is 0/0")
    return best_max, best_min


def scalar_kittaneh(eig, mode, n=None):
    """Reference: the arrangement ratio at every injection, one at a time,
    column-subset-first.

    This is the loop `brute_force_kittaneh` ran before it bounded the
    injections over index arrays, with its own F, so the two share no code.
    """
    F = math.fsum([abs(z) ** 2 for z in eig.lam] + [abs(z) ** 2 for z in eig.lam_hat])
    tol = 1e-12 * max(1.0, F)

    def ratio(pairs):
        num = F - 2.0 * math.fsum(abs(eig.lam_hat[i]) * abs(eig.lam[j]) for i, j in pairs)
        den = F - 2.0 * math.fsum((eig.lam_hat[i] * eig.lam[j].conjugate()).real
                                  for i, j in pairs)
        if abs(num) < tol and abs(den) < tol:
            return None
        return num / den

    if mode == "upper":
        better = operator.gt
        labels = ((rows, range(eig.r), rows)
                  for rows in itertools.permutations(range(n), eig.r))
    else:
        better = operator.lt
        labels = ((rows, cols, (rows, cols))
                  for k in range(1, eig.r + 1)
                  for cols in itertools.combinations(range(eig.r), k)
                  for rows in itertools.permutations(range(eig.s), k))
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


def _desc(values):
    return np.sort(np.asarray(values, dtype=float))[::-1]


def _family_pair(family, rng, r, s):
    """One seeded spectrum pair of a family that stresses ties or rounding."""
    if family == "generic":
        sig, sigt = _desc(rng.uniform(0.1, 10, r)), _desc(rng.uniform(0.1, 10, s))
    elif family == "near-identical":
        sigt = _desc(rng.uniform(0.1, 10, s))
        sig = _desc(sigt[:r] * (1 + 10.0 ** rng.uniform(-15, -3) * rng.standard_normal(r)))
    elif family == "all-equal":
        c = float(rng.uniform(0.1, 10))
        sig, sigt = [c] * r, [c] * s
    elif family == "integer-ties":
        sig, sigt = _desc(rng.integers(1, 4, r)), _desc(rng.integers(1, 4, s))
    elif family == "zero-over-zero":
        # identical spectra: with r == s the aligned all-plus point is 0/0
        sigt = _desc(rng.integers(1, 4, s))
        sig = sigt[:r]
    else:
        scale = {"scaled-1e100": 1e100, "scaled-1e-100": 1e-100}[family]
        sig, sigt = _desc(rng.uniform(0.1, 10, r)), _desc(rng.uniform(0.1, 10, s))
        sig, sigt = sig * scale, sigt * scale
    return validate_spectrum_pair(sig, sigt)


FAMILIES = ("generic", "near-identical", "all-equal", "integer-ties", "zero-over-zero",
            "scaled-1e100", "scaled-1e-100")


def extreme_points(r, s, budget=enumeration.DEFAULT_BUDGET):
    """Every extreme point once, in the oracle's order: its index blocks
    walked point by point."""
    for rows, cols, _, signs in oracle._index_blocks(r, s, budget):
        for i, j in zip(rows.tolist(), cols.tolist()):
            for sg in signs.tolist():
                yield SignedSubPermutation(rows=s, cols=r, support=tuple(zip(i, j, sg)))


def _dense(point):
    """The point as an s x r array of 0 and +-1."""
    x = np.zeros((point.rows, point.cols))
    for i, j, sg in point.support:
        x[i, j] = sg
    return x


class TestEnumeration:
    def test_count_1x1(self):
        pts = list(extreme_points(1, 1))
        assert len(pts) == 3
        dense = sorted(tuple(_dense(p).ravel()) for p in pts)
        assert dense == [(-1.0,), (0.0,), (1.0,)]

    def test_count_1x2(self):
        assert len(list(extreme_points(1, 2))) == 5

    def test_count_2x2(self):
        assert len(list(extreme_points(2, 2))) == 17

    @pytest.mark.parametrize("r,s", [(r, s) for s in range(1, 6)
                                     for r in range(1, s + 1)])
    def test_count_matches_closed_form(self, r, s):
        pts = list(extreme_points(r, s))
        assert len(pts) == extreme_point_count(r, s)
        # exactly once: supports are hashable and distinct
        assert len({p.support for p in pts}) == len(pts)

    def test_membership(self):
        for p in extreme_points(3, 4):
            x = _dense(p)
            assert np.all(np.abs(x).sum(axis=0) <= 1)
            assert np.all(np.abs(x).sum(axis=1) <= 1)
            assert p.k <= 3

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as exc:
            list(extreme_points(6, 6, budget=100))
        assert exc.value.exact_count == extreme_point_count(6, 6)

    def test_budget_before_any_evaluation(self, monkeypatch):
        def refuse(pair, point):
            raise AssertionError("evaluate_f called")
        monkeypatch.setattr(oracle, "evaluate_f", refuse)
        pair = validate_spectrum_pair([3, 2, 1, 1, 1, 1], [3, 2, 2, 1, 1, 1])
        with pytest.raises(BudgetExceededError) as exc:
            brute_force_f_extrema(pair, budget=100)
        assert exc.value.exact_count == extreme_point_count(6, 6)

    def test_deterministic_order(self):
        a = [p.support for p in extreme_points(2, 3)]
        b = [p.support for p in extreme_points(2, 3)]
        assert a == b
        ks = [len(s) for s in a]
        assert ks == sorted(ks)


class TestFEvaluation:
    def test_zero_point(self):
        pair = validate_spectrum_pair([2], [1])
        ev = evaluate_f(pair, SignedSubPermutation(rows=1, cols=1, support=()))
        fg = fg_scalars(pair)
        assert ev.value == (pair.r + pair.s) / fg.F == 2 / 5

    def test_hand_enumeration_2_vs_1(self):
        pair = validate_spectrum_pair([2], [1])
        mx, mn = brute_force_f_extrema(pair)
        assert abs(mx.value - 4 / 9) < 1e-15
        assert mx.point.support == ((0, 0, -1),)
        assert mn.value == 0.0
        assert mn.point.support == ((0, 0, 1),)

    def test_identical_rank_one(self):
        pair = validate_spectrum_pair([1], [1])
        mx, mn = brute_force_f_extrema(pair)
        assert mx.value == 1.0 and mn.value == 1.0
        plus = SignedSubPermutation(rows=1, cols=1, support=((0, 0, 1),))
        assert evaluate_f(pair, plus).value is None

    def test_golden_row_matches_closed_form(self):
        pair = validate_spectrum_pair([8.7559, 6.1282, 5.0602],
                                      [7.3693, 5.7829, 3.2958, 2.5156])
        mx, _ = brute_force_f_extrema(pair)
        assert abs(mx.value - 0.0871) < 5e-5


class TestArrayPath:
    @pytest.mark.parametrize("r,s", [(r, s) for s in range(1, 5)
                                     for r in range(1, min(3, s) + 1)])
    def test_blocks_match_evaluate_f(self, rng, r, s):
        # num exact and den within the stated bound at every point
        for family in FAMILIES:
            pair = _family_pair(family, rng, r, s)
            points = extreme_points(r, s)
            for rows, cols, signs, num, den, err in oracle._ratio_blocks(pair, 10 ** 7):
                for p, q in itertools.product(range(len(rows)), range(len(signs))):
                    ev = evaluate_f(pair, next(points))
                    assert ev.point.support == tuple(zip(rows[p], cols[p], signs[q]))
                    assert ev.numerator == num[q]
                    bound = (2 * ev.point.k + 16) * 2.0 ** -53 * fg_scalars(pair).F
                    assert err == bound
                    assert abs(ev.denominator - den[p, q]) <= bound
            assert next(points, None) is None

    def test_f_summed_by_the_oracle_is_the_pair_f(self, rng):
        for family in FAMILIES:
            pair = _family_pair(family, rng, 3, 5)
            assert oracle._sum_of_squares(pair) == fg_scalars(pair).F

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_scalar_reference(self, family):
        rng = np.random.default_rng(FAMILIES.index(family) + 1)
        sizes = [(r, s) for s in range(1, 5) for r in range(1, s + 1)] + [(4, 5), (3, 5)]
        for r, s in sizes:
            pair = _family_pair(family, rng, r, s)
            assert repr(brute_force_f_extrema(pair)) == repr(scalar_f_extrema(pair))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_small_blocks_match_scalar_reference(self, monkeypatch, family):
        # blocks of one to three pairings at every k, so the best max and
        # min move at block boundaries everywhere: a boundary cannot change
        # a winner
        monkeypatch.setattr(oracle, "_BLOCK_POINTS", 7)
        rng = np.random.default_rng(FAMILIES.index(family) + 11)
        for r, s in [(1, 1), (2, 3), (3, 3), (2, 5), (4, 4), (4, 6)]:
            pair = _family_pair(family, rng, r, s)
            assert repr(brute_force_f_extrema(pair)) == repr(scalar_f_extrema(pair))

    def test_ties_the_array_sums_round_apart(self):
        # integer spectra at 1e100: tied points whose array denominators
        # round differently; without the err margin a later tie would win
        pair = validate_spectrum_pair(np.array([2, 2, 1, 1, 1]) * 1e100,
                                      np.array([2, 2, 2, 2, 1, 1]) * 1e100)
        assert repr(brute_force_f_extrema(pair)) == repr(scalar_f_extrema(pair))

    def test_wide_range_matches_closed_form(self):
        # F rounds to 2, so F - 2*1*1 would give den 0 with num 3 at the
        # point pairing the two 1s; summed as squares, den is 3e-18
        pair = validate_spectrum_pair([1, 1e-9], [1, 1e-9, 1e-9])
        mx, mn = brute_force_f_extrema(pair)
        assert repr((mx, mn)) == repr(scalar_f_extrema(pair))
        cu = q_upper_coeff(pair)[0].coefficient ** 2
        cl = q_lower_coeff(pair)[0].coefficient ** 2
        assert abs(mx.value - cu) <= 1e-10 * cu
        assert abs(mn.value - cl) <= 1e-10 * max(1.0, cl)


@st.composite
def tied_pairs(draw):
    """Spectra of {1, 2, 3} * 2**e: independent, identical, or near-identical
    copies, r = s at least half the time, so points with num = 0, a min
    ceiling of 0 and 0/0 boxes all occur."""
    s = draw(st.integers(1, 5))
    r = draw(st.one_of(st.just(s), st.integers(1, s)))
    e = draw(st.integers(-30, 30))
    value = st.builds(lambda m, d: m * 2.0 ** (e + d), st.sampled_from([1, 2, 3]),
                      st.integers(0, 3))
    sigma_tilde = draw(st.lists(value, min_size=s, max_size=s))
    kind = draw(st.sampled_from(["independent", "identical", "near-identical"]))
    if kind == "independent":
        sigma = draw(st.lists(value, min_size=r, max_size=r))
    else:
        sigma = sorted(sigma_tilde, reverse=True)[:r]
        if kind == "near-identical":
            nudges = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=r, max_size=r))
            p = draw(st.integers(20, 52))
            sigma = [x * (1 + d * 2.0 ** -p) for x, d in zip(sigma, nudges)]
    return validate_spectrum_pair(sorted(sigma, reverse=True),
                                  sorted(sigma_tilde, reverse=True))


def _outcome(search, pair):
    try:
        return repr(search(pair))
    except NumericalRangeError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestTiedSpectra:
    @settings(max_examples=100, deadline=None)
    @given(tied_pairs())
    # a reference squaring the unmatched values by ** differed in the last bit here
    @example(validate_spectrum_pair([2.999999910593033] * 2, [3.0, 3.0]))
    def test_matches_scalar_reference(self, pair):
        assert _outcome(brute_force_f_extrema, pair) == _outcome(scalar_f_extrema, pair)


class TestIndexCache:
    def test_cached_arrays_are_read_only(self):
        for array in enumeration.pairings(3, 4, 2) + (enumeration.sign_vectors(3),):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_large_levels_are_not_kept(self):
        # (7, 7) at k = 5 has 52,920 pairings of 5 entries: too many to keep
        assert enumeration.pairings(7, 7, 5) is None
        assert enumeration.pairings(7, 7, 3) is not None

    def test_bounded_past_the_largest_budgeted_sizes(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_cache", {})
        rng = np.random.default_rng(89)
        pair = validate_spectrum_pair(_desc(rng.uniform(0.1, 10, 7)),
                                      _desc(rng.uniform(0.1, 10, 7)))
        brute_force_f_extrema(pair)
        eig = validate_eigen_pair(rng.uniform(0.2, 3, 8) * 1j ** rng.integers(0, 4, 8),
                                  rng.uniform(0.2, 3, 9) * 1j ** rng.integers(0, 4, 9))
        brute_force_kittaneh(eig, "lower")
        assert 0 < enumeration.cache_nbytes() <= 256 * 1024

    def test_peak_memory_stays_bounded(self, monkeypatch):
        # one search from an empty cache: index blocks of _BLOCK_POINTS
        # points or entries and the cached levels; at (7, 7) the levels
        # k = 6 and 7 stream each column subset's arrangements
        monkeypatch.setattr(enumeration, "_cache", {})
        rng = np.random.default_rng(89)
        pair = validate_spectrum_pair(_desc(rng.uniform(0.1, 10, 6)),
                                      _desc(rng.uniform(0.1, 10, 7)))
        eig = validate_eigen_pair(rng.uniform(0.2, 3, 7) * 1j ** rng.integers(0, 4, 7),
                                  rng.uniform(0.2, 3, 7) * 1j ** rng.integers(0, 4, 7))
        for search in (lambda: brute_force_f_extrema(pair),
                       lambda: brute_force_kittaneh(eig, "lower")):
            tracemalloc.start()
            try:
                search()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 2 ** 20, peak


class TestOracleEquivalence:
    def test_equivalence_random(self, rng):
        for _ in range(60):
            pair = random_pair(rng, r_max=3, s_max=4)
            mx, mn = brute_force_f_extrema(pair)
            cu = q_upper_coeff(pair)[0].coefficient
            cl = q_lower_coeff(pair)[0].coefficient
            assert abs(mx.value - cu * cu) <= 1e-10 * max(1.0, cu * cu)
            assert abs(mn.value - cl * cl) <= 1e-10 * max(1.0, cl * cl)

    @pytest.mark.parametrize("r,s", [(5, 6), (6, 7)])
    def test_equivalence_large(self, r, s):
        rng = np.random.default_rng(100 * r + s)
        for _ in range(4):
            pair = validate_spectrum_pair(np.sort(rng.uniform(0.1, 10, r))[::-1],
                                          np.sort(rng.uniform(0.1, 10, s))[::-1])
            mx, mn = brute_force_f_extrema(pair)
            cu = q_upper_coeff(pair)[0].coefficient ** 2
            cl = q_lower_coeff(pair)[0].coefficient ** 2
            assert abs(mx.value - cu) <= 1e-10 * max(1.0, cu)
            assert abs(mn.value - cl) <= 1e-10 * max(1.0, cl)
            assert mx.point.k == mn.point.k == r

    def test_optimizers_have_full_support(self, rng):
        for _ in range(40):
            pair = random_pair(rng, r_max=3, s_max=4)
            mx, mn = brute_force_f_extrema(pair)
            assert mx.point.k == pair.r
            assert mn.point.k == pair.r

    def test_zero_point_is_interior_value(self, rng):
        for _ in range(40):
            pair = random_pair(rng, r_max=3, s_max=4)
            mx, mn = brute_force_f_extrema(pair)
            zero = evaluate_f(pair, SignedSubPermutation(
                rows=pair.s, cols=pair.r, support=()))
            assert mn.value - 1e-12 <= zero.value <= mx.value + 1e-12


class TestDirectionalMoves:
    def test_small_rank_trivial(self, rng):
        for _ in range(20):
            pair = random_pair(rng, r_max=2, s_max=3)
            assert directional_move_check(pair, "max") == []
            assert directional_move_check(pair, "min") == []

    def test_large_rank(self, rng):
        for _ in range(100):
            sig = np.sort(rng.uniform(0.1, 10, size=4))[::-1]
            sigt = np.sort(rng.uniform(0.1, 10, size=5))[::-1]
            pair = validate_spectrum_pair(sig, sigt)
            assert directional_move_check(pair, "max") == []
            assert directional_move_check(pair, "min") == []

    def test_fixed_equal_spectra(self):
        pair = validate_spectrum_pair([4, 3, 2, 1], [4, 3, 2, 1])
        assert directional_move_check(pair, "max") == []
        assert directional_move_check(pair, "min") == []

    def test_unsorted_spectra_violations(self):
        # unsorted spectra break the sign claims: every diagonal move reports
        # its denominator change and its ratio change, in this order
        pair = SpectrumPair((2., 5., 4.), (1., 2., 5., 3.))
        expected = {
            "max": [((0, 0), 20.0, "0.08333333333333333 -> 0.0673076923076923"),
                    ((0, 1), 4.0, "0.0625 -> 0.05952380952380952"),
                    ((1, 0), 42.0, "0.08333333333333333 -> 0.06")],
            "min": [((0, 0), -20.0, "0.08333333333333333 -> 0.109375"),
                    ((0, 1), -42.0, "0.08333333333333333 -> 0.2777777777777778"),
                    ((1, 0), -4.0, "0.10227272727272728 -> 0.10714285714285714")],
        }
        words = {"max": ("increased", "dropped"), "min": ("decreased", "rose")}
        for variant, moves in expected.items():
            den_word, ratio_word = words[variant]
            records = []
            for (k1, k2), d_den, ratios in moves:
                for detail in (
                        f"denominator {den_word} on a {variant}-variant diagonal move",
                        f"ratio {ratio_word} on a {variant}-variant diagonal move: "
                        f"{ratios}"):
                    records.append(DirectionalMove(
                        variant=variant, from_point=(k1, k2), to_point=(k1 + 1, k2 + 1),
                        delta_numerator=0.0, delta_denominator=d_den, detail=detail))
            assert directional_move_check(pair, variant) == records

    def test_boundary_grid(self, rng):
        # at k1 + k2 = r the reduced grid is the closed forms' k table:
        # (k, r - k) on the max grid is q-upper's k, on the min grid
        # q-lower's, against test_q_kernel's per-k sums rather than bounds'
        for _ in range(40):
            pair = random_pair(rng)
            tol = 1e-10 * max(1.0, fg_scalars(pair).F)
            for k in range(pair.r + 1):
                for variant, numden in (("max", reference_upper_numden),
                                        ("min", reference_lower_numden)):
                    num_g, den_g = oracle._grid_value(pair, variant, k, pair.r - k)
                    num_c, den_c = numden(pair, k)
                    assert num_g == num_c
                    assert abs(den_g - den_c) <= tol, (variant, k)


class TestKittanehCross:
    def test_lower_one_vs_two(self):
        res = brute_force_kittaneh(validate_eigen_pair([1], [-1, -1]), "lower")
        assert abs(res.coefficient ** 2 - 1 / 5) < 1e-15

    def test_lower_vacuous(self):
        res = brute_force_kittaneh(validate_eigen_pair([1], [1]), "lower")
        assert res.degenerate and res.coefficient == 1.0

    def test_upper_cross(self, rng):
        lam = [complex(2, 0), complex(0, 1)]
        lam_hat = [complex(1, 0), complex(-1, 0)]
        eig = validate_eigen_pair(lam, lam_hat)
        direct = kittaneh_upper_coeff(eig, n=2)
        brute = brute_force_kittaneh(eig, "upper", n=2)
        assert abs(direct.coefficient - brute.coefficient) < 1e-12

    def test_cross_random(self, rng):
        # sizes up to the enumeration cap; odd trials draw tied real values,
        # which give exact ties and 0/0 pairings
        for trial in range(40):
            s = 6 if trial < 2 else int(rng.integers(1, 7))
            r = s if trial < 2 else int(rng.integers(1, s + 1))
            if trial % 2:
                lam = rng.choice([-2.0, -1.0, 1.0, 2.0], r)
                lam_hat = rng.choice([-2.0, -1.0, 1.0, 2.0], s)
            else:
                lam = rng.uniform(0.2, 3, r) * np.exp(2j * np.pi * rng.uniform(size=r))
                lam_hat = rng.uniform(0.2, 3, s) * np.exp(2j * np.pi * rng.uniform(size=s))
            eig = validate_eigen_pair(lam, lam_hat)
            n = eig.s
            for a, b in ((kittaneh_lower_coeff(eig), brute_force_kittaneh(eig, "lower")),
                         (kittaneh_upper_coeff(eig, n=n),
                          brute_force_kittaneh(eig, "upper", n=n))):
                assert abs(a.coefficient - b.coefficient) < 1e-12
                assert a.degenerate == b.degenerate

    def test_budget(self):
        lam = list(range(1, 9))
        eig = validate_eigen_pair(lam, lam)
        with pytest.raises(BudgetExceededError):
            brute_force_kittaneh(eig, "lower", budget=10)


class TestKittanehArrays:
    def test_f_summed_by_the_oracle_is_f_hat(self):
        for eig in wide_eigen_pairs(WIDE_SIZES):
            assert kittaneh_oracle._eigen_sum_of_squares(eig) == eig.F_hat

    @pytest.mark.parametrize("mode", ["lower", "upper"])
    def test_budget_before_any_allocation(self, monkeypatch, mode):
        def refuse(*args):
            raise AssertionError("injections bounded")
        monkeypatch.setattr(kittaneh_oracle, "_kittaneh_intervals", refuse)
        eig = validate_eigen_pair(list(range(1, 8)), list(range(1, 8)))
        with pytest.raises(BudgetExceededError) as exc:
            brute_force_kittaneh(eig, mode, n=7, budget=100)
        assert exc.value.exact_count == (5040 if mode == "upper" else 130921)

    @pytest.mark.parametrize("block_points", [4096, kittaneh_oracle._BLOCK_POINTS, 7])
    @pytest.mark.parametrize("r,s", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 4)])
    def test_intervals_hold_each_value(self, monkeypatch, r, s, block_points):
        # every injection once, in order; a closed interval holds the value
        # the exact evaluation gives, which is never 0/0. Blocks of 4,096
        # and of _BLOCK_POINTS entries hold each level here whole. Blocks
        # of 7 entries span column subsets while the arrangements fit in
        # one, and stream each subset's arrangements once they do not (at
        # (3, 4), k = 2 and 3)
        monkeypatch.setattr(kittaneh_oracle, "_BLOCK_POINTS", block_points)
        for eig in wide_eigen_pairs([(r, s)]):
            F = kittaneh_oracle._eigen_sum_of_squares(eig)
            tol = 1e-12 * max(1.0, F)
            injections = ((rows, cols) for k in range(1, r + 1)
                          for cols in itertools.combinations(range(r), k)
                          for rows in itertools.permutations(range(s), k))
            blocks = kittaneh_oracle._kittaneh_intervals(eig, F, range(1, r + 1))
            for rows, cols, lo, hi, is_open in blocks:
                for t in range(len(rows)):
                    i, j = next(injections)
                    assert (i, j) == (tuple(rows[t]), tuple(cols[t]))
                    num = F - 2.0 * math.fsum(abs(eig.lam_hat[a]) * abs(eig.lam[b])
                                              for a, b in zip(i, j))
                    den = F - 2.0 * math.fsum((eig.lam_hat[a] * eig.lam[b].conjugate()).real
                                              for a, b in zip(i, j))
                    if not is_open[t]:
                        assert not (abs(num) < tol and abs(den) < tol)
                        assert lo[t] <= num / den <= hi[t]
            assert next(injections, None) is None

    @pytest.mark.parametrize("family", WIDE_FAMILIES)
    def test_matches_scalar_reference(self, family):
        for eig in wide_eigen_pairs(WIDE_SIZES, (family,)):
            for mode in ("lower", "upper"):
                assert (repr(brute_force_kittaneh(eig, mode, n=eig.s))
                        == repr(scalar_kittaneh(eig, mode, n=eig.s)))

    def test_small_blocks_match_scalar_reference(self, monkeypatch):
        monkeypatch.setattr(kittaneh_oracle, "_BLOCK_POINTS", 7)
        for eig in wide_eigen_pairs([(2, 5), (4, 4), (4, 6)], ("tied-real", "identical",
                                                              "generic-1e100")):
            for mode in ("lower", "upper"):
                assert (repr(brute_force_kittaneh(eig, mode, n=eig.s))
                        == repr(scalar_kittaneh(eig, mode, n=eig.s)))

    @pytest.mark.parametrize("seed", [14, 21, 29])
    def test_ties_the_array_sums_round_apart(self, seed):
        # tied values whose products are inexact: the array sums of tied
        # injections round apart, and without the slack a later tie wins
        rng = np.random.default_rng(seed)
        values = np.array([-2.0, -1.0, 1.0, 2.0]) / 3 * 1.1
        eig = validate_eigen_pair(rng.choice(values, 5) * 1j ** rng.integers(0, 4, 5),
                                  rng.choice(values, 6) * 1j ** rng.integers(0, 4, 6))
        for mode in ("lower", "upper"):
            assert (repr(brute_force_kittaneh(eig, mode, n=6))
                    == repr(scalar_kittaneh(eig, mode, n=6)))

    @pytest.mark.parametrize("delta", [1e-6, 5e-7])
    def test_near_zero_over_zero_box(self, delta):
        # matching each value with its shifted copy gives num and den below
        # tol, so the exact evaluation skips it as 0/0, but its bounded
        # value is far below the true minimum: only an open interval keeps
        # that minimum
        eig = validate_eigen_pair([3, 2j, -1], [3 + 1j * delta, 2j - delta, -1 + 1j * delta])
        for mode in ("lower", "upper"):
            assert (repr(brute_force_kittaneh(eig, mode, n=3))
                    == repr(scalar_kittaneh(eig, mode, n=3)))

    def test_ties_past_the_closed_forms_cap(self):
        # tied real values at (7, 7): many injections share the optimum
        rng = np.random.default_rng(77)
        eig = validate_eigen_pair(rng.choice([-2.0, -1.0, 1.0, 2.0], 7),
                                  rng.choice([-2.0, -1.0, 1.0, 2.0], 7))
        for mode in ("lower", "upper"):
            assert (repr(brute_force_kittaneh(eig, mode, n=7))
                    == repr(scalar_kittaneh(eig, mode, n=7)))
