import itertools

import numpy as np
import pytest

from polarbounds.bounds import (
    kittaneh_lower_coeff,
    kittaneh_upper_coeff,
    q_lower_coeff,
    q_upper_coeff,
)
from polarbounds.oracle import (
    BudgetExceededError,
    DirectionalMove,
    SignedSubPermutation,
    boundary_grid_check,
    brute_force_f_extrema,
    brute_force_kittaneh,
    directional_move_check,
    enumerate_extreme_points,
    evaluate_f,
    extreme_point_count,
)
from polarbounds.spectra import (
    SpectrumPair,
    fg_scalars,
    validate_eigen_pair,
    validate_spectrum_pair,
)

from conftest import random_pair


class TestEnumeration:
    def test_count_1x1(self):
        pts = list(enumerate_extreme_points(1, 1))
        assert len(pts) == 3
        dense = sorted(tuple(p.dense().ravel()) for p in pts)
        assert dense == [(-1.0,), (0.0,), (1.0,)]

    def test_count_1x2(self):
        assert len(list(enumerate_extreme_points(1, 2))) == 5

    def test_count_2x2(self):
        assert len(list(enumerate_extreme_points(2, 2))) == 17

    @pytest.mark.parametrize("r,s", [(r, s) for s in range(1, 6)
                                     for r in range(1, s + 1)])
    def test_count_matches_closed_form(self, r, s):
        pts = list(enumerate_extreme_points(r, s))
        assert len(pts) == extreme_point_count(r, s)
        # exactly once: supports are hashable and distinct
        assert len({p.support for p in pts}) == len(pts)

    def test_membership(self):
        for p in enumerate_extreme_points(3, 4):
            x = p.dense()
            assert np.all(np.abs(x).sum(axis=0) <= 1)
            assert np.all(np.abs(x).sum(axis=1) <= 1)
            assert p.k <= 3

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as exc:
            list(enumerate_extreme_points(6, 6, budget=100))
        assert exc.value.exact_count == extreme_point_count(6, 6)

    def test_deterministic_order(self):
        a = [p.support for p in enumerate_extreme_points(2, 3)]
        b = [p.support for p in enumerate_extreme_points(2, 3)]
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


class TestOracleEquivalence:
    def test_equivalence_random(self, rng):
        for _ in range(60):
            pair = random_pair(rng, r_max=3, s_max=4)
            mx, mn = brute_force_f_extrema(pair)
            cu = q_upper_coeff(pair)[0].coefficient
            cl = q_lower_coeff(pair)[0].coefficient
            assert abs(mx.value - cu * cu) <= 1e-10 * max(1.0, cu * cu)
            assert abs(mn.value - cl * cl) <= 1e-10 * max(1.0, cl * cl)

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
        for _ in range(40):
            assert boundary_grid_check(random_pair(rng))


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
