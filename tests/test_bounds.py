import ast
import math
import os
from decimal import Decimal, localcontext
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polarbounds
from polarbounds.bounds import (
    EnumerationCapError,
    LEE_CLASSICAL,
    RankMismatchError,
    SQRT2,
    amgm_coeff,
    cauchy_schwarz_coeff,
    h_lower_coeff,
    h_upper_coeff,
    kittaneh_lower_coeff,
    kittaneh_upper_coeff,
    lee_lower_coeff,
    lee_upper_coeff,
    li_sun_coeff,
    q_lower_coeff,
    q_upper_coeff,
    refined_li_sun_coeff,
)
from polarbounds.spectra import NumericalRangeError, validate_eigen_pair, validate_spectrum_pair

from conftest import random_pair

TABLE1_ROWS = [
    ([8.7559, 6.1282, 5.0602], [7.3693, 5.7829, 3.2958, 2.5156],
     [0.0871, 0.0711, 0.0500, 0.0335], 0),
    ([4.3814, 4.0178, 1.5170], [9.5423, 8.6941, 6.1336, 3.1648],
     [0.0125, 0.0463, 0.0424, 0.0366], 1),
    ([7.6090, 3.3643, 2.5097], [8.4940, 7.8752, 7.5506, 4.7848],
     [0.0144, 0.0381, 0.0391, 0.0287], 2),
    ([2.5242, 2.4113, 1.4701], [9.7298, 7.0899, 6.1945, 4.3453],
     [0.0087, 0.0342, 0.0436, 0.0450], 3),
]


def pair_of(sig, sigt):
    return validate_spectrum_pair(sig, sigt)


spectrum = st.lists(st.floats(min_value=1e-2, max_value=1e2), min_size=1, max_size=5) \
    .map(lambda xs: sorted(xs, reverse=True))


class TestLiSun:
    def test_scalar(self):
        assert li_sun_coeff(pair_of([2, 1], [5, 3])).coefficient == 0.5

    def test_identical_rank_one(self):
        assert li_sun_coeff(pair_of([1], [1])).coefficient == 1.0

    def test_truncated_golden_row(self):
        p = pair_of([8.7559, 6.1282, 5.0602], [7.3693, 5.7829, 3.2958])
        expect = 2.0 / (5.0602 + 3.2958)
        assert abs(li_sun_coeff(p).coefficient - expect) < 1e-15
        assert abs(expect - 0.23936) < 5e-5

    def test_requires_equal_ranks(self):
        with pytest.raises(RankMismatchError):
            li_sun_coeff(pair_of([1], [1, 1]))


class TestQUpper:
    @pytest.mark.parametrize("sig,sigt,fk,kstar", TABLE1_ROWS)
    def test_golden_rows(self, sig, sigt, fk, kstar):
        res, table = q_upper_coeff(pair_of(sig, sigt))
        assert res.optimal_index == kstar
        for k, want in enumerate(fk):
            assert abs(table.values[k] - want) < 5e-5
        assert abs(res.coefficient ** 2 - fk[kstar]) < 5e-5

    def test_rank_one_identical(self):
        res, table = q_upper_coeff(pair_of([1], [1]))
        assert table.values[0] is None  # 0/0 entry skipped
        assert table.values[1] == 1.0
        assert res.coefficient == 1.0 and res.optimal_index == 1

    def test_at_most_li_sun_when_equal_ranks(self, rng):
        for _ in range(50):
            p = random_pair(rng, equal_ranks=True)
            q = q_upper_coeff(p)[0].coefficient
            assert q <= li_sun_coeff(p).coefficient + 1e-12


class TestQLower:
    def test_rank_one_identical(self):
        res, table = q_lower_coeff(pair_of([1], [1]))
        assert table.values[0] is None
        assert res.coefficient == 1.0

    def test_two_and_one(self):
        res, table = q_lower_coeff(pair_of([2], [1]))
        assert table.values[0] == 0.0
        assert abs(table.values[1] - 4 / 9) < 1e-15
        assert res.coefficient == 0.0 and res.optimal_index == 0

    def test_rank_mismatch_hand_values(self):
        res, table = q_lower_coeff(pair_of([1], [1, 1]))
        assert table.values[0] == 1.0
        assert abs(table.values[1] - 1.0) < 1e-15
        assert res.coefficient == 1.0 and res.optimal_index == 0

    def test_never_exceeds_upper(self, rng):
        for _ in range(50):
            p = random_pair(rng)
            lo = q_lower_coeff(p)[0].coefficient
            hi = q_upper_coeff(p)[0].coefficient
            assert lo <= hi + 1e-12


class TestRefinedLiSun:
    def test_two_one_identical(self):
        res, table = refined_li_sun_coeff(pair_of([2, 1], [2, 1]))
        assert table.values[1] == 1.0
        assert abs(table.values[2] - 4 / 9) < 1e-15
        assert res.coefficient == 1.0 and res.optimal_index == 1

    def test_rank_one(self):
        assert refined_li_sun_coeff(pair_of([1], [1]))[0].coefficient == 1.0

    def test_three_one(self):
        res, table = refined_li_sun_coeff(pair_of([3, 1], [3, 1]))
        assert table.values[1] == 1.0
        assert abs(table.values[2] - 8 / 32) < 1e-15
        assert res.coefficient == 1.0

    def test_requires_equal_ranks(self):
        with pytest.raises(RankMismatchError):
            refined_li_sun_coeff(pair_of([1], [1, 1]))

    def test_refines_classical(self, rng):
        for _ in range(50):
            p = random_pair(rng, equal_ranks=True)
            assert refined_li_sun_coeff(p)[0].coefficient \
                <= li_sun_coeff(p).coefficient + 1e-12


class TestHBounds:
    def test_upper_equal_spectra(self):
        c = h_upper_coeff(pair_of([2, 1], [2, 1])).coefficient
        assert abs(c - SQRT2) < 1e-12

    def test_upper_unequal_ranks(self):
        c = h_upper_coeff(pair_of([1], [1, 1])).coefficient
        assert abs(c - math.sqrt(3 - math.sqrt(3))) < 1e-12

    def test_upper_decreases_with_scale_split(self):
        base = h_upper_coeff(pair_of([1], [1, 1])).coefficient
        far = h_upper_coeff(pair_of([1], [1e6, 1e6])).coefficient
        assert far < base

    def test_lower_equal_spectra(self):
        assert h_lower_coeff(pair_of([2, 1], [2, 1])).coefficient == 0.0

    def test_lower_unequal_ranks(self):
        c = h_lower_coeff(pair_of([1], [1, 1])).coefficient
        assert abs(c - math.sqrt(1 / 5)) < 1e-15

    def test_lower_two_one(self):
        c = h_lower_coeff(pair_of([2], [1])).coefficient
        assert abs(c - 1 / 3) < 1e-15


class TestLeeBounds:
    def test_upper_classical_at_equal_rank_one(self):
        c = lee_upper_coeff(pair_of([1], [1])).coefficient
        assert abs(c * c - (1 + SQRT2) / 2) < 1e-12
        assert abs(c - LEE_CLASSICAL) < 1e-12

    def test_upper_unequal_ranks(self):
        c = lee_upper_coeff(pair_of([1], [1, 1])).coefficient
        assert abs(c * c - 1 / (math.sqrt(15) - 3)) < 1e-12

    def test_upper_increasing_in_overlap(self):
        # larger G at fixed F pushes the constant up
        lo = lee_upper_coeff(pair_of([3], [1, 1])).coefficient
        hi = lee_upper_coeff(pair_of([2], [2, 1, 1, 1])).coefficient
        assert lo < hi < LEE_CLASSICAL + 1e-12

    def test_lower_matches_h_lower(self, rng):
        assert lee_lower_coeff(pair_of([1], [1])).coefficient == 0.0
        assert abs(lee_lower_coeff(pair_of([1], [1, 1])).coefficient
                   - math.sqrt(1 / 5)) < 1e-15
        for _ in range(100):
            p = random_pair(rng)
            assert lee_lower_coeff(p).coefficient == h_lower_coeff(p).coefficient


class TestAmGm:
    def test_classical(self):
        assert amgm_coeff(pair_of([1], [1])).coefficient == 0.5

    def test_unequal_ranks(self):
        c = amgm_coeff(pair_of([1], [1, 1])).coefficient
        assert abs(c - math.sqrt(1 / 5)) < 1e-15

    def test_two_one(self):
        assert abs(amgm_coeff(pair_of([2], [1])).coefficient - 2 / 5) < 1e-15


class TestCauchySchwarz:
    def test_identical(self):
        c = cauchy_schwarz_coeff(pair_of([3, 1], [3, 1])).coefficient
        assert abs(c - 1.0) < 1e-12

    def test_unequal_ranks(self):
        c = cauchy_schwarz_coeff(pair_of([1], [1, 1])).coefficient
        assert abs(c - 1 / SQRT2) < 1e-15

    def test_hand_value(self):
        c = cauchy_schwarz_coeff(pair_of([2, 1], [1, 1, 1])).coefficient
        assert abs(c - 3 / (math.sqrt(5) * math.sqrt(3))) < 1e-15


def _aligned_diagonal_pair(p):
    """A = diag(sigma) padded to s x s and B = diag(sigma~)."""
    return np.diag(np.pad(p.sigma, (0, p.s - p.r))), np.diag(p.sigma_tilde)


# theorem id: (closed form, the ratio its inequality bounds, from numpy norms)
ALIGNED_RATIOS = {
    "amgm": (amgm_coeff, lambda a, b: np.linalg.norm(a @ b.conj().T)
             / np.linalg.norm(a.conj().T @ a + b.conj().T @ b)),
    "cauchy-schwarz": (cauchy_schwarz_coeff, lambda a, b: abs(np.trace(b.conj().T @ a))
                       / (np.linalg.norm(a) * np.linalg.norm(b))),
}


class TestAlignedDiagonalPair:
    """The aligned diagonal pair attains the AM-GM and Cauchy-Schwarz
    constants: each closed form equals that pair's ratio, so a closed form
    off by 1e-6 either way fails."""

    @pytest.mark.parametrize("theorem_id", sorted(ALIGNED_RATIOS))
    def test_closed_form_is_attained(self, rng, theorem_id):
        closed_form, ratio = ALIGNED_RATIOS[theorem_id]
        pairs = [random_pair(rng) for _ in range(200)]
        pairs += [pair_of(sig, sigt) for sig, sigt, _, _ in TABLE1_ROWS]
        for p in pairs:
            attained = ratio(*_aligned_diagonal_pair(p))
            assert abs(closed_form(p).coefficient - attained) <= 1e-12 * attained, p


class TestKittaneh:
    def test_lower_opposite_signs(self):
        res = kittaneh_lower_coeff(validate_eigen_pair([1], [-1]))
        assert res.coefficient == 0.0

    def test_lower_one_vs_two(self):
        res = kittaneh_lower_coeff(validate_eigen_pair([1], [-1, -1]))
        assert abs(res.coefficient - math.sqrt(1 / 5)) < 1e-15
        assert not res.degenerate

    def test_lower_degenerate(self):
        res = kittaneh_lower_coeff(validate_eigen_pair([1], [1]))
        assert res.degenerate and res.coefficient == 1.0

    def test_lower_identical_real_spectra_vacuous(self):
        # every defined pairing yields ratio exactly 1; the full pairing is
        # 0/0 and skipped, so the minimum is the vacuous value 1
        res = kittaneh_lower_coeff(validate_eigen_pair([1, 1], [1, 1]))
        assert res.coefficient == 1.0

    def test_upper_one_vs_two(self):
        res = kittaneh_upper_coeff(validate_eigen_pair([1], [-1, -1]), n=2)
        assert abs(res.coefficient - math.sqrt(1 / 5)) < 1e-12

    def test_upper_matches_direct_matrices(self):
        a = np.diag([1.0, 0.0])
        b = -np.eye(2)
        ratio = (np.linalg.norm(np.abs(a) - np.abs(b), "fro")
                 / np.linalg.norm(a - b, "fro"))
        res = kittaneh_upper_coeff(validate_eigen_pair([1], [-1, -1]), n=2)
        assert abs(ratio - 1 / math.sqrt(5)) < 1e-12
        assert abs(res.coefficient - ratio) < 1e-12

    def test_upper_degenerate(self):
        res = kittaneh_upper_coeff(validate_eigen_pair([1], [1]), n=1)
        assert res.degenerate and res.coefficient == 1.0

    def test_upper_orthogonal_phases(self):
        res = kittaneh_upper_coeff(validate_eigen_pair([1j], [1]), n=1)
        assert res.coefficient == 0.0

    def test_upper_requires_full_rank(self):
        with pytest.raises(RankMismatchError):
            kittaneh_upper_coeff(validate_eigen_pair([1], [1, 1]), n=3)

    def test_cap(self):
        eig = validate_eigen_pair([1] * 7, list(range(1, 8)))
        with pytest.raises(EnumerationCapError) as exc:
            kittaneh_lower_coeff(eig)
        assert exc.value.required_count > 0

    def test_cap_counts_each_bound(self):
        # r = 3, s = n = 7: the lower bound pairs k = 1..3 eigenvalues of each
        # side, C(7,k) C(3,k) k!, the upper bound arranges 3 of 7, 7!/4!
        eig = validate_eigen_pair([1, 2, 3], list(range(1, 8)))
        with pytest.raises(EnumerationCapError) as lower:
            kittaneh_lower_coeff(eig)
        with pytest.raises(EnumerationCapError) as upper:
            kittaneh_upper_coeff(eig, n=7)
        assert lower.value.required_count == 7 * 3 + 21 * 3 * 2 + 35 * 6 == 357
        assert upper.value.required_count == 7 * 6 * 5 == 210


class TestChains:
    def test_ordering_and_refinement(self, rng):
        for _ in range(100):
            p = random_pair(rng)
            assert q_lower_coeff(p)[0].coefficient \
                <= q_upper_coeff(p)[0].coefficient + 1e-12
            assert h_lower_coeff(p).coefficient \
                <= h_upper_coeff(p).coefficient + 1e-12
            assert lee_lower_coeff(p).coefficient \
                <= lee_upper_coeff(p).coefficient + 1e-12
            assert h_upper_coeff(p).coefficient <= SQRT2 + 1e-12
            assert lee_upper_coeff(p).coefficient <= LEE_CLASSICAL + 1e-12
            assert amgm_coeff(p).coefficient <= 0.5 + 1e-12
            assert cauchy_schwarz_coeff(p).coefficient <= 1.0 + 1e-12

    def test_strictness_when_spectra_differ(self, rng):
        for _ in range(100):
            p = random_pair(rng, equal_ranks=False, r_max=3, s_max=4)
            assert h_upper_coeff(p).coefficient < SQRT2 - 1e-12 * SQRT2
            assert lee_upper_coeff(p).coefficient < LEE_CLASSICAL - 1e-12
            assert amgm_coeff(p).coefficient < 0.5 - 1e-13
            assert cauchy_schwarz_coeff(p).coefficient < 1.0 - 1e-12

    @pytest.mark.parametrize("lam", [0.5, 3.0])
    def test_scale_equivariance(self, rng, lam):
        for _ in range(20):
            p = random_pair(rng)
            q = validate_spectrum_pair([lam * x for x in p.sigma],
                                       [lam * x for x in p.sigma_tilde])
            assert np.isclose(q_upper_coeff(q)[0].coefficient,
                              q_upper_coeff(p)[0].coefficient / lam, rtol=1e-12)
            assert np.isclose(q_lower_coeff(q)[0].coefficient,
                              q_lower_coeff(p)[0].coefficient / lam, rtol=1e-12)
            for fn in (h_upper_coeff, h_lower_coeff, lee_upper_coeff,
                       lee_lower_coeff, amgm_coeff, cauchy_schwarz_coeff):
                assert np.isclose(fn(q).coefficient, fn(p).coefficient,
                                  rtol=1e-12, atol=1e-15)
        p = random_pair(rng, equal_ranks=True)
        q = validate_spectrum_pair([lam * x for x in p.sigma],
                                   [lam * x for x in p.sigma_tilde])
        assert np.isclose(li_sun_coeff(q).coefficient,
                          li_sun_coeff(p).coefficient / lam, rtol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(spectrum, spectrum)
    def test_hypothesis_chain(self, a, b):
        p = validate_spectrum_pair(a, b)
        assert h_lower_coeff(p).coefficient \
            <= h_upper_coeff(p).coefficient + 1e-12
        assert q_lower_coeff(p)[0].coefficient \
            <= q_upper_coeff(p)[0].coefficient + 1e-10 * (
                1 + q_upper_coeff(p)[0].coefficient)


def _upper_references(sig, sigt):
    """h-upper and lee-upper constants of ((sig,), (sigt,)) to 60 digits,
    from the defining formulas on the exact values of the two floats."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, b = Decimal(sig), Decimal(sigt)
        F, G = a * a + b * b, a * b
        h = ((F - (F * F - 2 * G * F).sqrt()) / G).sqrt()
        lee = (G / ((F * F + 2 * G * F).sqrt() - F)).sqrt()
    return {h_upper_coeff: h, lee_upper_coeff: lee}


class TestSmallOverlap:
    # G << F: the defining formulas subtract nearly equal numbers, and at
    # scale 1e100 they square an F near 1e200; at 1e-160 and 1e200 F itself
    # is subnormal or overflows
    @pytest.mark.parametrize("scale", [1.0, 1e100, 1e-160, 1e200])
    @pytest.mark.parametrize("t", [1e-2, 1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("fn", [h_upper_coeff, lee_upper_coeff],
                             ids=["h-upper", "lee-upper"])
    def test_against_decimal(self, fn, t, scale):
        ref = _upper_references(scale, scale * t)[fn]
        c = fn(pair_of([scale], [scale * t])).coefficient
        assert abs(Decimal(c) - ref) <= Decimal(1e-15) * ref


def _near_identical_references(sig, sigt):
    """h-lower (= lee-lower) and h-upper constants to 60 digits, from the
    defining formulas on the exact values of the floats."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, b = [Decimal(x) for x in sig], [Decimal(x) for x in sigt]
        F = sum(x * x for x in a + b)
        G = sum(x * y for x, y in zip(a, b))
        lower = ((F - 2 * G) / (F + 2 * G)).sqrt()
        upper = ((F - (F * F - 2 * G * F).sqrt()) / G).sqrt()
    return {h_lower_coeff: lower, lee_lower_coeff: lower, h_upper_coeff: upper}


class TestNearIdentical:
    # sigma ~ sigma_tilde: F - 2G cancels almost every digit unless it is
    # summed as the squared differences
    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-12])
    @pytest.mark.parametrize("fn", [h_lower_coeff, lee_lower_coeff, h_upper_coeff],
                             ids=["h-lower", "lee-lower", "h-upper"])
    def test_against_decimal(self, fn, eps):
        sig, sigt = [3 * (1 + eps), 2.0], [3.0, 2.0]
        ref = _near_identical_references(sig, sigt)[fn]
        c = fn(pair_of(sig, sigt)).coefficient
        assert abs(Decimal(c) - ref) <= Decimal(1e-15) * ref


DEGREE_0 = [h_upper_coeff, h_lower_coeff, lee_upper_coeff, lee_lower_coeff,
            amgm_coeff, cauchy_schwarz_coeff]
DEGREE_0_IDS = ["h-upper", "h-lower", "lee-upper", "lee-lower", "amgm", "cauchy-schwarz"]


def _scaled_spectrum(draws, k):
    """Values m * 2**j, sorted decreasing, each times 4**k (exact)."""
    return sorted((math.ldexp(m, j + 2 * k) for m, j in draws), reverse=True)


scalable_spectrum = st.lists(st.tuples(st.floats(min_value=1.0, max_value=4.0, exclude_max=True),
                                       st.integers(min_value=-20, max_value=20)),
                             min_size=1, max_size=5)


class TestAnyScale:
    # the degree-0 constants read sums formed at unit scale: no square or
    # fourth power overflows, and none loses digits where F, G or D would be
    # subnormal at the input's own scale
    @pytest.mark.parametrize("t", [1e-300, 1e-160, 1e-150, 1e-80, 1e80, 1e200, 1e300])
    @pytest.mark.parametrize("fn", DEGREE_0, ids=DEGREE_0_IDS)
    def test_scale_invariant(self, fn, t):
        ref = fn(pair_of([3.0, 2.0], [1.5, 1.0, 0.5])).coefficient
        c = fn(pair_of([3 * t, 2 * t], [1.5 * t, 1.0 * t, 0.5 * t])).coefficient
        assert abs(c - ref) <= 1e-15 * ref

    @settings(max_examples=300, deadline=None)
    @given(scalable_spectrum, scalable_spectrum, st.integers(min_value=-490, max_value=490))
    def test_same_bits_at_every_power_of_four(self, a, b, k):
        # 4**k leaves the unit copy unchanged (an odd power of two picks the
        # other copy, and x ** 4 is not correctly rounded)
        p = pair_of(_scaled_spectrum(a, 0), _scaled_spectrum(b, 0))
        q = pair_of(_scaled_spectrum(a, k), _scaled_spectrum(b, k))
        for fn in DEGREE_0:
            assert fn(q).coefficient == fn(p).coefficient, fn.__name__


class TestRangeErrors:
    def test_typed_error_under_optimize(self):
        # the k = 1 ratio 4 / (sigma + sigma~)**2 overflows to inf, and
        # `python -O` strips asserts: the range check must still raise
        code = ("from polarbounds.bounds import q_upper_coeff\n"
                "from polarbounds.spectra import NumericalRangeError, validate_spectrum_pair\n"
                "try:\n"
                "    c = q_upper_coeff(validate_spectrum_pair([1e-160], [1e-161]))[0].coefficient\n"
                "except NumericalRangeError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(f'returned {c!r}')\n")
        src = str(Path(polarbounds.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("e", [-170, -164, 155, 200])
    @pytest.mark.parametrize("fn, sig, sigt", [
        (q_upper_coeff, *TABLE1_ROWS[0][:2]),
        (q_lower_coeff, *TABLE1_ROWS[1][:2]),
        (refined_li_sun_coeff, [3.0, 2.0], [1.5, 1.0])],
        ids=["q-upper", "q-lower", "refined-li-sun"])
    def test_degree_minus_one_typed_error(self, fn, sig, sigt, e):
        # a denominator underflows to 0 (ZeroDivisionError) or a squared term
        # overflows (OverflowError) at these scales
        t = 10.0 ** e
        with pytest.raises(NumericalRangeError):
            fn(pair_of([x * t for x in sig], [y * t for y in sigt]))

    def test_li_sun_typed_error(self):
        # 2 / (sigma_r + sigma~_s) exceeds the largest double
        with pytest.raises(NumericalRangeError, match="li-sun"):
            li_sun_coeff(pair_of([1e-309], [1e-309]))

    def test_no_assert_in_library(self):
        # `python -O` strips assert statements, so no check may rely on one
        package = Path(polarbounds.__file__).resolve().parent
        found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert found == []

    def test_closed_forms_and_oracles_import_apart(self):
        # a closed form and its oracle share no code, so one bug cannot pass
        # both; oracle.py reads only the q numerators and denominators, whose
        # sign claims directional_move_check tests
        package = Path(polarbounds.__file__).resolve().parent
        imports = {}
        for path in sorted(package.glob("*.py")):
            found = imports[path.stem] = {}
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level:
                    for alias in node.names:
                        module = node.module or alias.name
                        found.setdefault(module, set()).add(alias.name)
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.startswith("polarbounds."):
                            found.setdefault(alias.name.split(".")[1], set()).add("*")
        assert not {"oracle", "kittaneh_oracle", "enumeration"} & set(imports["bounds"])
        assert not {"bounds", "oracle"} & set(imports["kittaneh_oracle"])
        assert imports["oracle"]["bounds"] == {"q_lower_numden", "q_upper_numden"}

    def test_spectrum_sums_have_one_owner(self):
        # the degree-0 constants read the sums SpectrumPair.unit_sums forms
        # once, at unit scale; none rescales or sums the spectra itself
        tree = ast.parse(Path(polarbounds.bounds.__file__).read_text())
        functions = {node.name: node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)}
        assert "_unit_scaled" not in functions
        summing = [name for name in ("h_upper_coeff", "_fg_lower", "lee_upper_coeff",
                                     "amgm_coeff", "cauchy_schwarz_coeff")
                   for node in ast.walk(functions[name]) if isinstance(node, ast.Call)
                   and "fsum" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]
        assert summing == []

    def test_no_unused_import_in_library(self):
        # a name a module imports and never uses is left over from deleted code
        package = Path(polarbounds.__file__).resolve().parent
        found = []
        for path in sorted(package.glob("*.py")):
            if path.name == "__init__.py":    # imports there are the public API
                continue
            tree = ast.parse(path.read_text())
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                              if (alias.asname or alias.name).split(".")[0] not in used]
        assert found == []
