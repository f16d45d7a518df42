"""End-to-end acceptance gate.

Each test covers one headline guarantee of the library and enforces its
stated tolerance and runtime budget. conftest prints one pass/fail verdict
line per criterion in the terminal summary.
"""

import math
import time

import numpy as np
import pytest

from polarbounds import bounds, oracle
from polarbounds.cli import table1_path
from polarbounds.extremal import (
    BOUND_IDS,
    DegenerateSupremumError,
    make_witness,
    verify_witness,
)
from polarbounds.fileio import parse_spectra_text
from polarbounds.montecarlo import EnsembleConfig, run_verification_suite
from polarbounds.spectra import validate_eigen_pair, validate_spectrum_pair

GOLDEN_F_TABLES = {
    "row1": ([0.0871, 0.0711, 0.0500, 0.0335], 0),
    "row2": ([0.0125, 0.0463, 0.0424, 0.0366], 1),
    "row3": ([0.0144, 0.0381, 0.0391, 0.0287], 2),
    "row4": ([0.0087, 0.0342, 0.0436, 0.0450], 3),
}


class _Gate:
    """Context manager enforcing the criterion's runtime budget."""

    def __init__(self, name: str, limit: float):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None and elapsed >= self.limit:
            pytest.fail(f"{self.name}: runtime {elapsed:.2f}s over "
                        f"the {self.limit}s budget")
        return False


def test_criterion_1_golden_table():
    with _Gate("1 golden-table", 1.0):
        with open(table1_path()) as fh:
            records = parse_spectra_text(fh.read())
        assert {r.id for r in records} == set(GOLDEN_F_TABLES)
        for rec in records:
            pair = validate_spectrum_pair(rec.sigma, rec.sigma_tilde)
            result, table = bounds.q_upper_coeff(pair)
            want_fk, want_k = GOLDEN_F_TABLES[rec.id]
            assert result.optimal_index == want_k
            for k, want in enumerate(want_fk):
                assert abs(table.values[k] - want) <= 5e-5, (rec.id, k)


def test_criterion_2_oracle_equivalence():
    with _Gate("2 oracle-equivalence", 30.0):
        rng = np.random.default_rng(101)
        for trial in range(200):
            r = int(rng.integers(1, 4))
            s = r if trial % 3 == 0 else int(rng.integers(r, 5))
            sig = np.sort(rng.uniform(0.1, 10, r))[::-1]
            sigt = np.sort(rng.uniform(0.1, 10, s))[::-1]
            pair = validate_spectrum_pair(sig, sigt)
            ev_max, ev_min = oracle.brute_force_f_extrema(pair)
            cu = bounds.q_upper_coeff(pair)[0].coefficient ** 2
            cl = bounds.q_lower_coeff(pair)[0].coefficient ** 2
            assert abs(ev_max.value - cu) <= 1e-10 * max(1.0, cu)
            assert abs(ev_min.value - cl) <= 1e-10 * max(1.0, cl)
            assert ev_max.point.k == pair.r
            assert ev_min.point.k == pair.r


def test_criterion_3_witness_attainment():
    with _Gate("3 witness-attainment", 60.0):
        rng = np.random.default_rng(202)
        for trial in range(100):
            if trial % 2 == 0:
                r = int(rng.integers(1, 4))
                s = int(rng.integers(r + 1, 6))
            else:
                r = s = int(rng.integers(1, 4))
            # disjoint value ranges keep r=s spectra distinct (h-max defined)
            sig = np.sort(rng.uniform(4, 9, r))[::-1]
            sigt = np.sort(rng.uniform(0.5, 2, s))[::-1]
            pair = validate_spectrum_pair(sig, sigt)
            for bound_id in BOUND_IDS:
                w = make_witness(pair, bound_id)
                d = verify_witness(w)
                target = w.target_coefficient
                if target == 0.0:
                    assert abs(d.achieved_ratio) <= 1e-8
                else:
                    assert abs(d.achieved_ratio - target) <= 1e-8 * abs(target)
        with pytest.raises(DegenerateSupremumError):
            make_witness(validate_spectrum_pair([2, 1], [2, 1]), "h-max")


def test_criterion_4_monte_carlo():
    with _Gate("4 monte-carlo", 300.0):
        config = EnsembleConfig(m=7, n=7, trials=10_000, seed=20240824,
                                field="complex", max_rank=7)
        report = run_verification_suite(config)
        assert report.trials == 10_000
        assert report.violations == [], report.violations[:5]
        assert "angle" in report.max_ratio_to_bound
        assert "kittaneh-normal-lower" in report.max_ratio_to_bound


def test_criterion_5_refinement_strictness():
    with _Gate("5 refinement-strictness", 30.0):
        rng = np.random.default_rng(303)
        sqrt2 = math.sqrt(2.0)
        lee_const = math.sqrt((1 + sqrt2) / 2)
        for trial in range(1000):
            if trial % 2 == 0:
                r = int(rng.integers(1, 4))
                s = int(rng.integers(r + 1, 6))
                sig = np.sort(rng.uniform(0.1, 10, r))[::-1]
                sigt = np.sort(rng.uniform(0.1, 10, s))[::-1]
            else:
                # r >= 2 with independent per-entry factors keeps the spectra
                # non-proportional (proportional spectra legitimately give
                # the classical constants back)
                r = s = int(rng.integers(2, 4))
                sig = np.sort(rng.uniform(0.1, 10, r))[::-1]
                sigt = np.sort(sig * rng.uniform(1.05, 1.5, r))[::-1]
            pair = validate_spectrum_pair(sig, sigt)
            assert bounds.h_upper_coeff(pair).coefficient < sqrt2 - 1e-9
            assert bounds.lee_upper_coeff(pair).coefficient < lee_const - 1e-9
            assert bounds.amgm_coeff(pair).coefficient < 0.5 - 1e-9
            assert bounds.cauchy_schwarz_coeff(pair).coefficient < 1.0 - 1e-9
            if pair.r == pair.s:
                assert bounds.q_upper_coeff(pair)[0].coefficient \
                    <= bounds.li_sun_coeff(pair).coefficient + 1e-12


def test_criterion_6_kittaneh_exactness():
    with _Gate("6 kittaneh-exactness", 30.0):
        eig = validate_eigen_pair([1], [-1, -1])
        lo = bounds.kittaneh_lower_coeff(eig).coefficient
        up = bounds.kittaneh_upper_coeff(eig, n=2).coefficient
        want = math.sqrt(1 / 5)
        assert abs(lo - want) <= 1e-12
        assert abs(up - want) <= 1e-12

        a = np.diag([1.0, 0.0])
        b = -np.eye(2)
        abs_a = np.abs(a)
        abs_b = np.abs(b)
        ratio = (np.linalg.norm(abs_a - abs_b, "fro")
                 / np.linalg.norm(a - b, "fro"))
        assert abs(ratio - 1 / math.sqrt(5)) <= 1e-12

        rng = np.random.default_rng(404)
        for _ in range(100):
            r = int(rng.integers(1, 4))
            s = int(rng.integers(r, 4))
            lam = rng.uniform(0.2, 3, r) * np.exp(2j * np.pi * rng.uniform(size=r))
            lam_hat = rng.uniform(0.2, 3, s) * np.exp(2j * np.pi * rng.uniform(size=s))
            e = validate_eigen_pair(lam, lam_hat)
            a_lo = bounds.kittaneh_lower_coeff(e).coefficient
            b_lo = oracle.brute_force_kittaneh(e, "lower").coefficient
            assert abs(a_lo - b_lo) <= 1e-12
            a_up = bounds.kittaneh_upper_coeff(e, n=e.s).coefficient
            b_up = oracle.brute_force_kittaneh(e, "upper", n=e.s).coefficient
            assert abs(a_up - b_up) <= 1e-12


def test_criterion_7_classical_constant_recovery():
    with _Gate("7 classical-recovery", 5.0):
        rng = np.random.default_rng(505)
        sqrt2 = math.sqrt(2.0)
        lee_const = math.sqrt((1 + sqrt2) / 2)
        for _ in range(50):
            r = int(rng.integers(1, 5))
            sig = np.sort(rng.uniform(0.1, 10, r))[::-1]
            pair = validate_spectrum_pair(sig, sig)
            assert abs(bounds.h_upper_coeff(pair).coefficient - sqrt2) <= 1e-12
            assert abs(bounds.lee_upper_coeff(pair).coefficient
                       - lee_const) <= 1e-12
