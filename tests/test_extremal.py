import dataclasses
import math

import numpy as np
import pytest

from polarbounds import extremal
from polarbounds.cli import table1_path
from polarbounds.extremal import (
    BOUND_IDS,
    RATIO_RTOL,
    DegenerateSupremumError,
    WitnessVerificationError,
    couple_scalars,
    make_witness,
    verify_witness,
)
from polarbounds.fileio import parse_spectra_text
from polarbounds.linalg import haar_random_unitary
from polarbounds.spectra import fg_scalars, validate_spectrum_pair

from conftest import random_pair


def pair_of(sig, sigt):
    return validate_spectrum_pair(sig, sigt)


# singular values sixteen decades apart; F - 2G rounds to 0 on this pair
HARD_PAIR = ([1e8, 1e-8], [1e8, 1, 1e-8])


class TestQWitness:
    def test_scalar_max(self):
        w = make_witness(pair_of([1], [1]), "q-upper")
        assert abs(w.diagnostics.achieved_ratio - 1.0) < 1e-12
        assert abs(w.diagnostics.M - (-1.0)) < 1e-12
        assert abs(w.diagnostics.E_norm ** 2 - 4.0) < 1e-12

    def test_golden_row_max(self):
        p = pair_of([8.7559, 6.1282, 5.0602], [7.3693, 5.7829, 3.2958, 2.5156])
        w = make_witness(p, "q-upper")
        assert abs(w.diagnostics.achieved_ratio ** 2 - 0.0871) < 5e-5

    def test_min_ratio_zero(self):
        w = make_witness(pair_of([2], [1]), "q-lower")
        assert abs(w.diagnostics.achieved_ratio) < 1e-10
        assert abs(w.target_coefficient) < 1e-15

    def test_random_attainment(self, rng):
        for _ in range(15):
            p = random_pair(rng)
            for bound_id in ("q-upper", "q-lower"):
                w = make_witness(p, bound_id)
                d = verify_witness(w)
                rel = abs(d.achieved_ratio - w.target_coefficient) \
                    / max(w.target_coefficient, 1e-12)
                assert rel < 1e-7 or abs(d.achieved_ratio) < 1e-7


class TestHWitness:
    def test_max_rank_gap(self):
        w = make_witness(pair_of([1], [1, 1]), "h-upper")
        assert abs(w.diagnostics.achieved_ratio ** 2 - (3 - math.sqrt(3))) < 1e-10

    def test_min_scalar(self):
        w = make_witness(pair_of([2], [1]), "h-lower")
        assert abs(w.diagnostics.achieved_ratio - 1 / 3) < 1e-12

    def test_max_degenerate(self):
        with pytest.raises(DegenerateSupremumError):
            make_witness(pair_of([1], [1]), "h-upper")
        with pytest.raises(DegenerateSupremumError):
            make_witness(pair_of([2, 1], [2, 1]), "h-upper")
        # distinct spectra, but the shrink factor 1 / (1 + sqrt(D / F)) rounds to 1
        with pytest.raises(DegenerateSupremumError):
            make_witness(pair_of([1], [1, 1e-20]), "h-upper")

    def test_min_N_equals_G(self, rng):
        for _ in range(10):
            p = random_pair(rng)
            w = make_witness(p, "h-lower")
            assert abs(w.diagnostics.N - fg_scalars(p).G) < 1e-12 * fg_scalars(p).F


class TestLeeWitness:
    def test_max_classical(self):
        w = make_witness(pair_of([1], [1]), "lee-upper")
        assert abs(w.diagnostics.achieved_ratio ** 2 - (1 + math.sqrt(2)) / 2) < 1e-10

    def test_max_rank_gap(self):
        w = make_witness(pair_of([1], [1, 1]), "lee-upper")
        # exact value sqrt(1 / (sqrt(15) - 3)) with F = 3, G = 1
        expect = math.sqrt(1 / (math.sqrt(15) - 3))
        assert abs(w.diagnostics.achieved_ratio - expect) < 1e-10
        assert abs(w.target_coefficient - expect) < 1e-12

    def test_min_scalar(self):
        w = make_witness(pair_of([2], [1]), "lee-lower")
        assert abs(w.diagnostics.achieved_ratio - 1 / 3) < 1e-12

    def test_min_N_equals_G(self, rng):
        for _ in range(10):
            p = random_pair(rng)
            w = make_witness(p, "lee-lower")
            assert abs(w.diagnostics.N - fg_scalars(p).G) < 1e-12 * fg_scalars(p).F


class TestDispatchAndVerification:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            make_witness(pair_of([1], [1]), "nope")

    def test_all_six_on_random_pairs(self, rng):
        for _ in range(10):
            # spectra kept apart so h-upper never degenerates
            p = pair_of(np.sort(rng.uniform(5, 9, 2))[::-1],
                        np.sort(rng.uniform(0.5, 2, 3))[::-1])
            for bound_id in BOUND_IDS:
                w = make_witness(p, bound_id)
                d = verify_witness(w)
                denom = max(abs(w.target_coefficient), 1e-12)
                assert abs(d.achieved_ratio - w.target_coefficient) / denom < 1e-7 \
                    or abs(d.achieved_ratio) < 1e-7

    def test_witnesses_are_real(self, rng):
        p = pair_of([3, 1], [2, 1, 0.5])
        for bound_id in BOUND_IDS:
            w = make_witness(p, bound_id)
            assert np.max(np.abs(w.A.imag)) < 1e-14
            assert np.max(np.abs(w.A_tilde.imag)) < 1e-14

    def test_witness_dims_and_ranks(self, rng):
        p = pair_of([3, 1], [2, 1, 0.5])
        w = make_witness(p, "q-upper")
        assert w.A.shape == w.A_tilde.shape == (p.s + p.r,) * 2 == (5, 5)
        assert np.linalg.matrix_rank(w.A, tol=1e-10) == p.r
        assert np.linalg.matrix_rank(w.A_tilde, tol=1e-10) == p.s


    def test_failed_identity_raises_in_build_and_verify(self, monkeypatch):
        p = pair_of([3, 1], [2, 1, 0.5])
        w = make_witness(p, "q-upper")
        with pytest.raises(WitnessVerificationError, match="difference-norm"):
            verify_witness(dataclasses.replace(w, A=1.01 * w.A))
        # make_witness runs the same checks on the pair it builds
        monkeypatch.setattr(extremal, "couple_scalars", lambda pair, S, T: (0.0, 0.0))
        with pytest.raises(WitnessVerificationError, match="difference-norm"):
            make_witness(p, "q-upper")

    @pytest.mark.parametrize("bound_id", BOUND_IDS)
    def test_one_ppm_fault_in_A_fails_an_identity(self, bound_id):
        # 1e-6 is 1e4 times the identities' tolerance; nothing but the
        # identities fails on it, since verify_witness takes no target
        w = make_witness(pair_of([3, 1], [2, 1, 0.5]), bound_id)
        with pytest.raises(WitnessVerificationError, match="-norm: direct"):
            verify_witness(dataclasses.replace(w, A=(1 + 1e-6) * w.A))

    def test_alignment_scalar_past_sqrt_GN_fails(self):
        # 10 S leaves N and the matrices as they are and makes |M| ten times
        # the witness's, above G = 29.2 >= sqrt(G N) on every id
        p = pair_of([8, 6, 5], [1.9, 1.5, 1, 0.7])
        for bound_id in BOUND_IDS:
            w = make_witness(p, bound_id)
            with pytest.raises(WitnessVerificationError, match=r"exceeds sqrt\(G N\)"):
                extremal._diagnose(bound_id, p, w.A, w.A_tilde, 10 * w.S, w.T)


class TestHardSpectra:
    @pytest.mark.parametrize("bound_id", BOUND_IDS)
    def test_attains_constant(self, bound_id):
        w = make_witness(pair_of(*HARD_PAIR), bound_id)
        target = w.target_coefficient
        for achieved in (w.diagnostics.achieved_ratio, verify_witness(w).achieved_ratio):
            assert abs(achieved - target) <= RATIO_RTOL * target

    @pytest.mark.parametrize("bound_id", BOUND_IDS)
    def test_golden_rows_at_every_scale(self, bound_id):
        # the golden rows times 10^e, where F, G, M and N leave the normal
        # range: each witness attains its constant, or the pair is out of
        # range (exit 2) or h-upper's constant is a supremum (exit 3); a built
        # pair never fails its own checks (exit 5)
        with open(table1_path()) as fh:
            records = parse_spectra_text(fh.read())
        for e in range(-175, 175, 5):
            for rec in records:
                p = pair_of([float(f"{v!r}e{e}") for v in rec.sigma],
                            [float(f"{v!r}e{e}") for v in rec.sigma_tilde])
                try:
                    w = make_witness(p, bound_id)
                except (ArithmeticError, DegenerateSupremumError):
                    continue
                target = w.target_coefficient
                achieved = verify_witness(w).achieved_ratio
                assert abs(achieved - target) <= RATIO_RTOL * target, (e, rec.id)


class TestDiagnosticsOnRandomCouples:
    def test_MN_inequalities(self, rng):
        # the alignment scalars obey 0 <= N <= G and |M| <= sqrt(G N) for any
        # unitary couple, not just the constructed ones
        for t in range(30):
            p = random_pair(rng)
            m = p.s + p.r
            S = haar_random_unitary(m, 1000 + t)
            T = haar_random_unitary(m, 2000 + t)
            M, N = couple_scalars(p, S, T)
            fg = fg_scalars(p)
            assert -1e-10 * fg.F <= N <= fg.G + 1e-10 * fg.F
            assert abs(M) <= math.sqrt(max(fg.G * N, 0.0)) + 1e-10 * fg.F
