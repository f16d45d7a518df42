import numpy as np
import pytest

from polarbounds.linalg import (
    CompletionInfeasibleError,
    frobenius,
    haar_random_unitary,
    polar_decompose,
    polar_from_svd,
    svd,
    unitary_completion,
)


def unitarity_defect(u):
    n = u.shape[0]
    return np.linalg.norm(u.conj().T @ u - np.eye(n), "fro")


class TestSvd:
    def test_diagonal(self):
        res = svd(np.diag([3.0, 4.0]))
        assert np.allclose(res.singular_values, [4.0, 3.0])
        assert res.rank == 2

    def test_zero_matrix(self):
        res = svd(np.zeros((2, 2)))
        assert np.allclose(res.singular_values, [0.0, 0.0])
        assert res.rank == 0

    def test_unit_row(self):
        a = np.zeros((3, 3))
        a[0] = [0.6, 0.0, 0.8]  # unit row
        res = svd(a)
        assert np.allclose(res.singular_values, [1.0, 0.0, 0.0], atol=1e-12)
        assert res.rank == 1

    def test_factor_invariants(self, rng):
        for _ in range(20):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            res = svd(a)
            assert unitarity_defect(res.U) <= 1e-12 * m
            assert unitarity_defect(res.V) <= 1e-12 * n
            assert np.all(np.diff(res.singular_values) <= 1e-14)
            assert frobenius(a - res.reconstruct()) <= 1e-10 * max(frobenius(a), 1)
            # norm identity against the spectrum
            assert abs(frobenius(a) ** 2 - np.sum(res.singular_values ** 2)) \
                <= 1e-10 * max(1.0, frobenius(a) ** 2)

    def test_deterministic_phase(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r1, r2 = svd(a), svd(a.copy())
        assert np.array_equal(r1.U, r2.U)
        assert np.array_equal(r1.V, r2.V)
        # convention: largest-magnitude entry of each left vector is real positive
        for j in range(4):
            p = np.argmax(np.abs(r1.U[:, j]))
            assert abs(r1.U[p, j].imag) < 1e-14
            assert r1.U[p, j].real > 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_phase_fix_matches_column_loop(self, rng):
        # reference: the phase convention applied one column at a time
        for trial in range(200):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            a = rng.standard_normal((m, n))
            if trial % 2:
                a = a + 1j * rng.standard_normal((m, n))
            u, _, vh = np.linalg.svd(a.astype(complex), full_matrices=True)
            v = vh.conj().T
            for j in range(m):
                col = u[:, j]
                p = np.argmax(np.abs(col))
                phase = col[p] / abs(col[p])
                u[:, j] = col * np.conj(phase)
                if j < min(m, n):
                    v[:, j] = v[:, j] * np.conj(phase)
            for j in range(min(m, n), n):
                col = v[:, j]
                p = np.argmax(np.abs(col))
                v[:, j] = col * np.conj(col[p] / abs(col[p]))
            res = svd(a)
            assert res.U.tobytes() == u.tobytes()
            assert res.V.tobytes() == v.tobytes()


class TestPolarDecompose:
    def test_diagonal(self):
        pf = polar_decompose(np.diag([3.0, 4.0]))
        assert np.allclose(pf.Q, np.eye(2))
        assert np.allclose(pf.H, np.diag([3.0, 4.0]))

    def test_rank_one_projector(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        pf = polar_decompose(a)
        assert np.allclose(pf.Q, a)
        assert np.allclose(pf.H, a)
        assert pf.rank == 1

    def test_negative_scalar(self):
        pf = polar_decompose(np.array([[-5.0]]))
        assert np.allclose(pf.Q, [[-1.0]])
        assert np.allclose(pf.H, [[5.0]])

    def test_zero_is_degenerate(self):
        pf = polar_decompose(np.zeros((3, 2)))
        assert pf.degenerate
        assert pf.rank == 0

    def test_reconstruction_and_projector(self, rng):
        for _ in range(20):
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            r = int(rng.integers(1, min(m, n) + 1))
            u = haar_random_unitary(m, int(rng.integers(1 << 30)))[:, :r]
            v = haar_random_unitary(n, int(rng.integers(1 << 30)))[:, :r]
            a = (u * rng.uniform(0.5, 3.0, size=r)) @ v.conj().T
            pf = polar_decompose(a)
            assert pf.rank == r
            assert frobenius(a - pf.Q @ pf.H) <= 1e-10 * frobenius(a)
            proj = pf.Q.conj().T @ pf.Q
            assert frobenius(proj @ proj - proj) <= 1e-10
            assert frobenius(pf.H - pf.H.conj().T) <= 1e-12
            assert np.min(np.linalg.eigvalsh(pf.H)) >= -1e-12
            # column space of Q* equals column space of H
            assert np.linalg.matrix_rank(np.hstack([pf.Q.conj().T, pf.H]),
                                         tol=1e-8) == r
            # factors of A* from the SVD of A: Q* and |A*| = U1 S1 U1*
            adj = polar_from_svd(svd(a).adjoint())
            direct = polar_decompose(a.conj().T)
            assert adj.rank == direct.rank == r
            assert frobenius(adj.Q - direct.Q) <= 1e-10
            assert frobenius(adj.H - direct.H) <= 1e-10 * frobenius(a)


class TestUnitaryCompletion:
    def test_identity_from_e1(self):
        out = unitary_completion(np.array([[1.0], [0.0]]))
        assert np.allclose(out, np.eye(2))

    def test_negated_column(self):
        out = unitary_completion(np.array([[-1.0], [0.0]]))
        assert np.allclose(out[:, 0], [-1.0, 0.0])
        assert unitarity_defect(out) <= 1e-12 * 2

    def test_constrained_subnormal_column(self):
        c = 0.634
        partial = np.array([[c], [0.0], [0.0]])
        out = unitary_completion(partial, zero_rows=[1])
        assert out[1, 0] == 0
        assert abs(out[0, 0] - c) < 1e-15
        assert abs(abs(out[2, 0]) - np.sqrt(1 - c * c)) < 1e-12
        assert unitarity_defect(out) <= 1e-12 * 3

    def test_preserves_given_rows(self, rng):
        u = haar_random_unitary(5, 99)
        partial = u[:, :3]
        out = unitary_completion(partial)
        assert np.array_equal(out[:, :3], partial)
        assert unitarity_defect(out) <= 1e-12 * 5

    def test_infeasible(self):
        # column norm < 1 but every other row is constrained to zero
        partial = np.array([[0.5], [0.0]])
        with pytest.raises(CompletionInfeasibleError):
            unitary_completion(partial, zero_rows=[1])

    def test_rejects_nonorthogonal(self):
        partial = np.array([[1.0, 1.0], [0.0, 1e-3], [0.0, 0.0]])
        with pytest.raises(ValueError):
            unitary_completion(partial)


def _seeds(kind, count):
    """`count` int seeds, or one Generator passed `count` times."""
    if kind == "int":
        return range(count)
    gen = np.random.default_rng(0)
    return [gen] * count


SAMPLER_CASES = pytest.mark.parametrize(
    "fld,seed_kind", [(f, k) for f in ("complex", "real") for k in ("int", "generator")])


class TestHaarSampler:
    def test_scalar(self):
        u = haar_random_unitary(1, 5)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14

    def test_seed_determinism(self):
        assert np.array_equal(haar_random_unitary(4, 7), haar_random_unitary(4, 7))

    def test_generator_draws_in_place(self):
        gen = np.random.default_rng(7)
        first = haar_random_unitary(4, gen)
        assert np.array_equal(first, haar_random_unitary(4, 7))
        assert not np.array_equal(haar_random_unitary(4, gen), first)

    def test_rejects_unknown_field(self):
        with pytest.raises(ValueError):
            haar_random_unitary(3, 1, fld="quaternion")

    @SAMPLER_CASES
    def test_unitary(self, fld, seed_kind):
        for seed in _seeds(seed_kind, 5):
            assert unitarity_defect(haar_random_unitary(3, seed, fld)) <= 1e-12 * 3

    @SAMPLER_CASES
    def test_first_entry_moment(self, fld, seed_kind):
        # E|u11|^2 = 1/n for Haar measure on U(n) and on O(n)
        acc = 0.0
        for seed in _seeds(seed_kind, 10_000):
            acc += abs(haar_random_unitary(2, seed, fld)[0, 0]) ** 2
        assert abs(acc / 10_000 - 0.5) < 0.02
