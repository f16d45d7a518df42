import numpy as np
import pytest

from polarbounds.linalg import (
    CompletionInfeasibleError,
    conj_transpose,
    frobenius_norms,
    ginibre,
    ginibre_from_normals,
    ginibre_normals,
    haar_from_ginibre,
    haar_random_unitary,
    inner_products,
    polar_decompose,
    polar_from_svd,
    positive_factor,
    svd,
    svd_stack,
    unitary_completion,
)


def _reconstruct(res):
    """U1 diag(S) V1* over the k = min(m, n) leading columns, for one
    factorization or for each of a stack."""
    k = res.singular_values.shape[-1]
    return (res.U[..., :k] * res.singular_values[..., None, :]) @ conj_transpose(res.V[..., :k])


def unitarity_defect(u):
    n = u.shape[0]
    return np.linalg.norm(u.conj().T @ u - np.eye(n), "fro")


class TestSvd:
    def test_diagonal(self):
        res = svd(np.diag([3.0, 4.0]))
        assert np.allclose(res.singular_values, [4.0, 3.0])

    def test_zero_matrix(self):
        res = svd(np.zeros((2, 2)))
        assert np.allclose(res.singular_values, [0.0, 0.0])

    def test_unit_row(self):
        a = np.zeros((3, 3))
        a[0] = [0.6, 0.0, 0.8]  # unit row
        res = svd(a)
        assert np.allclose(res.singular_values, [1.0, 0.0, 0.0], atol=1e-12)

    def test_factor_invariants(self, rng):
        for _ in range(20):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            res = svd(a)
            assert unitarity_defect(res.U) <= 1e-12 * m
            assert unitarity_defect(res.V) <= 1e-12 * n
            assert np.all(np.diff(res.singular_values) <= 1e-14)
            assert np.linalg.norm(a - _reconstruct(res)) <= 1e-10 * max(np.linalg.norm(a), 1)
            # norm identity against the spectrum
            assert abs(np.linalg.norm(a) ** 2 - np.sum(res.singular_values ** 2)) \
                <= 1e-10 * max(1.0, np.linalg.norm(a) ** 2)

    def test_deterministic(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r1, r2 = svd(a), svd(a.copy())
        assert r1.U.tobytes() == r2.U.tobytes()
        assert r1.V.tobytes() == r2.V.tobytes()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("m,n", [(7, 7), (5, 8), (8, 3), (1, 1), (1, 4)])
    def test_stack_matches_single(self, rng, m, n):
        # one LAPACK call for the stack, bit-identical factors
        a = rng.standard_normal((9, m, n)) + 1j * rng.standard_normal((9, m, n))
        a[3] = 0.0
        a[4, :, 0] = 0.0
        stack = svd_stack(a)
        for one, res in zip(a, stack):
            ref = svd(one)
            assert res.U.tobytes() == ref.U.tobytes()
            assert res.V.tobytes() == ref.V.tobytes()
            assert res.singular_values.tobytes() == ref.singular_values.tobytes()
        # the stack rebuilds as a whole, each matrix as it does alone
        rebuilt = _reconstruct(stack)
        assert rebuilt.shape == a.shape
        assert np.linalg.norm(rebuilt - a) <= 1e-12 * np.linalg.norm(a)
        for res, matrix in zip(stack, rebuilt):
            assert _same(matrix, _reconstruct(res))

    def test_stack_rejects_a_matrix(self):
        with pytest.raises(ValueError):
            svd_stack(np.eye(2))


class TestPolarDecompose:
    def test_diagonal(self):
        pf = polar_decompose(np.diag([3.0, 4.0]), 2)
        assert np.allclose(pf.Q, np.eye(2))
        assert np.allclose(pf.H, np.diag([3.0, 4.0]))

    def test_rank_one_projector(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        pf = polar_decompose(a, 1)
        assert np.allclose(pf.Q, a)
        assert np.allclose(pf.H, a)

    def test_negative_scalar(self):
        pf = polar_decompose(np.array([[-5.0]]), 1)
        assert np.allclose(pf.Q, [[-1.0]])
        assert np.allclose(pf.H, [[5.0]])

    def test_rejects_rank_out_of_range(self):
        # the rank comes from the caller and must fit the matrix
        for a, rank in ((np.zeros((3, 2)), 0), (np.eye(3, 2), 0), (np.eye(3, 2), 3)):
            with pytest.raises(ValueError):
                polar_decompose(a, rank)

    def test_reconstruction_and_projector(self, rng):
        for _ in range(20):
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            r = int(rng.integers(1, min(m, n) + 1))
            u = haar_random_unitary(m, int(rng.integers(1 << 30)))[:, :r]
            v = haar_random_unitary(n, int(rng.integers(1 << 30)))[:, :r]
            a = (u * rng.uniform(0.5, 3.0, size=r)) @ v.conj().T
            pf = polar_decompose(a, r)
            assert np.linalg.norm(a - pf.Q @ pf.H) <= 1e-10 * np.linalg.norm(a)
            proj = pf.Q.conj().T @ pf.Q
            assert np.linalg.norm(proj @ proj - proj) <= 1e-10
            assert np.linalg.norm(pf.H - pf.H.conj().T) <= 1e-12
            assert np.min(np.linalg.eigvalsh(pf.H)) >= -1e-12
            # column space of Q* equals column space of H
            assert np.linalg.matrix_rank(np.hstack([pf.Q.conj().T, pf.H]),
                                         tol=1e-8) == r
            # factors of A* from the SVD of A: Q* and |A*| = U1 S1 U1*
            adj = polar_from_svd(svd(a).adjoint(), r)
            direct = polar_decompose(a.conj().T, r)
            assert np.linalg.norm(adj.Q - direct.Q) <= 1e-10
            assert np.linalg.norm(adj.H - direct.H) <= 1e-10 * np.linalg.norm(a)


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
        with pytest.raises(ValueError, match="not mutually orthogonal"):
            unitary_completion(partial)

    def test_rejects_column_norm_above_one(self):
        partial = np.array([[0.0, 0.6], [1.0 + 1e-9, 0.0], [0.0, 0.8]])
        with pytest.raises(ValueError, match="column norm exceeds 1"):
            unitary_completion(partial)

    def test_rejects_nonzero_constrained_band(self):
        partial = np.array([[0.6], [0.0], [0.8]])
        with pytest.raises(ValueError, match="nonzero inside the constrained row band"):
            unitary_completion(partial, zero_rows=[1, 2])


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

    @pytest.mark.parametrize("fld", ["complex", "real"])
    def test_stack_matches_single(self, fld):
        # one QR for the stack; each unitary as if sampled alone from its seed
        for n in (1, 3, 7):
            z = np.stack([ginibre(np.random.default_rng(seed), n, fld) for seed in range(12)])
            for seed, u in enumerate(haar_from_ginibre(z)):
                ref = haar_random_unitary(n, seed, fld)
                assert u.dtype == ref.dtype and u.tobytes() == ref.tobytes()

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


def _spread(rng, shape, fld):
    """Entries over six decades, so that summing them in another order or
    with another kernel moves the last bits."""
    x = rng.standard_normal(shape) * np.exp(rng.uniform(-7, 7, shape))
    if fld == "complex":
        x = x + 1j * rng.standard_normal(shape) * np.exp(rng.uniform(-7, 7, shape))
    return x


def _polar_reference(res, rank):
    """The per-matrix polar factors, written for one 2-d SVD."""
    u1, v1, s1 = res.U[:, :rank], res.V[:, :rank], res.singular_values[:rank]
    h = (v1 * s1) @ v1.conj().T
    return u1 @ v1.conj().T, 0.5 * (h + h.conj().T)


def _hermitian_reference(res, rank):
    """H = V1 S1 V1* for each SVD of a stack, with its Hermitian average
    formed out of place."""
    v1 = res.V[..., :rank]
    h = (v1 * res.singular_values[..., None, :rank]) @ np.swapaxes(v1.conj(), -1, -2)
    return 0.5 * (h + np.swapaxes(h.conj(), -1, -2))


def _ginibre_reference(rng, n, fld):
    """An n x n Ginibre matrix drawn as two (n, n) calls."""
    z = rng.standard_normal((n, n))
    if fld == "complex":
        z = (z + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    return z


def _same(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestStackedKernels:
    """Each stacked kernel is bit-identical to the per-matrix numpy call."""

    @pytest.mark.parametrize("fld", ["complex", "real"])
    @pytest.mark.parametrize("m,n", [(7, 7), (5, 8), (8, 3), (1, 4)])
    def test_norms_match_numpy(self, rng, fld, m, n):
        x = _spread(rng, (40, m, n), fld)
        # contiguous, strided, transposed (column-major) and reversed matrices
        for stack in (x, x[::3], x[:, :, ::2], np.swapaxes(x, -1, -2), x[:, ::-1],
                      x[:, :, ::-1], np.swapaxes(x, -1, -2)[:, ::-2]):
            ref = np.array([np.linalg.norm(a, "fro") for a in stack])
            assert _same(frobenius_norms(stack), ref)
            assert frobenius_norms(stack[1]) == ref[1]

    @pytest.mark.parametrize("fld", ["complex", "real"])
    def test_inner_products_match_vdot(self, rng, fld):
        a, b = _spread(rng, (40, 5, 8), fld), _spread(rng, (40, 5, 8), fld)
        for x, y in ((a, b), (a[::2], b[1::2])):
            assert _same(inner_products(y, x), np.array([np.vdot(q, p) for p, q in zip(x, y)]))

    @pytest.mark.parametrize("m,n", [(7, 7), (5, 8), (8, 7)])
    def test_polar_stack_matches_single(self, rng, m, n):
        a = rng.standard_normal((12, m, n)) + 1j * rng.standard_normal((12, m, n))
        res = svd_stack(a)
        for rank in range(1, min(m, n) + 1):
            # the whole stack, and a gathered part of it as the campaign takes
            for idx in (slice(None), [1, 4, 5, 10]):
                pf = polar_from_svd(res[idx], rank)
                for b, q, h in zip(np.arange(12)[idx], pf.Q, pf.H):
                    one = polar_from_svd(svd(a[b]), rank)
                    ref_q, ref_h = _polar_reference(svd(a[b]), rank)
                    assert _same(q, one.Q) and _same(h, one.H)
                    assert _same(q, ref_q) and _same(h, ref_h)
                # H alone, and |A*| from the adjoint as the campaign takes it
                for sub in (res[idx], res[idx].adjoint()):
                    assert _same(positive_factor(sub, rank), polar_from_svd(sub, rank).H)

    @pytest.mark.parametrize("fld", ["complex", "real"])
    @pytest.mark.parametrize("m,n", [(7, 7), (5, 8), (8, 3)])
    def test_hermitian_average_matches_out_of_place(self, rng, fld, m, n):
        res = svd_stack(_spread(rng, (12, m, n), fld))
        for rank in range(1, min(m, n) + 1):
            # H = |A|, and |A*| from the adjoint as the campaign takes it
            for sub in (res, res.adjoint()):
                ref = _hermitian_reference(sub, rank)
                assert _same(positive_factor(sub, rank), ref)
                assert _same(polar_from_svd(sub, rank).H, ref)

    @pytest.mark.parametrize("fld", ["complex", "real"])
    @pytest.mark.parametrize("m,n", [(5, 8), (8, 3), (1, 2)])
    def test_one_call_ginibre_draw(self, fld, m, n):
        seeds = range(6)
        x = np.stack([ginibre_normals(np.random.default_rng(seed), (m, n), fld)
                      for seed in seeds])
        left, right = ginibre_from_normals(x, (m, n), fld)
        for seed in seeds:
            sub, old = np.random.default_rng(seed), np.random.default_rng(seed)
            for z, size in ((left[seed], m), (right[seed], n)):
                assert _same(z, ginibre(sub, size, fld))
                assert _same(z, _ginibre_reference(old, size, fld))
