"""Dense complex linear algebra primitives.

Full SVD, generalized polar decomposition at a given rank, or its positive
factor alone (`positive_factor`, for checks that never read Q), Frobenius
norms and inner products, unitary completion of partial column blocks, and
seeded Haar-random unitary sampling. The SVD, the polar factors, the norms,
the inner products and the Haar correction also take stacks of matrices, one
numpy call per stack, with results bit-identical to one matrix at a time:
each stacked call reaches the BLAS or LAPACK routine the single call does,
on the same operands. Each factor formula is written once, here; the
witness check and the campaign both call it. The positive factor's
Hermitian average is formed in place on its fresh product, with the bits
of 0.5 (H + H*) formed out of place. Everything here is a pure function of
its inputs: no input array is written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


class SvdConvergenceError(ArithmeticError):
    """SVD backend failed to converge; an ArithmeticError, so the CLI exits 2."""


class CompletionInfeasibleError(ValueError):
    """Not enough free rows to complete the partial block to a unitary."""


def conj_transpose(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix in a (..., m, n) array."""
    return a.conj().swapaxes(-1, -2)


def frobenius_norms(a) -> np.ndarray:
    """Frobenius norm of each matrix in a (..., m, n) array.

    Each norm is sqrt(re.re + im.im), summed as `np.linalg.norm(x, "fro")`
    sums it: over the entries in the order of `ravel("K")`, held
    contiguously, through the BLAS dot np.vecdot reaches too. So each norm
    is bit-identical to that call on its matrix alone.
    """
    a = np.asarray(a)
    if abs(a.strides[-2]) < abs(a.strides[-1]):   # column-major matrices
        a = np.swapaxes(a, -1, -2)
    x = a.reshape(*a.shape[:-2], -1)
    if x.strides[-1] != x.itemsize:
        x = np.ascontiguousarray(x)
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def inner_products(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """trace(B* A) for each pair of matrices of two (..., m, n) arrays.

    np.vecdot conjugates b and reaches the BLAS dot np.vdot(b, a) does, so
    each value is bit-identical to np.vdot on that pair.
    """
    return np.vecdot(b.reshape(*b.shape[:-2], -1), a.reshape(*a.shape[:-2], -1))


@dataclass(frozen=True)
class SvdResult:
    """A = U diag(S) V*, or a stack of such factorizations along leading axes.

    Indexing takes the factorizations of those matrices of the stack.
    """
    U: np.ndarray            # (..., m, m) unitary
    singular_values: np.ndarray   # (..., min(m, n)), decreasing
    V: np.ndarray            # (..., n, n) unitary

    def __getitem__(self, index) -> "SvdResult":
        return SvdResult(U=self.U[index], singular_values=self.singular_values[index],
                         V=self.V[index])

    def reconstruct(self) -> np.ndarray:
        """U1 diag(S) V1* over the k = min(m, n) leading columns, for one
        factorization or for each of a stack."""
        k = self.singular_values.shape[-1]
        return (self.U[..., :k] * self.singular_values[..., None, :]) \
            @ conj_transpose(self.V[..., :k])

    def adjoint(self) -> "SvdResult":
        """SVD of A*: the unitaries swap roles, so its polar H is |A*| = U1 S1 U1*."""
        return SvdResult(U=self.V, singular_values=self.singular_values, V=self.U)


@dataclass(frozen=True)
class PolarFactors:
    Q: np.ndarray            # (..., m, n) subunitary of rank r
    H: np.ndarray            # (..., n, n) Hermitian PSD of rank r


def _as_matrix(a, ndim: int = 2) -> np.ndarray:
    """a as a complex matrix (ndim=2) or stack of matrices (ndim=3)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != ndim or 0 in a.shape:
        raise ValueError(f"expected a non-empty {ndim}-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def svd(a) -> SvdResult:
    """Full SVD A = U diag(S) V* of a complex matrix.

    The phases of the singular vectors are LAPACK's; the polar factors built
    from them do not depend on those phases.
    """
    return _svd_stack(_as_matrix(a)[None])[0]


def svd_stack(a) -> SvdResult:
    """`svd` of each matrix in a (B, m, n) stack, through one LAPACK call.

    The result holds (B, ...) stacks; its b-th factorization is bit-identical
    to `svd` of matrix b alone.
    """
    return _svd_stack(_as_matrix(a, ndim=3))


def _svd_stack(a: np.ndarray) -> SvdResult:
    try:
        u, sv, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        m, n = a.shape[1:]
        raise SvdConvergenceError(f"SVD did not converge for {m}x{n} input: {exc}") from exc
    return SvdResult(U=u, singular_values=sv, V=conj_transpose(vh))


def polar_decompose(a, rank: int) -> PolarFactors:
    """Generalized polar decomposition A = Q H of a matrix of the given rank."""
    return polar_from_svd(svd(a), rank)


def polar_from_svd(res: SvdResult, rank: int) -> PolarFactors:
    """Polar factors of the rank-`rank` matrix whose SVD is `res`, or of
    each matrix of a stack of that rank.

    Q = U1 V1*, H = V1 S1 V1* from the SVD truncated to `rank` terms; Q is a
    partial isometry of that rank and H is the Hermitian PSD factor |A|. The
    rank comes from the caller, which built the matrix: a guess from a
    tolerance on the singular values would drop a small but genuine one.
    """
    h = positive_factor(res, rank)
    return PolarFactors(Q=res.U[..., :rank] @ conj_transpose(res.V[..., :rank]), H=h)


def positive_factor(res: SvdResult, rank: int) -> np.ndarray:
    """The H = V1 S1 V1* of `polar_from_svd`, without forming Q, as a new
    array."""
    m, n = res.U.shape[-1], res.V.shape[-1]
    if not 1 <= rank <= min(m, n):
        raise ValueError(f"rank {rank} outside [1, {min(m, n)}] for an {m}x{n} matrix")
    v1 = res.V[..., :rank]
    h = (v1 * res.singular_values[..., None, :rank]) @ conj_transpose(v1)
    # enforce exact Hermitian symmetry: the average 0.5 (h + h*), in place
    h += conj_transpose(h)
    h *= 0.5
    return h


def unitary_completion(partial, zero_rows=()) -> np.ndarray:
    """Complete an n x r block of mutually orthogonal columns to an n x n unitary.

    Columns may have norm < 1; the missing mass is placed in free rows (rows
    outside `zero_rows` that are zero across the whole block), one distinct
    row per deficient column, in index order. The remaining n - r columns
    come from a complete QR factorization of the filled block.

    `zero_rows` is the band of row indices that must stay zero in the first r
    columns.
    """
    partial = _as_matrix(partial)
    n, r = partial.shape
    if r > n:
        raise ValueError(f"partial block has more columns ({r}) than rows ({n})")
    zero_rows = frozenset(int(i) for i in zero_rows)
    if any(i < 0 or i >= n for i in zero_rows):
        raise ValueError("zero_rows index out of range")

    gram = partial.conj().T @ partial
    off = gram - np.diag(np.diag(gram))
    if np.linalg.norm(off, "fro") > 1e-10 * max(1, n):
        raise ValueError("partial columns are not mutually orthogonal")
    norms = np.sqrt(np.real(np.diag(gram)))
    if np.any(norms > 1 + 1e-10):
        raise ValueError("partial column norm exceeds 1")
    if zero_rows and np.any(np.abs(partial[sorted(zero_rows), :]) > 0):
        raise ValueError("partial block is nonzero inside the constrained row band")

    cols = partial.copy()
    row_support = np.any(np.abs(cols) > 0, axis=1)
    free_rows = [i for i in range(n) if i not in zero_rows and not row_support[i]]
    for j in range(r):
        deficit = 1.0 - norms[j] ** 2
        if deficit <= 1e-14:
            continue
        if not free_rows:
            raise CompletionInfeasibleError(
                f"column {j} has norm {norms[j]:.6g} < 1 but no free row remains "
                f"outside the constrained band")
        i = free_rows.pop(0)
        cols[i, j] = np.sqrt(deficit)

    # the trailing columns of a complete QR span the complement of the block
    q, _ = np.linalg.qr(cols, mode="complete")
    out = np.column_stack([cols, q[:, r:]])
    # the deficit step leaves a squared-norm shortfall up to 1e-14: check the whole
    err = np.linalg.norm(out.conj().T @ out - np.eye(n), "fro")
    if err > 1e-12 * n:
        raise CompletionInfeasibleError(f"completion lost orthogonality ({err:.3g})")
    return out


def ginibre(rng: np.random.Generator, n: int, fld: str = "complex") -> np.ndarray:
    """n x n matrix of independent standard (complex) Gaussians drawn from rng."""
    return ginibre_from_normals(ginibre_normals(rng, (n,), fld), (n,), fld)[0]


def _parts(fld: str) -> int:
    return 2 if fld == "complex" else 1


def ginibre_normals(rng: np.random.Generator, sizes: Sequence[int],
                    fld: str = "complex") -> np.ndarray:
    """The standard normals `ginibre` draws from rng for one matrix of each
    size in turn, drawn in one call: a matrix's real parts, then its
    imaginary parts (complex field only), row by row."""
    return rng.standard_normal(_parts(fld) * sum(n * n for n in sizes))


def ginibre_from_normals(x: np.ndarray, sizes: Sequence[int],
                         fld: str = "complex") -> List[np.ndarray]:
    """The (..., n, n) Ginibre matrices of the given sizes from (..., N)
    arrays of `ginibre_normals`, each bit-identical to `ginibre`."""
    out, start = [], 0
    for n in sizes:
        stop = start + _parts(fld) * n * n
        z = x[..., start:stop].reshape(*x.shape[:-1], _parts(fld), n, n)
        out.append((z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2)
                   if fld == "complex" else z[..., 0, :, :])
        start = stop
    return out


def haar_from_ginibre(z) -> np.ndarray:
    """Haar unitaries from a (B, n, n) stack of Ginibre matrices, one QR call.

    The phases of R's diagonal are divided out of Q, which corrects the QR
    factorization to the Haar measure (Mezzadri 2007).
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_random_unitary(n: int, seed, fld: str = "complex") -> np.ndarray:
    """Haar-distributed n x n unitary (orthogonal for fld="real").

    `seed` is an int (bit-identical output per seed) or a Generator, drawn in
    place.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if fld not in ("complex", "real"):
        raise ValueError(f"fld must be 'complex' or 'real', got {fld!r}")
    return haar_from_ginibre(ginibre(np.random.default_rng(seed), n, fld)[None])[0]
