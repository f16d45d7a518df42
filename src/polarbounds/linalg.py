"""Dense complex linear algebra primitives.

Full SVD, generalized polar decomposition at a given rank, unitary
completion of partial column blocks, and seeded Haar-random unitary
sampling. The SVD and the Haar correction also take stacks of matrices, one
LAPACK call per stack, with results bit-identical to one matrix at a time.
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

import numpy as np


class SvdConvergenceError(RuntimeError):
    """SVD backend failed to converge."""


class CompletionInfeasibleError(ValueError):
    """Not enough free rows to complete the partial block to a unitary."""


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


@dataclass(frozen=True)
class SvdResult:
    U: np.ndarray            # m x m unitary
    singular_values: np.ndarray   # length min(m, n), decreasing
    V: np.ndarray            # n x n unitary

    def reconstruct(self) -> np.ndarray:
        m, n = self.U.shape[0], self.V.shape[0]
        sigma = np.zeros((m, n), dtype=complex)
        k = len(self.singular_values)
        sigma[:k, :k] = np.diag(self.singular_values)
        return self.U @ sigma @ self.V.conj().T

    def adjoint(self) -> "SvdResult":
        """SVD of A*: the unitaries swap roles, so its polar H is |A*| = U1 S1 U1*."""
        return replace(self, U=self.V, V=self.U)


@dataclass(frozen=True)
class PolarFactors:
    Q: np.ndarray            # m x n subunitary of rank r
    H: np.ndarray            # n x n Hermitian PSD of rank r


def _as_matrix(a, ndim: int = 2) -> np.ndarray:
    """a as a complex matrix (ndim=2) or stack of matrices (ndim=3)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != ndim or 0 in a.shape:
        raise ValueError(f"expected a non-empty {ndim}-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def svd(a) -> SvdResult:
    """Full SVD A = U diag(S) V* of a complex matrix.

    The phases of the singular vectors are LAPACK's; the polar factors built
    from them do not depend on those phases.
    """
    return _svd_stack(_as_matrix(a)[None])[0]


def svd_stack(a) -> List[SvdResult]:
    """`svd` of each matrix in a (B, m, n) stack, through one LAPACK call.

    Each result is bit-identical to `svd` of that matrix alone.
    """
    return _svd_stack(_as_matrix(a, ndim=3))


def _svd_stack(a: np.ndarray) -> List[SvdResult]:
    try:
        u, sv, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        m, n = a.shape[1:]
        raise SvdConvergenceError(f"SVD did not converge for {m}x{n} input: {exc}") from exc
    v = np.swapaxes(vh.conj(), -1, -2)
    return [SvdResult(U=u[b], singular_values=sv[b], V=v[b]) for b in range(len(sv))]


def polar_decompose(a, rank: int) -> PolarFactors:
    """Generalized polar decomposition A = Q H of a matrix of the given rank."""
    return polar_from_svd(svd(a), rank)


def polar_from_svd(res: SvdResult, rank: int) -> PolarFactors:
    """Polar factors of the rank-`rank` matrix whose SVD is `res`.

    Q = U1 V1*, H = V1 S1 V1* from the SVD truncated to `rank` terms; Q is a
    partial isometry of that rank and H is the Hermitian PSD factor |A|. The
    rank comes from the caller, which built the matrix: a guess from a
    tolerance on the singular values would drop a small but genuine one.
    """
    m, n = res.U.shape[0], res.V.shape[0]
    if not 1 <= rank <= min(m, n):
        raise ValueError(f"rank {rank} outside [1, {min(m, n)}] for an {m}x{n} matrix")
    u1 = res.U[:, :rank]
    v1 = res.V[:, :rank]
    s1 = res.singular_values[:rank]
    q = u1 @ v1.conj().T
    h = (v1 * s1) @ v1.conj().T
    h = 0.5 * (h + h.conj().T)   # enforce exact Hermitian symmetry
    return PolarFactors(Q=q, H=h)


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
    z = rng.standard_normal((n, n))
    if fld == "complex":
        z = (z + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    return z


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
