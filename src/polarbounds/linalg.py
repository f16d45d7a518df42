"""Dense complex linear algebra primitives.

Deterministic SVD (fixed phase convention), generalized polar decomposition,
unitary completion of partial column blocks, and seeded Haar-random unitary
sampling. Everything here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

DEFAULT_RANK_TOL = 1e-12


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
    rank: int                # numerical rank at the requested tolerance

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
    rank: int
    degenerate: bool         # True when the input had numerical rank 0


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def _pivot_phases(cols: np.ndarray) -> np.ndarray:
    """Unit phase of each column's largest-magnitude entry (1 for a zero column).

    np.hypot rounds like abs() on one complex entry; np.abs on an array may not.
    """
    piv = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])]
    mag = np.hypot(piv.real, piv.imag)
    phase = np.ones(cols.shape[1], dtype=complex)
    np.divide(piv, mag, out=phase, where=mag > 0)
    return phase


def svd(a, rank_tol: float = DEFAULT_RANK_TOL) -> SvdResult:
    """Full SVD with a deterministic phase convention.

    The largest-magnitude entry of each left singular vector is rotated to be
    real positive (the paired right singular vector absorbs the conjugate
    phase), so identical inputs always yield bit-identical factors.
    """
    a = _as_matrix(a)
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    m, n = a.shape
    try:
        u, sv, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge for {m}x{n} input: {exc}") from exc
    v = vh.conj().T

    # (x.T * p[:, None]).T scales each column as a column times a scalar;
    # other layouts select a complex multiply loop that rounds differently.
    k = min(m, n)
    rot = np.conj(_pivot_phases(u))[:, None]
    u[:] = (u.T * rot).T
    v[:, :k] = (v[:, :k].T * rot[:k]).T
    # remaining null-space columns of V get the same convention on their own
    tail = v[:, k:]
    v[:, k:] = (tail.T * np.conj(_pivot_phases(tail))[:, None]).T

    rank = int(np.sum(sv > rank_tol * sv[0])) if sv[0] > 0 else 0
    return SvdResult(U=u, singular_values=sv, V=v, rank=rank)


def polar_decompose(a, rank_tol: float = DEFAULT_RANK_TOL) -> PolarFactors:
    """Generalized polar decomposition A = Q H."""
    return polar_from_svd(svd(a, rank_tol))


def polar_from_svd(res: SvdResult) -> PolarFactors:
    """Polar factors of the matrix whose SVD is `res`.

    Q = U1 V1*, H = V1 S1 V1* from the rank-truncated SVD; Q is a partial
    isometry of the same rank as A and H is the Hermitian PSD factor |A|.
    """
    m, n = res.U.shape[0], res.V.shape[0]
    r = res.rank
    if r == 0:
        return PolarFactors(Q=np.zeros((m, n), dtype=complex),
                            H=np.zeros((n, n), dtype=complex),
                            rank=0, degenerate=True)
    u1 = res.U[:, :r]
    v1 = res.V[:, :r]
    s1 = res.singular_values[:r]
    q = u1 @ v1.conj().T
    h = (v1 * s1) @ v1.conj().T
    h = 0.5 * (h + h.conj().T)   # enforce exact Hermitian symmetry
    return PolarFactors(Q=q, H=h, rank=r, degenerate=False)


def unitary_completion(partial, zero_rows=()) -> np.ndarray:
    """Complete an n x r block of mutually orthogonal columns to an n x n unitary.

    Columns may have norm < 1; the missing mass is placed in free rows (rows
    outside `zero_rows` that are zero across the whole block), one distinct
    row per deficient column, in index order. The remaining n - r columns are
    obtained by orthonormalizing canonical basis vectors against the fixed
    block, skipping near-dependent candidates.

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

    # Gram-Schmidt of canonical basis vectors against the fixed block.
    basis = [cols[:, j] for j in range(r)]
    for p in range(n):
        if len(basis) == n:
            break
        cand = np.zeros(n, dtype=complex)
        cand[p] = 1.0
        for b in basis:
            cand = cand - b * np.vdot(b, cand)
        nrm = np.linalg.norm(cand)
        if nrm < 1e-8:
            continue
        basis.append(cand / nrm)
    if len(basis) < n:
        raise CompletionInfeasibleError(
            f"could not complete {n}x{r} block to a unitary (got {len(basis)} columns)")
    out = np.column_stack(basis)
    # one polishing pass guards against loss of orthogonality at n ~ 1e2
    err = np.linalg.norm(out.conj().T @ out - np.eye(n), "fro")
    if err > 1e-12 * n:
        raise CompletionInfeasibleError(f"completion lost orthogonality ({err:.3g})")
    return out


def haar_random_unitary(n: int, seed, fld: str = "complex") -> np.ndarray:
    """Haar-distributed n x n unitary (orthogonal for fld="real").

    QR of a Ginibre matrix with the phases of R's diagonal divided out, which
    corrects the QR factorization to the Haar measure (Mezzadri 2007). `seed`
    is an int (bit-identical output per seed) or a Generator, drawn in place.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if fld not in ("complex", "real"):
        raise ValueError(f"fld must be 'complex' or 'real', got {fld!r}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n))
    if fld == "complex":
        z = (z + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))
