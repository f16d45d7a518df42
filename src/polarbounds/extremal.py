"""Explicit matrix pairs attaining each sharp coefficient.

A witness is A = S diag(sigma) T* and A~ = diag(sigma~). S and T are
(s + r) x r isometries, the singular vectors of A's r nonzero singular
values, built directly with no unitary completion. They realize the
coefficient's optimizing pattern exactly: identity blocks where singular
directions must align, reversal blocks where they must anti-align, and,
for h-upper and lee-upper, a shrunken diagonal block c I whose missing
column mass sqrt(1 - c^2) sits in rows s .. s + r - 1, below the rows of
the second spectrum.

Every witness is checked twice, by `make_witness` and again by
`verify_witness`, through one check: the alignment scalars M and N from the
leading s x r blocks of S and T; S*S = T*T = I, with I subtracted from each
Gram matrix's diagonal in place; one stacked SVD of A and A~ and their
positive factors (and, for the q ids, their subunitary factors) from
`linalg`; and the four or five gap matrices written into one preallocated
stack with `out=` ufuncs, whose Frobenius norms come from one call. The
blocks are written by flat index into zeroed arrays. Each norm, factor and
block is the one a matrix-by-matrix computation gives, bit for bit.

Ambient dimension is m = n = s + r throughout. Only h-upper and lee-upper
need the rows below s: q-upper, q-lower, h-lower and lee-lower are
attained at every ambient size n >= s, and h-upper and lee-upper at
n >= r + s (see `bounds`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import bounds, linalg
from .linalg import frobenius_norms, polar_from_svd, positive_factor, svd_stack
from .spectra import FGScalars, SpectrumPair, check_range, fg_scalars

RATIO_RTOL = 1e-8
# the isometry blocks are exact but for the rounding of sqrt(1 - c^2), a few
# ulps; a change of 1e-6 to a zero entry moves S*S by only 1e-12, second order
ISOMETRY_TOL = 1e-14

# theorem ids of the constants with a witness; the witness digest hashes in this order
BOUND_IDS = ("q-upper", "q-lower", "h-upper", "h-lower", "lee-upper", "lee-lower")

# no witness calls them any more, but perfbench/ patches and traces the
# names on this module
unitary_completion = linalg.unitary_completion
polar_decompose = linalg.polar_decompose


class DegenerateSupremumError(ValueError):
    """The upper bound is a supremum approached only in the limit.

    Raised for the positive-factor upper witness when its shrink factor
    1 / (1 + sqrt(D / F)) rounds to 1: on identical spectra, where the
    constant sqrt(2) is not attained by any finite pair, and on spectra so
    close (e.g. (1,) against (1, 1e-20)) that no double-precision pair of
    the construction attains the constant.
    """


class WitnessVerificationError(RuntimeError):
    """A recomputed norm identity failed, or a built witness missed its constant."""


@dataclass(frozen=True)
class WitnessDiagnostics:
    M: float              # spectra-weighted alignment of S against T
    N: float              # spectra-weighted mass of T's leading block
    E_norm: float
    factor_gap_norm: float
    achieved_ratio: float


@dataclass(frozen=True)
class ExtremalWitness:
    """A = S diag(sigma) T* and A~ = diag(sigma~), both (s + r) x (s + r)."""
    bound_id: str
    A: np.ndarray
    A_tilde: np.ndarray
    S: np.ndarray    # (s + r) x r isometry: A's left singular vectors
    T: np.ndarray    # (s + r) x r isometry: A's right singular vectors
    target_coefficient: float
    diagnostics: WitnessDiagnostics
    pair: SpectrumPair


def couple_scalars(pair: SpectrumPair, S: np.ndarray, T: np.ndarray
                   ) -> Tuple[float, float]:
    """The alignment scalars of an isometry couple against the two spectra.

    M weights Re(S_ij conj(T_ij)) and N weights |T_ij|^2 by the product of
    the i-th second-spectrum and j-th first-spectrum values, over i < s,
    j < r.
    """
    r, s = pair.r, pair.s
    w = np.multiply.outer(pair.sigma_tilde, pair.sigma)
    t = T[:s, :r]
    M = float((w * np.real(S[:s, :r] * np.conj(t))).sum())
    N = float((w * np.abs(t) ** 2).sum())
    return M, N


def _witness_scalars(pair: SpectrumPair) -> FGScalars:
    """F and G of a pair whose witness can be built and checked: F is the
    squared norm ||A||^2 + ||A~||^2 of the witness, so it must be finite,
    and normal, since the checks take norms relative to F."""
    fg = fg_scalars(pair)
    check_range("F = ||A||^2 + ||A~||^2", fg.F, sys.float_info.min, sys.float_info.max)
    return fg


def _check_isometries(pair: SpectrumPair, S: np.ndarray, T: np.ndarray) -> None:
    """S*S = T*T = I_r, to ISOMETRY_TOL r in the Frobenius norm."""
    r = pair.r
    for name, X in (("S", S), ("T", T)):
        gap = X.conj().T @ X
        # the diagonal is every (r + 1)-th entry of the row-major flat view
        gap.reshape(-1)[::r + 1] -= 1.0
        err = math.sqrt(np.vdot(gap, gap).real)
        if not err <= ISOMETRY_TOL * r:
            raise WitnessVerificationError(
                f"{name} is not an isometry: ||{name}*{name} - I|| = {err:.3g}")


def _diagnose(bound_id: str, pair: SpectrumPair, A: np.ndarray, A_tilde: np.ndarray,
              S: np.ndarray, T: np.ndarray) -> WitnessDiagnostics:
    """The body of verify_witness: check the identities, then take the ratio
    of the bound's family from the same four norms."""
    r, s, m = pair.r, pair.s, pair.s + pair.r
    for name, X in (("S", S), ("T", T)):
        if X.shape != (m, r):
            raise WitnessVerificationError(
                f"{name} has shape {X.shape}, not the ({m}, {r}) of an isometry block")
    for name, X in (("A", A), ("A_tilde", A_tilde)):
        if X.shape != (m, m):
            raise WitnessVerificationError(
                f"{name} has shape {X.shape}, not the ({m}, {m}) of a witness matrix")
    fg = _witness_scalars(pair)
    M, N = couple_scalars(pair, S, T)
    if not (-1e-10 * fg.F <= N <= fg.G + 1e-10 * fg.F):
        raise WitnessVerificationError(f"N = {N} outside [0, G = {fg.G}]")
    # sqrt(G) sqrt(N), not sqrt(G N): the product underflows at tiny scales
    if abs(M) > math.sqrt(fg.G) * math.sqrt(max(N, 0.0)) + 1e-10 * fg.F:
        raise WitnessVerificationError(f"|M| = {abs(M)} exceeds sqrt(G N)")
    _check_isometries(pair, S, T)

    # one stacked SVD and one stacked norm call; each factor and each norm
    # is that of its matrix alone, bit for bit. Only the q ids read Q.
    res = svd_stack(np.stack([A, A_tilde]))
    q = bound_id.startswith("q")
    gaps = np.empty((5 if q else 4, m, m), dtype=complex)
    if q:
        pf, pf_t = polar_from_svd(res[0], r), polar_from_svd(res[1], s)
        h, h_t = pf.H, pf_t.H
        np.subtract(pf.Q, pf_t.Q, out=gaps[4])
    else:
        h, h_t = positive_factor(res[0], r), positive_factor(res[1], s)
    np.subtract(A_tilde, A, out=gaps[0])
    np.add(A_tilde, A, out=gaps[1])
    np.subtract(h, h_t, out=gaps[2])
    np.add(h, h_t, out=gaps[3])
    diff, total, h_diff, h_total, *q_diff = frobenius_norms(gaps).tolist()
    checks = (("difference-norm", diff, fg.F - 2.0 * M),
              ("sum-norm", total, fg.F + 2.0 * M),
              ("factor-difference-norm", h_diff, fg.F - 2.0 * N),
              ("factor-sum-norm", h_total, fg.F + 2.0 * N))
    for name, norm, closed in checks:
        direct = norm ** 2
        if abs(direct - closed) > 1e-10 * max(1.0, abs(closed), fg.F):
            raise WitnessVerificationError(
                f"{name}: direct {direct} vs closed form {closed}")

    if bound_id.startswith("lee"):
        gap = h_total
        achieved = total / gap
    else:
        gap = q_diff[0] if q_diff else h_diff
        achieved = gap / diff
    return WitnessDiagnostics(M=M, N=N, E_norm=diff, factor_gap_norm=gap,
                              achieved_ratio=achieved)


def _build_witness(bound_id: str, pair: SpectrumPair, S: np.ndarray,
                   T: np.ndarray, target: float) -> ExtremalWitness:
    m = pair.s + pair.r
    A = (S * pair.sigma) @ T.conj().T
    A_tilde = np.zeros((m, m), dtype=complex)
    # the diagonal is every (m + 1)-th entry of the row-major flat view
    A_tilde.ravel()[:pair.s * (m + 1):m + 1] = pair.sigma_tilde
    diag = _diagnose(bound_id, pair, A, A_tilde, S, T)
    achieved = diag.achieved_ratio
    rel = abs(achieved) if target == 0.0 else abs(achieved - target) / abs(target)
    if rel > RATIO_RTOL:
        raise WitnessVerificationError(
            f"{bound_id}: achieved ratio {achieved} misses target {target} "
            f"(relative error {rel:.3g})")
    return ExtremalWitness(bound_id=bound_id, A=A, A_tilde=A_tilde, S=S, T=T,
                           target_coefficient=target, diagnostics=diag, pair=pair)


def _q_partial_blocks(pair: SpectrumPair, upper: bool, k: int
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """The (s + r) x r isometries S and T realizing the q optimum."""
    r, s = pair.r, pair.s
    if upper:
        # aligned identity on the first r-k directions, anti-aligned reversal
        # pairing the k smallest first-spectrum values with the k smallest
        # second-spectrum values
        d, t_ident, t_rev = r - k, 1.0, -1.0
    else:
        # anti-aligned identity on the first k directions, aligned reversal
        # pairing the rest
        d, t_ident, t_rev = k, -1.0, 1.0
    # entries (j, j) for j < d, and (s - r + d + j - 1, r - j) for j = 1 .. r - d,
    # as indices of the row-major flat view
    ident = [j * (r + 1) for j in range(d)]
    rev = [(s - r + d + j - 1) * r + r - j for j in range(1, r - d + 1)]
    S_part = np.zeros((s + r, r), dtype=complex)
    T_part = np.zeros((s + r, r), dtype=complex)
    S_part.reshape(-1)[ident + rev] = 1.0
    T_part.reshape(-1)[ident + rev] = [t_ident] * d + [t_rev] * (r - d)
    return S_part, T_part


def _identity_columns(m: int, r: int, value: float = 1.0) -> np.ndarray:
    """The first r columns of value times the m x m identity."""
    out = np.zeros((m, r), dtype=complex)
    # entry (j, j) is every (r + 1)-th entry of the row-major flat view
    out.reshape(-1)[:r * (r + 1):r + 1] = value
    return out


def _shrunken_block(pair: SpectrumPair, c: float) -> np.ndarray:
    """(s + r) x r isometry whose leading r x r block is c I (|c| < 1), zero to row s.

    The missing column mass sqrt(1 - c^2) lands at rows s .. s+r-1, one row
    per column, which keeps the alignment scalars untouched (they only see
    the first s rows).
    """
    r, s = pair.r, pair.s
    T = _identity_columns(s + r, r, c)
    # entries (s + j, j): from flat index s r on, every (r + 1)-th
    T.reshape(-1)[s * r::r + 1] = math.sqrt(1.0 - c * c)
    return T


def make_witness(pair: SpectrumPair, bound_id: str) -> ExtremalWitness:
    """Pair attaining one of the six bounds in BOUND_IDS, e.g. 'q-upper' or
    'lee-lower': the upper and lower constants of the subunitary (q),
    positive (h) and sum-ratio (lee) factors. The pair is certified by the
    checks of verify_witness; WitnessVerificationError if it fails them or
    misses its constant.
    """
    if bound_id not in BOUND_IDS:
        raise ValueError(f"unknown bound id {bound_id!r}; expected one of {BOUND_IDS}")
    r, m = pair.r, pair.s + pair.r
    if bound_id.startswith("q"):
        result, _ = bounds.closed_form(bound_id)(pair)
        S, T = _q_partial_blocks(pair, bound_id == "q-upper", result.optimal_index)
        return _build_witness(bound_id, pair, S, T, result.coefficient)

    _witness_scalars(pair)   # rejects a pair outside the witnesses' range first
    u = pair.unit_sums
    target = bounds.closed_form(bound_id)(pair).coefficient
    if bound_id == "h-upper":
        c = 1.0 / (1.0 + math.sqrt(u.D / u.F))
        if c == 1.0:
            raise DegenerateSupremumError(
                "spectra identical, or too close for the shrink factor to fall "
                "below 1 in floating point: the upper constant is approached "
                "but not attained by any pair")
        return _build_witness(bound_id, pair, _identity_columns(m, r),
                              _shrunken_block(pair, c), target)
    S = _identity_columns(m, r, -1.0)
    if bound_id == "lee-upper":
        c = 1.0 / (1.0 + math.sqrt(1.0 + 2.0 * u.G / u.F))
        # the shrunken block must carry the same sign as S's leading block:
        # equality needs the alignment scalar M positive at +sqrt(G N)
        return _build_witness(bound_id, pair, S, _shrunken_block(pair, -c), target)
    return _build_witness(bound_id, pair, S, _identity_columns(m, r), target)


def verify_witness(w: ExtremalWitness) -> WitnessDiagnostics:
    """Recompute every norm two ways and require agreement.

    The four squared norms (difference and sum of the matrices, difference
    and sum of the positive factors) must match their closed-form values
    F -+ 2M and F -+ 2N within 1e-10 relative; polar factors are recomputed
    from the matrices, at the ranks r of A and s of A~. A and A~ must be
    (s + r) x (s + r) and S and T (s + r) x r isometries. The achieved ratio
    is taken from the same norms.
    """
    return _diagnose(w.bound_id, w.pair, w.A, w.A_tilde, w.S, w.T)
