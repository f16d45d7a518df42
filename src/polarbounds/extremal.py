"""Explicit matrix pairs attaining each sharp coefficient.

The constructions place prescribed spectra on both matrices and choose the
two unitaries so the coefficient's optimizing pattern is realized exactly:
identity blocks where singular directions must align, reversal blocks where
they must anti-align, and a shrunken diagonal block (completed below the
second spectrum's rows) where the optimum sits strictly inside the polytope.

Ambient dimension is m = n = s + r throughout: the completions need spare
rows below index s, and s + r always suffices.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import bounds
from .linalg import frobenius_norms, polar_decompose, unitary_completion
from .spectra import FGScalars, SpectrumPair, check_range, fg_scalars

RATIO_RTOL = 1e-8

# theorem ids of the constants with a witness; the witness digest hashes in this order
BOUND_IDS = ("q-upper", "q-lower", "h-upper", "h-lower", "lee-upper", "lee-lower")


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
    S: np.ndarray    # unitary left factor of A
    T: np.ndarray    # unitary right factor of A
    target_coefficient: float
    diagnostics: WitnessDiagnostics
    pair: SpectrumPair


def _embed_diag(values, m: int) -> np.ndarray:
    out = np.zeros((m, m), dtype=complex)
    # the diagonal is every (m + 1)-th entry of the row-major flat view
    out.ravel()[:len(values) * (m + 1):m + 1] = values
    return out


def couple_scalars(pair: SpectrumPair, S: np.ndarray, T: np.ndarray
                   ) -> Tuple[float, float]:
    """The alignment scalars of a unitary couple against the two spectra.

    M weights Re(S_ij conj(T_ij)) and N weights |T_ij|^2 by the product of
    the i-th second-spectrum and j-th first-spectrum values, over i < s,
    j < r.
    """
    r, s = pair.r, pair.s
    w = np.multiply.outer(pair.sigma_tilde, pair.sigma)
    st = np.real(S[:s, :r] * np.conj(T[:s, :r]))
    M = float((w * st).sum())
    N = float((w * np.abs(T[:s, :r]) ** 2).sum())
    return M, N


def _witness_scalars(pair: SpectrumPair) -> FGScalars:
    """F and G of a pair whose witness can be built and checked: F is the
    squared norm ||A||^2 + ||A~||^2 of the witness, so it must be finite,
    and normal, since the checks take norms relative to F."""
    fg = fg_scalars(pair)
    check_range("F = ||A||^2 + ||A~||^2", fg.F, sys.float_info.min, sys.float_info.max)
    return fg


def _diagnose(bound_id: str, pair: SpectrumPair, A: np.ndarray, A_tilde: np.ndarray,
              S: np.ndarray, T: np.ndarray) -> WitnessDiagnostics:
    """The body of verify_witness: check the identities, then take the ratio
    of the bound's family from the same four norms."""
    fg = _witness_scalars(pair)
    M, N = couple_scalars(pair, S, T)
    if not (-1e-10 * fg.F <= N <= fg.G + 1e-10 * fg.F):
        raise WitnessVerificationError(f"N = {N} outside [0, G = {fg.G}]")
    # sqrt(G) sqrt(N), not sqrt(G N): the product underflows at tiny scales
    if abs(M) > math.sqrt(fg.G) * math.sqrt(max(N, 0.0)) + 1e-10 * fg.F:
        raise WitnessVerificationError(f"|M| = {abs(M)} exceeds sqrt(G N)")

    pf = polar_decompose(A, pair.r)
    pf_t = polar_decompose(A_tilde, pair.s)
    # one stacked call; each norm is that of its matrix alone, bit for bit
    matrices = [A_tilde - A, A_tilde + A, pf.H - pf_t.H, pf.H + pf_t.H]
    if bound_id.startswith("q"):
        matrices.append(pf.Q - pf_t.Q)
    diff, total, h_diff, h_total, *q_diff = frobenius_norms(np.stack(matrices)).tolist()
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
    A = S @ _embed_diag(pair.sigma, m) @ T.conj().T
    A_tilde = _embed_diag(pair.sigma_tilde, m)
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
    """First-r-column blocks of the two unitaries realizing the q optimum."""
    r, s = pair.r, pair.s
    m = s + r
    S_part = np.zeros((m, r), dtype=complex)
    T_part = np.zeros((m, r), dtype=complex)
    if upper:
        # aligned identity on the first r-k directions, anti-aligned reversal
        # pairing the k smallest first-spectrum values with the k smallest
        # second-spectrum values
        j = np.arange(r - k)
        S_part[j, j] = T_part[j, j] = 1.0
        j = np.arange(1, k + 1)
        S_part[s - k + j - 1, r - j] = 1.0
        T_part[s - k + j - 1, r - j] = -1.0
    else:
        # anti-aligned identity on the first k directions, aligned reversal
        # pairing the rest
        j = np.arange(k)
        S_part[j, j] = 1.0
        T_part[j, j] = -1.0
        j = np.arange(1, r - k + 1)
        S_part[s - r + k + j - 1, r - j] = T_part[s - r + k + j - 1, r - j] = 1.0
    return S_part, T_part


def _shrunken_diag_unitary(pair: SpectrumPair, c: float) -> np.ndarray:
    """n x n unitary whose leading r x r block is c I (|c| < 1), zero to row s.

    The missing column mass sqrt(1 - c^2) lands at rows s+1 .. s+r, one row
    per column, which keeps the alignment scalars untouched (they only see
    rows up to s).
    """
    r, s = pair.r, pair.s
    T_part = np.zeros((s + r, r), dtype=complex)
    T_part[np.arange(r), np.arange(r)] = c
    return unitary_completion(T_part, zero_rows=range(r, s))


def make_witness(pair: SpectrumPair, bound_id: str) -> ExtremalWitness:
    """Pair attaining one of the six bounds in BOUND_IDS, e.g. 'q-upper' or
    'lee-lower': the upper and lower constants of the subunitary (q),
    positive (h) and sum-ratio (lee) factors. The pair is certified by the
    checks of verify_witness; WitnessVerificationError if it fails them or
    misses its constant.
    """
    if bound_id not in BOUND_IDS:
        raise ValueError(f"unknown bound id {bound_id!r}; expected one of {BOUND_IDS}")
    r, s = pair.r, pair.s
    m = s + r
    if bound_id.startswith("q"):
        result, _ = bounds.closed_form(bound_id)(pair)
        S_part, T_part = _q_partial_blocks(pair, bound_id == "q-upper", result.optimal_index)
        band = range(s, m)
        return _build_witness(bound_id, pair, unitary_completion(S_part, zero_rows=band),
                              unitary_completion(T_part, zero_rows=band), result.coefficient)

    _witness_scalars(pair)   # rejects a pair outside the witnesses' range first
    u = pair.unit_sums
    target = bounds.closed_form(bound_id)(pair).coefficient
    U = np.eye(m, dtype=complex)
    V = np.eye(m, dtype=complex)
    if bound_id == "h-upper":
        c = 1.0 / (1.0 + math.sqrt(u.D / u.F))
        if c == 1.0:
            raise DegenerateSupremumError(
                "spectra identical, or too close for the shrink factor to fall "
                "below 1 in floating point: the upper constant is approached "
                "but not attained by any pair")
        V = _shrunken_diag_unitary(pair, c)
    else:
        U[np.arange(r), np.arange(r)] = -1.0
        if bound_id == "lee-upper":
            c = 1.0 / (1.0 + math.sqrt(1.0 + 2.0 * u.G / u.F))
            # the shrunken block must carry the same sign as the leading block
            # of U: equality needs the alignment scalar M positive at +sqrt(G N)
            V = _shrunken_diag_unitary(pair, -c)
    return _build_witness(bound_id, pair, U, V, target)


def verify_witness(w: ExtremalWitness) -> WitnessDiagnostics:
    """Recompute every norm two ways and require agreement.

    The four squared norms (difference and sum of the matrices, difference
    and sum of the positive factors) must match their closed-form values
    F -+ 2M and F -+ 2N within 1e-10 relative; polar factors are recomputed
    from the matrices, at the ranks r of A and s of A~. The achieved ratio
    is taken from the same norms.
    """
    return _diagnose(w.bound_id, w.pair, w.A, w.A_tilde, w.S, w.T)
