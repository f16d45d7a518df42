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
from .linalg import frobenius, polar_decompose, unitary_completion
from .spectra import FGScalars, SpectrumPair, check_range, fg_scalars

RATIO_RTOL = 1e-8

BOUND_IDS = ("q-max", "q-min", "h-max", "h-min", "lee-max", "lee-min")


class DegenerateSupremumError(ValueError):
    """The upper bound is a supremum approached only in the limit.

    Raised for the positive-factor upper witness on identical spectra, where
    the constant sqrt(2) is not attained by any finite pair.
    """


class WitnessVerificationError(RuntimeError):
    """A recomputed norm identity failed on a constructed witness."""


@dataclass(frozen=True)
class UnitaryCouple:
    S: np.ndarray    # m x m unitary (left factor of the first matrix)
    T: np.ndarray    # n x n unitary (right factor of the first matrix)


@dataclass(frozen=True)
class WitnessDiagnostics:
    M: float              # spectra-weighted alignment of S against T
    N: float              # spectra-weighted mass of T's leading block
    E_norm: float
    factor_gap_norm: float
    achieved_ratio: float


@dataclass(frozen=True)
class ExtremalWitness:
    bound_id: str
    A: np.ndarray
    A_tilde: np.ndarray
    couple: UnitaryCouple
    target_coefficient: float
    diagnostics: WitnessDiagnostics
    m: int
    n: int
    pair: SpectrumPair


def _embed_diag(values, m: int, n: int) -> np.ndarray:
    out = np.zeros((m, n), dtype=complex)
    for j, v in enumerate(values):
        out[j, j] = v
    return out


def couple_scalars(pair: SpectrumPair, S: np.ndarray, T: np.ndarray
                   ) -> Tuple[float, float]:
    """The alignment scalars of a unitary couple against the two spectra.

    M weights Re(S_ij conj(T_ij)) and N weights |T_ij|^2 by the product of
    the i-th second-spectrum and j-th first-spectrum values, over i < s,
    j < r.
    """
    r, s = pair.r, pair.s
    sig = np.asarray(pair.sigma)
    sigt = np.asarray(pair.sigma_tilde)
    w = np.outer(sigt, sig)
    st = np.real(S[:s, :r] * np.conj(T[:s, :r]))
    M = float(np.sum(w * st))
    N = float(np.sum(w * np.abs(T[:s, :r]) ** 2))
    return M, N


def _witness_scalars(pair: SpectrumPair) -> FGScalars:
    """F and G of a pair whose witness can be built and checked: F is the
    squared norm ||A||^2 + ||A~||^2 of the witness, so it must be finite."""
    fg = fg_scalars(pair)
    check_range("F = ||A||^2 + ||A~||^2", fg.F, 0.0, sys.float_info.max)
    return fg


def _achieved_ratio(bound_id: str, A: np.ndarray, A_tilde: np.ndarray,
                    pf, pf_t) -> Tuple[float, float, float]:
    """(||A~ - A||, factor gap norm, achieved ratio) of a pair for its bound family."""
    e_norm = frobenius(A_tilde - A)
    if bound_id.startswith("q"):
        gap = frobenius(pf.Q - pf_t.Q)
        achieved = gap / e_norm
    elif bound_id.startswith("h"):
        gap = frobenius(pf.H - pf_t.H)
        achieved = gap / e_norm
    else:
        gap = frobenius(pf.H + pf_t.H)
        achieved = frobenius(A + A_tilde) / gap
    return e_norm, gap, achieved


def _build_witness(bound_id: str, pair: SpectrumPair, U: np.ndarray,
                   V: np.ndarray, target: float) -> ExtremalWitness:
    r, s = pair.r, pair.s
    m = n = s + r
    sigma = _embed_diag(pair.sigma, m, n)
    sigma_tilde = _embed_diag(pair.sigma_tilde, m, n)
    A = U @ sigma @ V.conj().T
    A_tilde = sigma_tilde

    pf = polar_decompose(A, r)
    pf_t = polar_decompose(A_tilde, s)
    e_norm, gap, achieved = _achieved_ratio(bound_id, A, A_tilde, pf, pf_t)

    M, N = couple_scalars(pair, U, V)
    diag = WitnessDiagnostics(M=M, N=N, E_norm=e_norm, factor_gap_norm=gap,
                              achieved_ratio=achieved)
    w = ExtremalWitness(bound_id=bound_id, A=A, A_tilde=A_tilde,
                        couple=UnitaryCouple(S=U, T=V),
                        target_coefficient=target, diagnostics=diag, m=m, n=n,
                        pair=pair)
    rel = abs(achieved - target) / max(abs(target), 1e-300)
    if target == 0.0:
        rel = abs(achieved)
    if rel > RATIO_RTOL:
        raise WitnessVerificationError(
            f"{bound_id}: achieved ratio {achieved} misses target {target} "
            f"(relative error {rel:.3g})")
    return w


def _q_partial_blocks(pair: SpectrumPair, which: str, k: int
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """First-r-column blocks of the two unitaries realizing the q optimum."""
    r, s = pair.r, pair.s
    m = s + r
    S_part = np.zeros((m, r), dtype=complex)
    T_part = np.zeros((m, r), dtype=complex)
    if which == "max":
        # aligned identity on the first r-k directions, anti-aligned reversal
        # pairing the k smallest first-spectrum values with the k smallest
        # second-spectrum values
        for j in range(r - k):
            S_part[j, j] = 1.0
            T_part[j, j] = 1.0
        for j in range(1, k + 1):
            S_part[s - k + j - 1, r - j] = 1.0
            T_part[s - k + j - 1, r - j] = -1.0
    else:
        # anti-aligned identity on the first k directions, aligned reversal
        # pairing the rest
        for j in range(k):
            S_part[j, j] = 1.0
            T_part[j, j] = -1.0
        for j in range(1, r - k + 1):
            S_part[s - r + k + j - 1, r - j] = 1.0
            T_part[s - r + k + j - 1, r - j] = 1.0
    return S_part, T_part


def q_witness(pair: SpectrumPair, which: str) -> ExtremalWitness:
    """Pair attaining the subunitary-factor upper ('max') or lower ('min') bound."""
    if which not in ("max", "min"):
        raise ValueError(f"which must be 'max' or 'min', got {which!r}")
    if which == "max":
        result, _ = bounds.q_upper_coeff(pair)
    else:
        result, _ = bounds.q_lower_coeff(pair)
    k = result.optimal_index
    m = pair.s + pair.r
    S_part, T_part = _q_partial_blocks(pair, which, k)
    band = range(pair.s, m)
    U = unitary_completion(S_part, zero_rows=band)
    V = unitary_completion(T_part, zero_rows=band)
    return _build_witness(f"q-{which}", pair, U, V, result.coefficient)


def _shrunken_diag_unitary(pair: SpectrumPair, c: float) -> np.ndarray:
    """n x n unitary whose leading r x r block is c I (|c| < 1), zero to row s.

    The missing column mass sqrt(1 - c^2) lands at rows s+1 .. s+r, one row
    per column, which keeps the alignment scalars untouched (they only see
    rows up to s).
    """
    r, s = pair.r, pair.s
    n = s + r
    T_part = np.zeros((n, r), dtype=complex)
    for j in range(r):
        T_part[j, j] = c
    return unitary_completion(T_part, zero_rows=range(r, s))


def h_witness(pair: SpectrumPair, which: str) -> ExtremalWitness:
    """Pair attaining the positive-factor upper ('max') or lower ('min') bound."""
    if which not in ("max", "min"):
        raise ValueError(f"which must be 'max' or 'min', got {which!r}")
    r, s = pair.r, pair.s
    m = n = s + r
    fg = _witness_scalars(pair)
    if which == "max":
        if fg.D == 0.0:
            raise DegenerateSupremumError(
                "identical spectra: the upper constant sqrt(2) is approached "
                "but not attained by any finite pair")
        target = bounds.h_upper_coeff(pair).coefficient
        c = 1.0 / (1.0 + math.sqrt(fg.D / fg.F))
        U = np.eye(m, dtype=complex)
        V = _shrunken_diag_unitary(pair, c)
    else:
        target = bounds.h_lower_coeff(pair).coefficient
        U = np.eye(m, dtype=complex)
        U[np.arange(r), np.arange(r)] = -1.0
        V = np.eye(n, dtype=complex)
    return _build_witness(f"h-{which}", pair, U, V, target)


def lee_witness(pair: SpectrumPair, which: str) -> ExtremalWitness:
    """Pair attaining the sum-ratio upper ('max') or lower ('min') bound."""
    if which not in ("max", "min"):
        raise ValueError(f"which must be 'max' or 'min', got {which!r}")
    r, s = pair.r, pair.s
    m = n = s + r
    fg = _witness_scalars(pair)
    U = np.eye(m, dtype=complex)
    U[np.arange(r), np.arange(r)] = -1.0
    if which == "max":
        target = bounds.lee_upper_coeff(pair).coefficient
        c = 1.0 / (1.0 + math.sqrt(1.0 + 2.0 * fg.G / fg.F))
        # the shrunken block must carry the same sign as the leading block of
        # U: equality needs the alignment scalar M positive at +sqrt(G N)
        V = _shrunken_diag_unitary(pair, -c)
    else:
        target = bounds.lee_lower_coeff(pair).coefficient
        V = np.eye(n, dtype=complex)
    return _build_witness(f"lee-{which}", pair, U, V, target)


def make_witness(pair: SpectrumPair, bound_id: str) -> ExtremalWitness:
    """Dispatch on one of the six bound ids, e.g. 'q-max' or 'lee-min'."""
    if bound_id not in BOUND_IDS:
        raise ValueError(f"unknown bound id {bound_id!r}; expected one of {BOUND_IDS}")
    family, which = bound_id.split("-")
    builder = {"q": q_witness, "h": h_witness, "lee": lee_witness}[family]
    return builder(pair, which)


def verify_witness(w: ExtremalWitness) -> WitnessDiagnostics:
    """Recompute every norm two ways and require agreement.

    The four squared norms (difference and sum of the matrices, difference
    and sum of the positive factors) must match their closed-form values
    F -+ 2M and F -+ 2N within 1e-10 relative; polar factors are recomputed
    from the matrices, at the ranks r of A and s of A~.
    """
    pair = w.pair
    fg = _witness_scalars(pair)
    M, N = couple_scalars(pair, w.couple.S, w.couple.T)
    if not (-1e-10 * fg.F <= N <= fg.G + 1e-10 * fg.F):
        raise WitnessVerificationError(f"N = {N} outside [0, G = {fg.G}]")
    if abs(M) > math.sqrt(max(fg.G * N, 0.0)) + 1e-10 * fg.F:
        raise WitnessVerificationError(f"|M| = {abs(M)} exceeds sqrt(G N)")

    pf = polar_decompose(w.A, pair.r)
    pf_t = polar_decompose(w.A_tilde, pair.s)
    checks = {
        "difference-norm": (frobenius(w.A_tilde - w.A) ** 2, fg.F - 2.0 * M),
        "sum-norm": (frobenius(w.A_tilde + w.A) ** 2, fg.F + 2.0 * M),
        "factor-difference-norm": (frobenius(pf.H - pf_t.H) ** 2, fg.F - 2.0 * N),
        "factor-sum-norm": (frobenius(pf.H + pf_t.H) ** 2, fg.F + 2.0 * N),
    }
    for name, (direct, closed) in checks.items():
        if abs(direct - closed) > 1e-10 * max(1.0, abs(closed), fg.F):
            raise WitnessVerificationError(
                f"{name}: direct {direct} vs closed form {closed}")

    e_norm, gap, achieved = _achieved_ratio(w.bound_id, w.A, w.A_tilde, pf, pf_t)
    return WitnessDiagnostics(M=M, N=N, E_norm=e_norm, factor_gap_norm=gap,
                              achieved_ratio=achieved)
