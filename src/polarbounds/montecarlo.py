"""Seeded randomized falsification of every inequality in the library.

Samples matrix pairs with prescribed spectra and ranks, recomputes polar
factors from scratch, and checks each sharp bound on each sample. Violations
are collected as data, never raised: the suite's job is falsification
reporting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import bounds
from .linalg import (SvdResult, frobenius, ginibre, haar_from_ginibre, haar_random_unitary,
                     polar_decompose, polar_from_svd, svd, svd_stack)
from .spectra import validate_eigen_pair, validate_spectrum_pair

_CHUNK = 32   # trials per stacked QR and SVD; larger chunks cost memory and gain little
SPECTRUM_RANGE = (1e-2, 1e2)   # log-uniform law of the drawn singular values
NORMAL_DIM = 3                 # square size for the normal-matrix channel


@dataclass(frozen=True)
class EnsembleConfig:
    m: int
    n: int
    trials: int
    seed: int
    field: str = "complex"            # "complex" | "real"
    r: Optional[int] = None           # None: drawn per trial
    s: Optional[int] = None
    max_rank: Optional[int] = None    # cap for drawn ranks; default min(m, n)
    slack_tol: float = 1e-9

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.trials < 1:
            raise ValueError("m, n, trials must be >= 1")
        if self.field not in ("complex", "real"):
            raise ValueError(f"field must be 'complex' or 'real', got {self.field!r}")
        cap = min(self.m, self.n)
        for name, v in (("r", self.r), ("s", self.s), ("max_rank", self.max_rank)):
            if v is not None and not (1 <= v <= cap):
                raise ValueError(f"{name}={v} outside [1, {cap}]")
        if self.r is not None and self.s is not None and self.r > self.s:
            raise ValueError("need r <= s")
        if not self.slack_tol >= 0:
            raise ValueError(f"slack_tol must be nonnegative, got {self.slack_tol!r}")


@dataclass(frozen=True)
class Violation:
    trial: int
    inequality: str
    margin: float


@dataclass
class SuiteReport:
    trials: int
    max_ratio_to_bound: Dict[str, float] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)
    wall_time: float = 0.0

    def body(self) -> dict:
        """Deterministic content (wall time excluded)."""
        return {
            "trials": self.trials,
            "max_ratio_to_bound": {k: self.max_ratio_to_bound[k]
                                   for k in sorted(self.max_ratio_to_bound)},
            "violations": [(v.trial, v.inequality, v.margin)
                           for v in self.violations],
        }


def random_matrix_with_spectrum(sigma, m: int, n: int, seed: int,
                                fld: str = "complex") -> np.ndarray:
    """Matrix with the given singular values and Haar-random singular vectors."""
    sigma = np.asarray(sigma, dtype=float)
    k = len(sigma)
    if k > min(m, n):
        raise ValueError(f"{k} singular values do not fit an {m}x{n} matrix")
    rng = np.random.default_rng(seed)
    return _with_spectrum(sigma, haar_random_unitary(m, rng, fld),
                          haar_random_unitary(n, rng, fld))


def _with_spectrum(sigma: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """U[:, :k] diag(sigma) V[:, :k]* for the k = len(sigma) leading columns."""
    k = len(sigma)
    return (u[:, :k] * sigma) @ v[:, :k].conj().T


def _log_uniform(rng: np.random.Generator, size: int):
    lo, hi = SPECTRUM_RANGE
    vals = np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))
    return np.sort(vals)[::-1]


class _Recorder:
    def __init__(self, trial: int, slack_tol: float):
        self.trial = trial
        self.slack_tol = slack_tol
        self.ratios: Dict[str, float] = {}
        self.violations: List[Violation] = []

    def upper(self, ineq: str, value: float, bound: float, scale: float):
        """Record value <= bound with slack proportional to scale."""
        slack = self.slack_tol * max(scale, 1e-300)
        if value > bound + slack:
            self.violations.append(Violation(self.trial, ineq, value - bound))
        if bound > 0:
            self.ratios[ineq] = value / bound

    def lower(self, ineq: str, value: float, bound: float, scale: float):
        """Record value >= bound with slack proportional to scale."""
        slack = self.slack_tol * max(scale, 1e-300)
        if value < bound - slack:
            self.violations.append(Violation(self.trial, ineq, bound - value))
        if value > 0:
            self.ratios[ineq] = bound / value


def angle_cosines(a: np.ndarray, b: np.ndarray, h_a: np.ndarray,
                  h_b: np.ndarray) -> Tuple[float, float]:
    """cos of the angle between the matrices and between their positive factors."""
    na, nb = frobenius(a), frobenius(b)
    cos_alpha = float(np.real(np.vdot(b, a))) / (na * nb)
    cos_beta = float(np.real(np.vdot(h_b, h_a))) / (na * nb)
    return cos_alpha, cos_beta


def check_polar_pair(rec: _Recorder, a: np.ndarray, a_tilde: np.ndarray,
                     r: int, s: int) -> None:
    """Assertion families (a)-(f) and (h) on one general matrix pair of
    ranks r and s."""
    _check_polar_svds(rec, a, a_tilde, svd(a), svd(a_tilde), r, s)


def _check_polar_svds(rec: _Recorder, a: np.ndarray, a_tilde: np.ndarray,
                      res: SvdResult, res_t: SvdResult, r: int, s: int) -> None:
    """`check_polar_pair` given the SVDs of a and a_tilde."""
    pf, pf_t = polar_from_svd(res, r), polar_from_svd(res_t, s)
    pair = validate_spectrum_pair(res.singular_values[:r], res_t.singular_values[:s])

    e_norm = frobenius(a_tilde - a)
    q_gap = frobenius(pf.Q - pf_t.Q)
    h_gap = frobenius(pf.H - pf_t.H)
    h_sum = frobenius(pf.H + pf_t.H)
    a_sum = frobenius(a + a_tilde)

    q_up, _ = bounds.q_upper_coeff(pair)
    q_lo, _ = bounds.q_lower_coeff(pair)
    rec.upper("q-upper", q_gap, q_up.coefficient * e_norm, e_norm)
    rec.lower("q-lower", q_gap, q_lo.coefficient * e_norm, e_norm)

    h_up = bounds.h_upper_coeff(pair).coefficient
    h_lo = bounds.h_lower_coeff(pair).coefficient
    rec.upper("h-upper", h_gap, h_up * e_norm, e_norm)
    rec.lower("h-lower", h_gap, h_lo * e_norm, e_norm)
    rec.upper("h-classical", h_gap, bounds.SQRT2 * e_norm, e_norm)

    lee_up = bounds.lee_upper_coeff(pair).coefficient
    lee_lo = bounds.lee_lower_coeff(pair).coefficient
    rec.upper("lee-upper", a_sum, lee_up * h_sum, h_sum)
    rec.lower("lee-lower", a_sum, lee_lo * h_sum, h_sum)

    amgm = bounds.amgm_coeff(pair).coefficient
    gram_sum = frobenius(a.conj().T @ a + a_tilde.conj().T @ a_tilde)
    prod = frobenius(a @ a_tilde.conj().T)
    rec.upper("amgm", prod, amgm * gram_sum, gram_sum)
    rec.upper("amgm-classical", prod, 0.5 * gram_sum, gram_sum)

    cs = bounds.cauchy_schwarz_coeff(pair).coefficient
    tr = abs(complex(np.vdot(a_tilde, a)))
    scale = frobenius(a) * frobenius(a_tilde)
    rec.upper("cauchy-schwarz", tr, cs * scale, scale)
    rec.upper("cs-classical", tr, scale, scale)

    # two-sided absolute-value perturbation: |A*| = U1 S1 U1* from the same SVD
    pf_l = polar_from_svd(res.adjoint(), r)
    pf_tl = polar_from_svd(res_t.adjoint(), s)
    lhs = h_gap ** 2 + frobenius(pf_l.H - pf_tl.H) ** 2
    rec.upper("kittaneh-two-sided", lhs, 2.0 * e_norm ** 2, e_norm ** 2)

    cos_alpha, cos_beta = angle_cosines(a, a_tilde, pf.H, pf_t.H)
    rec.upper("angle", cos_alpha ** 2, cos_beta, 1.0)


def check_normal_pair(rec: _Recorder, a: np.ndarray, b: np.ndarray,
                      lam, lam_hat, full_rank_b: bool) -> None:
    """Assertion family (g): the normal-matrix channel, where a and b have
    the non-zero eigenvalues lam and lam_hat."""
    _check_normal_factors(rec, a, b, polar_decompose(a, len(lam)).H,
                          polar_decompose(b, len(lam_hat)).H, lam, lam_hat, full_rank_b)


def _check_normal_factors(rec: _Recorder, a: np.ndarray, b: np.ndarray,
                          h_a: np.ndarray, h_b: np.ndarray, lam, lam_hat,
                          full_rank_b: bool) -> None:
    """`check_normal_pair` given the positive factors |a| and |b|."""
    gap = frobenius(h_a - h_b)
    diff = frobenius(a - b)
    eig = validate_eigen_pair(lam, lam_hat)
    lo = bounds.kittaneh_lower_coeff(eig)
    rec.upper("kittaneh-normal-classical", gap, diff, diff)
    if not lo.degenerate:
        rec.lower("kittaneh-normal-lower", gap, lo.coefficient * diff, diff)
    if full_rank_b and not eig.swapped:
        up = bounds.kittaneh_upper_coeff(eig, n=b.shape[0])
        if not up.degenerate:
            rec.upper("kittaneh-normal-upper", gap, up.coefficient * diff, diff)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(trial,)))


def _draw(config: EnsembleConfig, trial: int):
    """The trial's random draws, in the order of its streams, as five pairs:
    the spectra of A and A~, the Ginibre matrices for their left and their
    right singular vectors, the normal pair's eigenvalues and the Ginibre
    matrices for its two bases."""
    rng = _trial_rng(config.seed, trial)
    fld = config.field
    cap = config.max_rank or min(config.m, config.n)
    r = config.r if config.r is not None else int(rng.integers(1, cap + 1))
    s = config.s if config.s is not None else int(rng.integers(r, cap + 1))
    spectra = (_log_uniform(rng, r), _log_uniform(rng, s))

    # each matrix's singular vectors come from a generator of its own, as in
    # random_matrix_with_spectrum
    lefts, rights = [], []
    for seed in rng.integers(0, 2 ** 63 - 1, size=2):
        sub = np.random.default_rng(int(seed))
        lefts.append(ginibre(sub, config.m, fld))
        rights.append(ginibre(sub, config.n, fld))

    # normal-matrix channel at small size so the arrangement optimum is exact
    nn = NORMAL_DIM
    rn = int(rng.integers(1, nn + 1))
    sn = int(rng.integers(rn, nn + 1))
    moduli_a = rng.uniform(0.5, 2.0, size=rn)
    moduli_b = rng.uniform(0.5, 2.0, size=sn)
    if fld == "complex":
        lam = moduli_a * np.exp(2j * np.pi * rng.uniform(size=rn))
        lam_hat = moduli_b * np.exp(2j * np.pi * rng.uniform(size=sn))
    else:
        lam = moduli_a * rng.choice([-1.0, 1.0], size=rn)
        lam_hat = moduli_b * rng.choice([-1.0, 1.0], size=sn)
    bases = (ginibre(rng, nn, fld), ginibre(rng, nn, fld))
    return spectra, lefts, rights, (lam, lam_hat), bases


def _normal_matrix(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """U diag(lam, 0, ..., 0) U*."""
    nn = u.shape[0]
    return (u * np.concatenate([lam, np.zeros(nn - len(lam))])) @ u.conj().T


def _run_chunk(config: EnsembleConfig, trials: range) -> List[_Recorder]:
    """Trials run together, each with its own streams and with results
    bit-identical to running it alone: one QR call per role of the Haar
    factors and one SVD call per channel for the whole chunk.

    Matrix 2i of every stack below belongs to the i-th trial's first matrix
    (A, or the normal pair's A), matrix 2i + 1 to its second.
    """
    spectra, lefts, rights, eigs, bases = (
        [x for pair in role for x in pair]
        for role in zip(*(_draw(config, t) for t in trials)))
    left, right, basis = (haar_from_ginibre(np.stack(z)) for z in (lefts, rights, bases))
    general = np.stack([_with_spectrum(x, u, v) for x, u, v in zip(spectra, left, right)])
    normal = np.stack([_normal_matrix(u, x) for x, u in zip(eigs, basis)])
    del lefts, rights, bases, left, right, basis   # free them before the SVDs
    # the SVD sees complex input, as in `svd`; the checks see the matrices as built
    res = svd_stack(general)
    res_n = svd_stack(normal)

    recs = []
    for i, trial in enumerate(trials):
        first, second = 2 * i, 2 * i + 1
        rec = _Recorder(trial, config.slack_tol)
        r, s = len(spectra[first]), len(spectra[second])
        lam, lam_hat = eigs[first], eigs[second]
        _check_polar_svds(rec, general[first], general[second], res[first], res[second],
                          r, s)
        _check_normal_factors(rec, normal[first], normal[second],
                              polar_from_svd(res_n[first], len(lam)).H,
                              polar_from_svd(res_n[second], len(lam_hat)).H, lam, lam_hat,
                              full_rank_b=len(lam_hat) == NORMAL_DIM)
        recs.append(rec)
    return recs


def run_trial(config: EnsembleConfig, trial: int) -> _Recorder:
    """One independent sample; deterministic given (config.seed, trial)."""
    return _run_chunk(config, range(trial, trial + 1))[0]


def run_verification_suite(config: EnsembleConfig) -> SuiteReport:
    start = time.monotonic()
    report = SuiteReport(trials=config.trials)
    for first in range(0, config.trials, _CHUNK):
        for rec in _run_chunk(config, range(first, min(first + _CHUNK, config.trials))):
            report.violations.extend(rec.violations)
            for ineq, ratio in rec.ratios.items():
                prev = report.max_ratio_to_bound.get(ineq)
                if prev is None or ratio > prev:
                    report.max_ratio_to_bound[ineq] = ratio
    report.wall_time = time.monotonic() - start
    return report
