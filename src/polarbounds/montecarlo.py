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
from .linalg import frobenius, haar_random_unitary, polar_decompose, polar_from_svd, svd
from .spectra import validate_eigen_pair, validate_spectrum_pair

INEQUALITY_IDS = (
    "q-lower", "q-upper",
    "h-lower", "h-upper", "h-classical",
    "lee-lower", "lee-upper",
    "amgm", "amgm-classical",
    "cauchy-schwarz", "cs-classical",
    "kittaneh-two-sided",
    "kittaneh-normal-lower", "kittaneh-normal-upper", "kittaneh-normal-classical",
    "angle",
)


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
    spectrum_range: Tuple[float, float] = (1e-2, 1e2)   # log-uniform law
    rank_tol: float = 1e-12
    slack_tol: float = 1e-9
    normal_dim: int = 3               # square size for the normal-matrix channel

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
        lo, hi = self.spectrum_range
        if not (0 < lo <= hi):
            raise ValueError("spectrum_range must be positive and ordered")


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
    u = haar_random_unitary(m, rng, fld)[:, :k]
    v = haar_random_unitary(n, rng, fld)[:, :k]
    return (u * sigma) @ v.conj().T


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, size: int):
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
                     rank_tol: float) -> None:
    """Assertion families (a)-(f) and (h) on one general matrix pair."""
    res, res_t = svd(a, rank_tol), svd(a_tilde, rank_tol)
    pf, pf_t = polar_from_svd(res), polar_from_svd(res_t)
    if pf.degenerate or pf_t.degenerate:
        return
    sig = res.singular_values[:pf.rank]
    sig_t = res_t.singular_values[:pf_t.rank]
    if pf.rank <= pf_t.rank:
        pair = validate_spectrum_pair(sig, sig_t)
    else:
        pair = validate_spectrum_pair(sig_t, sig)

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
    pf_l = polar_from_svd(res.adjoint())
    pf_tl = polar_from_svd(res_t.adjoint())
    lhs = h_gap ** 2 + frobenius(pf_l.H - pf_tl.H) ** 2
    rec.upper("kittaneh-two-sided", lhs, 2.0 * e_norm ** 2, e_norm ** 2)

    cos_alpha, cos_beta = angle_cosines(a, a_tilde, pf.H, pf_t.H)
    rec.upper("angle", cos_alpha ** 2, cos_beta, 1.0)


def check_normal_pair(rec: _Recorder, a: np.ndarray, b: np.ndarray,
                      lam, lam_hat, full_rank_b: bool, rank_tol: float) -> None:
    """Assertion family (g): the normal-matrix channel."""
    h_a = polar_decompose(a, rank_tol).H
    h_b = polar_decompose(b, rank_tol).H
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


def run_trial(config: EnsembleConfig, trial: int) -> _Recorder:
    """One independent sample; deterministic given (config.seed, trial)."""
    rng = _trial_rng(config.seed, trial)
    rec = _Recorder(trial, config.slack_tol)
    cap = config.max_rank or min(config.m, config.n)
    r = config.r if config.r is not None else int(rng.integers(1, cap + 1))
    s = config.s if config.s is not None else int(rng.integers(r, cap + 1))
    lo, hi = config.spectrum_range
    sig = _log_uniform(rng, lo, hi, r)
    sig_t = _log_uniform(rng, lo, hi, s)

    sub = rng.integers(0, 2 ** 63 - 1, size=2)
    a = random_matrix_with_spectrum(sig, config.m, config.n, int(sub[0]), config.field)
    a_tilde = random_matrix_with_spectrum(sig_t, config.m, config.n, int(sub[1]),
                                          config.field)
    check_polar_pair(rec, a, a_tilde, config.rank_tol)

    # normal-matrix channel at small size so the arrangement optimum is exact
    nn = config.normal_dim
    rn = int(rng.integers(1, nn + 1))
    sn = int(rng.integers(rn, nn + 1))
    moduli_a = rng.uniform(0.5, 2.0, size=rn)
    moduli_b = rng.uniform(0.5, 2.0, size=sn)
    if config.field == "complex":
        lam = moduli_a * np.exp(2j * np.pi * rng.uniform(size=rn))
        lam_hat = moduli_b * np.exp(2j * np.pi * rng.uniform(size=sn))
    else:
        lam = moduli_a * rng.choice([-1.0, 1.0], size=rn)
        lam_hat = moduli_b * rng.choice([-1.0, 1.0], size=sn)
    u = haar_random_unitary(nn, rng, config.field)
    w = haar_random_unitary(nn, rng, config.field)
    a_n = (u * np.concatenate([lam, np.zeros(nn - rn)])) @ u.conj().T
    b_n = (w * np.concatenate([lam_hat, np.zeros(nn - sn)])) @ w.conj().T
    check_normal_pair(rec, a_n, b_n, lam, lam_hat, full_rank_b=(sn == nn),
                      rank_tol=config.rank_tol)
    return rec


def run_verification_suite(config: EnsembleConfig) -> SuiteReport:
    start = time.monotonic()
    report = SuiteReport(trials=config.trials)
    for t in range(config.trials):
        rec = run_trial(config, t)
        report.violations.extend(rec.violations)
        for ineq, ratio in rec.ratios.items():
            prev = report.max_ratio_to_bound.get(ineq)
            if prev is None or ratio > prev:
                report.max_ratio_to_bound[ineq] = ratio
    report.wall_time = time.monotonic() - start
    return report
