"""Seeded randomized falsification of every inequality in the library.

Samples matrix pairs with prescribed spectra and ranks, recomputes polar
factors from scratch, and checks each sharp bound on each sample. Violations
are collected as data, never raised: the suite's job is falsification
reporting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import bounds, linalg
from .linalg import (conj_transpose, frobenius_norms, ginibre_from_normals, ginibre_normals,
                     haar_from_ginibre, haar_random_unitary, inner_products, polar_from_svd,
                     positive_factor, svd_stack)
from .spectra import validate_eigen_pair, validate_spectrum_pair

_CHUNK = 32   # trials per stacked QR and SVD; larger chunks cost memory and gain little
SPECTRUM_RANGE = (1e-2, 1e2)   # log-uniform law of the drawn singular values
NORMAL_DIM = 3                 # square size for the normal-matrix channel
_LOG_RANGE = (np.log(SPECTRUM_RANGE[0]), np.log(SPECTRUM_RANGE[1]))

# no check here calls it any more, but perfbench/ patches and traces the
# name on this module
polar_decompose = linalg.polar_decompose


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
        if self.max_rank is not None and self.r is not None and self.s is None \
                and self.r > self.max_rank:
            raise ValueError(f"r={self.r} exceeds max_rank={self.max_rank}, "
                             "the cap for the drawn s >= r")
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
    """U[:, :k] diag(sigma) V[:, :k]* for the k = sigma.shape[-1] leading
    columns, for one matrix or for each of a stack."""
    k = sigma.shape[-1]
    return (u[..., :k] * sigma[..., None, :]) @ conj_transpose(v[..., :k])


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


def _rank_groups(ranks: Sequence[int]) -> Dict[int, List[int]]:
    """rank -> the indices of the matrices of that rank, in order."""
    groups: Dict[int, List[int]] = {}
    for i, rank in enumerate(ranks):
        groups.setdefault(rank, []).append(i)
    return groups


def _norms(x: np.ndarray) -> List[float]:
    return frobenius_norms(x).tolist()


def check_polar_pair(rec: _Recorder, a: np.ndarray, a_tilde: np.ndarray,
                     r: int, s: int) -> None:
    """Assertion families (a)-(f) and (h) on one general matrix pair of
    ranks r and s."""
    _check_polar_pairs([rec], np.stack([a, a_tilde]), [r, s])


def _check_polar_pairs(recs: List[_Recorder], general: np.ndarray,
                       ranks: Sequence[int]) -> None:
    """`check_polar_pair` on each pair of a stack: matrices 2i and 2i + 1 of
    `general` are recs[i]'s A and A~, of ranks ranks[2i] and ranks[2i + 1].

    The SVDs, polar factors, norms and inner products of all pairs are
    formed with one numpy call each (one per rank for the polar factors);
    the closed forms and the recorder then run pair by pair on floats.
    """
    # the SVD sees complex input, as in `svd`; the checks see the matrices as built
    res = svd_stack(general)
    count, m, n = general.shape
    q = np.empty((count, m, n), dtype=complex)
    h = np.empty((count, n, n), dtype=complex)
    h_left = np.empty((count, m, m), dtype=complex)   # |A*| = U1 S1 U1*
    for rank, idx in _rank_groups(ranks).items():
        group = res[idx]
        pf = polar_from_svd(group, rank)
        q[idx], h[idx] = pf.Q, pf.H
        h_left[idx] = positive_factor(group.adjoint(), rank)
    a, a_t = general[0::2], general[1::2]
    gram = conj_transpose(general) @ general
    norm = _norms(general)
    rows = zip(_norms(a_t - a), _norms(q[0::2] - q[1::2]), _norms(h[0::2] - h[1::2]),
               _norms(h[0::2] + h[1::2]), _norms(a + a_t), _norms(gram[0::2] + gram[1::2]),
               _norms(a @ conj_transpose(a_t)), _norms(h_left[0::2] - h_left[1::2]),
               inner_products(a_t, a).tolist(), inner_products(h[1::2], h[0::2]).tolist())
    sv = res.singular_values.tolist()
    for i, (rec, row) in enumerate(zip(recs, rows)):
        e_norm, q_gap, h_gap, h_sum, a_sum, gram_sum, prod, left_gap, tr_a, tr_h = row
        r, s = ranks[2 * i], ranks[2 * i + 1]
        pair = validate_spectrum_pair(sv[2 * i][:r], sv[2 * i + 1][:s])

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
        rec.upper("amgm", prod, amgm * gram_sum, gram_sum)
        rec.upper("amgm-classical", prod, 0.5 * gram_sum, gram_sum)

        cs = bounds.cauchy_schwarz_coeff(pair).coefficient
        scale = norm[2 * i] * norm[2 * i + 1]
        rec.upper("cauchy-schwarz", abs(tr_a), cs * scale, scale)
        rec.upper("cs-classical", abs(tr_a), scale, scale)

        # two-sided absolute-value perturbation
        lhs = h_gap ** 2 + left_gap ** 2
        rec.upper("kittaneh-two-sided", lhs, 2.0 * e_norm ** 2, e_norm ** 2)

        # cosines of the angles between the matrices and between their positive factors
        cos_alpha, cos_beta = tr_a.real / scale, tr_h.real / scale
        rec.upper("angle", cos_alpha ** 2, cos_beta, 1.0)


def check_normal_pair(rec: _Recorder, a: np.ndarray, b: np.ndarray,
                      lam, lam_hat, full_rank_b: bool) -> None:
    """Assertion family (g): the normal-matrix channel, where a and b have
    the non-zero eigenvalues lam and lam_hat."""
    _check_normal_pairs([rec], np.stack([a, b]), [lam, lam_hat], [full_rank_b])


def _check_normal_pairs(recs: List[_Recorder], normal: np.ndarray, eigs: Sequence,
                        full_rank_b: Sequence[bool]) -> None:
    """`check_normal_pair` on each pair of a stack: matrices 2i and 2i + 1 of
    `normal` are recs[i]'s pair, with non-zero eigenvalues eigs[2i] and
    eigs[2i + 1], and full_rank_b[i] says whether the second has full rank."""
    res = svd_stack(normal)
    h = np.empty(res.V.shape, dtype=complex)
    for rank, idx in _rank_groups([len(x) for x in eigs]).items():
        h[idx] = positive_factor(res[idx], rank)
    rows = zip(_norms(h[0::2] - h[1::2]), _norms(normal[0::2] - normal[1::2]))
    for i, (rec, (gap, diff)) in enumerate(zip(recs, rows)):
        eig = validate_eigen_pair(eigs[2 * i], eigs[2 * i + 1])
        lo = bounds.kittaneh_lower_coeff(eig)
        rec.upper("kittaneh-normal-classical", gap, diff, diff)
        if not lo.degenerate:
            rec.lower("kittaneh-normal-lower", gap, lo.coefficient * diff, diff)
        if full_rank_b[i] and not eig.swapped:
            up = bounds.kittaneh_upper_coeff(eig, n=normal.shape[-1])
            if not up.degenerate:
                rec.upper("kittaneh-normal-upper", gap, up.coefficient * diff, diff)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(trial,)))


def _draw(config: EnsembleConfig, trial: int):
    """The trial's raw random draws, in the order of its streams: the ranks
    r and s, the logs of the singular values of A and then of A~, the
    `ginibre_normals` of the left and right singular vectors of each, the
    normal pair's eigenvalue counts, the moduli and then the phase turns
    (signs in the real field) of both its eigenvalue lists, and the
    `ginibre_normals` of its two bases. `_chunk_draws` transforms them."""
    rng = _trial_rng(config.seed, trial)
    fld = config.field
    cap = config.max_rank or min(config.m, config.n)
    r_cap = cap if config.s is None else min(cap, config.s)
    r = config.r if config.r is not None else int(rng.integers(1, r_cap + 1))
    s = config.s if config.s is not None else int(rng.integers(r, cap + 1))
    logs = rng.uniform(*_LOG_RANGE, size=r + s)

    # each matrix's singular vectors come from a generator of its own, as in
    # random_matrix_with_spectrum
    vectors = tuple(ginibre_normals(np.random.default_rng(int(seed)), (config.m, config.n),
                                    fld) for seed in rng.integers(0, 2 ** 63 - 1, size=2))

    # normal-matrix channel at small size so the arrangement optimum is exact
    nn = NORMAL_DIM
    rn = int(rng.integers(1, nn + 1))
    sn = int(rng.integers(rn, nn + 1))
    moduli = rng.uniform(0.5, 2.0, size=rn + sn)
    turns = (rng.uniform(size=rn + sn) if fld == "complex"
             else rng.choice([-1.0, 1.0], size=rn + sn))
    return (r, s), logs, vectors, (rn, sn), moduli, turns, ginibre_normals(rng, (nn, nn), fld)


def _chunk_draws(config: EnsembleConfig, trials: range):
    """The draws of a chunk of trials, each transform one numpy call per
    chunk (the sort one per rank).

    Matrix 2i belongs to the i-th trial's first matrix (A, or the normal
    pair's A), matrix 2i + 1 to its second. Returns the ranks of the general
    matrices; rank -> (their indices, their singular values in descending
    rows); their stacked Ginibre normals; the normal matrices' eigenvalue
    lists, as Python scalars, and the same eigenvalues padded with zeros to
    NORMAL_DIM columns; and the normal matrices' stacked basis normals.
    """
    nn = NORMAL_DIM
    ranks, logs, vectors, counts, moduli, turns, bases = zip(
        *(_draw(config, t) for t in trials))
    ranks = [k for pair in ranks for k in pair]
    counts = [k for pair in counts for k in pair]

    values = np.exp(np.concatenate(logs))
    starts = np.cumsum([0] + ranks[:-1])
    spectra = {rank: (idx, np.sort(values[starts[idx][:, None] + np.arange(rank)])[:, ::-1])
               for rank, idx in _rank_groups(ranks).items()}

    moduli, turns = np.concatenate(moduli), np.concatenate(turns)
    lam = (moduli * np.exp(2j * np.pi * turns) if config.field == "complex"
           else moduli * turns)
    padded = np.zeros((len(counts), nn), dtype=lam.dtype)
    # an index list, not a boolean mask: the mask's first use reads +0.15 MB peak RSS
    padded.reshape(-1)[[i * nn + j for i, k in enumerate(counts) for j in range(k)]] = lam
    flat, ends = lam.tolist(), np.cumsum(counts).tolist()
    eigs = [flat[end - k:end] for k, end in zip(counts, ends)]
    return (ranks, spectra, np.array(vectors).reshape(len(ranks), -1), eigs, padded,
            np.array(bases).reshape(len(eigs), -1))


def _run_chunk(config: EnsembleConfig, trials: range) -> List[_Recorder]:
    """Trials run together, each with its own streams and with results
    bit-identical to running it alone.

    Matrix 2i of every stack below belongs to the i-th trial's first matrix
    (A, or the normal pair's A), matrix 2i + 1 to its second. The draws'
    transforms (`_chunk_draws`), the Ginibre assembly, the Haar QR, the
    matrices, their SVDs, polar factors, norms and inner products are each
    one numpy call per chunk (the matrices and polar factors one per rank),
    through the routines the per-trial calls use, so no bit moves. The
    closed forms and the recorder stay per trial: stacking them would change
    their rounding.
    """
    m, n, nn, fld = config.m, config.n, NORMAL_DIM, config.field
    ranks, spectra, vectors, eigs, padded, bases = _chunk_draws(config, trials)
    left, right = (haar_from_ginibre(z) for z in ginibre_from_normals(vectors, (m, n), fld))
    basis = haar_from_ginibre(ginibre_from_normals(bases, (nn,), fld)[0])
    general = np.empty((len(ranks), m, n), dtype=left.dtype)
    for idx, sigma in spectra.values():
        general[idx] = _with_spectrum(sigma, left[idx], right[idx])
    # U diag(lam, 0, ..., 0) U*
    normal = _with_spectrum(padded, basis, basis)
    del vectors, bases, left, right, basis   # free them before the SVDs

    recs = [_Recorder(trial, config.slack_tol) for trial in trials]
    _check_polar_pairs(recs, general, ranks)
    _check_normal_pairs(recs, normal, eigs,
                        [len(lam_hat) == nn for lam_hat in eigs[1::2]])
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
