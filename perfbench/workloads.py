"""The four workloads: inputs made from a seed, one timed pass, and checks.

Every pass of a run repeats identical inputs. `run()` times only the
library calls; the checks in `check()` run afterwards, on the reference
pass. A later pass whose output digest differs from the reference produced
a nondeterministic output, and all of its operations count as failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from polarbounds import bounds, cli, extremal, fileio, montecarlo, oracle
from polarbounds.spectra import validate_eigen_pair, validate_spectrum_pair

Q_TOL = 1e-10          # brute force vs closed form, squared q constants
KITTANEH_TOL = 1e-12
RATIO_RTOL = 1e-8      # witness achieved ratio vs target
PROBE_RTOL = 1e-9      # extreme-scale probe vs the unscaled record
PROBE_SCALES = (1e-200, 1e-80, 1e80, 1e160, 1e200)
Q_FAMILY = ("q_upper", "q_lower")   # degree -1 in the spectra; the rest degree 0


def _sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _numbers(values) -> str:
    return " ".join(f"{v:.17g}" for v in values)


def _complexes(values) -> str:
    return " ".join(f"({z.real:.17g}{z.imag:+.17g}j)" for z in values)


def _log_uniform_desc(rng, size, lo=1e-2, hi=1e2):
    return np.sort(np.exp(rng.uniform(math.log(lo), math.log(hi), size)))[::-1]


def _run_bounds_cli(path):
    """`polarbounds bounds PATH` in-process; returns (exit code, report text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["bounds", str(path)])
    return code, buf.getvalue()


class Campaign:
    """run_verification_suite at the acceptance-criterion-4 configuration.

    One operation is one trial; a pass is TRIALS trials.
    """

    name = "campaign"
    TRIALS = 400

    def __init__(self, seed: int, workdir: Path):
        self.config = montecarlo.EnsembleConfig(m=7, n=7, trials=self.TRIALS, seed=seed,
                                                field="complex", max_rank=7)
        self.ops = self.TRIALS

    def run(self):
        start = time.perf_counter()
        try:
            out = montecarlo.run_verification_suite(self.config)
        except Exception as exc:    # a raising pass is a result, not an abort
            out = _error(exc)
        return time.perf_counter() - start, out

    def digest(self, out) -> str:
        if isinstance(out, str):
            return _sha256([out])
        return _sha256([json.dumps(out.body(), sort_keys=True)])

    def check(self, out):
        if isinstance(out, str):
            return self.ops, [f"pass raised {out}"]
        if out.trials != self.TRIALS:
            return self.ops, [f"report has {out.trials} trials, {self.TRIALS} requested"]
        bad = sorted({v.trial for v in out.violations})
        return len(bad), [f"violation in trial {t}" for t in bad[:5]]

    def sizes(self, out):
        return {}

    @staticmethod
    def setup_op(seed, workdir):
        config = montecarlo.EnsembleConfig(m=7, n=7, trials=1, seed=seed,
                                           field="complex", max_rank=7)
        montecarlo.run_verification_suite(config)


class Oracle:
    """Brute-force cross-checks: q at (r,s) = (4,6) and (5,6), Kittaneh at (5,6).

    One operation is one cross-checked pair; a pass is one set of three.
    """

    name = "oracle"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.q_pairs = [validate_spectrum_pair(_log_uniform_desc(rng, r),
                                               _log_uniform_desc(rng, s))
                        for r, s in ((4, 6), (5, 6))]
        self.eig = self._eigen_pair(rng, 5, 6)
        self.ops = 3

    @staticmethod
    def _eigen_pair(rng, r, s):
        lam = rng.uniform(0.2, 3, r) * np.exp(2j * np.pi * rng.uniform(size=r))
        lam_hat = rng.uniform(0.2, 3, s) * np.exp(2j * np.pi * rng.uniform(size=s))
        return validate_eigen_pair(lam, lam_hat)

    @staticmethod
    def _q_op(pair):
        ev_max, ev_min = oracle.brute_force_f_extrema(pair)
        return (ev_max.value, bounds.q_upper_coeff(pair)[0].coefficient ** 2,
                ev_min.value, bounds.q_lower_coeff(pair)[0].coefficient ** 2)

    @staticmethod
    def _kittaneh_op(eig):
        n = eig.s
        return (oracle.brute_force_kittaneh(eig, "lower").coefficient,
                bounds.kittaneh_lower_coeff(eig).coefficient,
                oracle.brute_force_kittaneh(eig, "upper", n=n).coefficient,
                bounds.kittaneh_upper_coeff(eig, n=n).coefficient)

    def run(self):
        out = []
        start = time.perf_counter()
        for op, arg in ((self._q_op, self.q_pairs[0]), (self._q_op, self.q_pairs[1]),
                        (self._kittaneh_op, self.eig)):
            try:
                out.append(op(arg))
            except Exception as exc:
                out.append(_error(exc))
        return time.perf_counter() - start, out

    def digest(self, out) -> str:
        return _sha256([repr(o) for o in out])

    def check(self, out):
        notes = []
        for i, o in enumerate(out):
            if isinstance(o, str):
                notes.append(f"op {i}: {o}")
                continue
            tol = KITTANEH_TOL if i == 2 else Q_TOL
            brute_hi, closed_hi, brute_lo, closed_lo = o
            if (abs(brute_hi - closed_hi) > tol * max(1.0, abs(closed_hi))
                    or abs(brute_lo - closed_lo) > tol * max(1.0, abs(closed_lo))):
                notes.append(f"op {i}: brute force {o[0::2]} vs closed form {o[1::2]}")
        return len(notes), notes

    def sizes(self, out):
        return {}

    @staticmethod
    def setup_op(seed, workdir):
        Oracle._q_op(Oracle(seed, workdir).q_pairs[0])


def criterion3_pairs(rng, count):
    """Spectrum pairs of acceptance criterion 3: r <= 3, s <= 5, disjoint ranges."""
    pairs = []
    for trial in range(count):
        if trial % 2 == 0:
            r = int(rng.integers(1, 4))
            s = int(rng.integers(r + 1, 6))
        else:
            r = s = int(rng.integers(1, 4))
        sig = np.sort(rng.uniform(4, 9, r))[::-1]
        sigt = np.sort(rng.uniform(0.5, 2, s))[::-1]
        pairs.append(validate_spectrum_pair(sig, sigt))
    return pairs


class Witness:
    """Witness build, in-memory matrix text round trip, then verification.

    One operation is one witness; a pass is PAIRS pairs times the six bounds.
    """

    name = "witness"
    PAIRS = 100

    def __init__(self, seed: int, workdir: Path):
        self.pairs = criterion3_pairs(np.random.default_rng(seed), self.PAIRS)
        self.ops = self.PAIRS * len(extremal.BOUND_IDS)

    @staticmethod
    def _op(pair, bound_id):
        w = extremal.make_witness(pair, bound_id)
        texts = (fileio.write_matrix_text(w.A), fileio.write_matrix_text(w.A_tilde))
        a, a_tilde = fileio.read_matrix_text(texts[0]), fileio.read_matrix_text(texts[1])
        diag = extremal.verify_witness(dataclasses.replace(w, A=a, A_tilde=a_tilde))
        return w, texts, a, a_tilde, diag.achieved_ratio

    def run(self):
        out = []
        start = time.perf_counter()
        for pair in self.pairs:
            for bound_id in extremal.BOUND_IDS:
                try:
                    out.append(self._op(pair, bound_id))
                except Exception as exc:
                    out.append(_error(exc))
        return time.perf_counter() - start, out

    def digest(self, out) -> str:
        parts = []
        for o in out:
            parts += [o] if isinstance(o, str) else [*o[1], repr(o[4])]
        return _sha256(parts)

    def check(self, out):
        notes = []
        for i, o in enumerate(out):
            if isinstance(o, str):
                notes.append(f"witness {i}: {o}")
                continue
            w, _, a, a_tilde, achieved = o
            target = w.target_coefficient
            miss = abs(achieved) if target == 0.0 else abs(achieved - target) / abs(target)
            if a.tobytes() != w.A.tobytes() or a_tilde.tobytes() != w.A_tilde.tobytes():
                notes.append(f"witness {i} ({w.bound_id}): matrix round trip not bit-exact")
            elif miss > RATIO_RTOL:
                notes.append(f"witness {i} ({w.bound_id}): ratio {achieved} vs {target}")
        return len(notes), notes

    def sizes(self, out):
        return {"matrix_bytes": sum(len(t) for o in out if not isinstance(o, str)
                                    for t in o[1])}

    @staticmethod
    def setup_op(seed, workdir):
        pair = criterion3_pairs(np.random.default_rng(seed), 1)[0]
        Witness._op(pair, extremal.BOUND_IDS[0])


def spectra_records(rng, count):
    """Random spectra-file records; every second one has eigen lines.

    Lengths are 1-6 for sigma, 1-8 for sigma_tilde and 1-4 for each eigen
    list. Each seed gets the same multiset of lengths, cycled through all
    combinations and shuffled, because the cost of a record depends on its
    lengths and the seed should only change values and order.
    """
    spectra = [(a, b) for a in range(1, 7) for b in range(1, 9)]
    eigen = [(a, b) for a in range(1, 5) for b in range(1, 5)]
    spectra_order = rng.permutation(count)
    eigen_order = rng.permutation(count // 2)
    records = []
    for i in range(count):
        a, b = spectra[spectra_order[i] % len(spectra)]
        rec = {"id": f"rec{i}", "sigma": _log_uniform_desc(rng, a),
               "sigma_tilde": _log_uniform_desc(rng, b)}
        if i % 2 == 1:
            for key, size in zip(("eigen", "eigen_hat"),
                                 eigen[eigen_order[i // 2] % len(eigen)]):
                rec[key] = (_log_uniform_desc(rng, size)
                            * np.exp(2j * np.pi * rng.uniform(size=size)))
        records.append(rec)
    return records


def spectra_text(records) -> str:
    lines = []
    for rec in records:
        lines += [f"record {rec['id']}", f"sigma {_numbers(rec['sigma'])}",
                  f"sigma_tilde {_numbers(rec['sigma_tilde'])}"]
        if "eigen" in rec:
            lines += [f"eigen {_complexes(rec['eigen'])}",
                      f"eigen_hat {_complexes(rec['eigen_hat'])}"]
    return "\n".join(lines) + "\n"


class BoundsReport:
    """`polarbounds bounds` in-process on a generated file of RECORDS records.

    One operation is one record. The extreme-scale probe runs once per run,
    outside the timed passes, and is reported on its own (see probe()).
    """

    name = "bounds-report"
    RECORDS = 2000
    BRUTE_FORCE_SAMPLE = 24   # records with r, s <= 4 re-checked by brute force

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.records = spectra_records(np.random.default_rng(seed), self.RECORDS)
        self.path = workdir / f"bounds-report-{seed}.spectra"
        self.path.write_text(spectra_text(self.records))
        self.ops = self.RECORDS

    def run(self):
        start = time.perf_counter()
        try:
            out = _run_bounds_cli(self.path)
        except Exception as exc:
            out = _error(exc)
        return time.perf_counter() - start, out

    def digest(self, out) -> str:
        return _sha256([out] if isinstance(out, str) else [str(out[0]), out[1]])

    def check(self, out):
        if isinstance(out, str):
            return self.ops, [f"pass raised {out}"]
        if out[0] != 0:
            return self.ops, [f"exit code {out[0]}"]
        entries = {e["id"]: e for e in json.loads(out[1])["records"]}
        notes = []
        sampled = 0
        for rec in self.records:
            entry = entries.get(rec["id"])
            if entry is None or "rejected" in entry:
                notes.append(f"{rec['id']}: missing or rejected")
                continue
            if (sampled < self.BRUTE_FORCE_SAMPLE
                    and max(len(rec["sigma"]), len(rec["sigma_tilde"])) <= 4):
                sampled += 1
                pair = validate_spectrum_pair(rec["sigma"], rec["sigma_tilde"])
                ev_max, ev_min = oracle.brute_force_f_extrema(pair)
                for brute, key in ((ev_max.value, "q_upper"), (ev_min.value, "q_lower")):
                    closed = entry[key]["coefficient"] ** 2
                    if abs(brute - closed) > Q_TOL * max(1.0, abs(closed)):
                        notes.append(f"{rec['id']} {key}: brute force {brute} vs {closed}")
                        break
        return len(notes), notes

    def sizes(self, out):
        if isinstance(out, str):
            return {}
        return {"report_bytes": len(out[1].encode()), "records": self.RECORDS}

    def probe(self):
        """Golden rows scaled by PROBE_SCALES, one CLI call each.

        Every coefficient must match the unscaled row after homogeneous
        rescaling. Returns (probes, failure notes).
        """
        golden = fileio.parse_spectra_text(Path(cli.table1_path()).read_text())
        path = self.workdir / "scale-probe.spectra"
        notes = []
        for rec in golden:
            try:
                reference = self._coefficients(path, rec.id, rec.sigma, rec.sigma_tilde, 1.0)
            except Exception as exc:
                notes += [f"{rec.id} x {t:g}: unscaled row {_error(exc)}" for t in PROBE_SCALES]
                continue
            for t in PROBE_SCALES:
                label = f"{rec.id} x {t:g}"
                try:
                    got = self._coefficients(path, rec.id, rec.sigma, rec.sigma_tilde, t)
                except Exception as exc:
                    notes.append(f"{label}: {_error(exc)}")
                    continue
                for key, want in reference.items():
                    value = got.get(key, math.nan) * (t if key in Q_FAMILY else 1.0)
                    if not abs(value - want) <= PROBE_RTOL * abs(want):
                        notes.append(f"{label}: {key} {value!r} vs {want!r}")
                        break
        return len(golden) * len(PROBE_SCALES), notes

    @staticmethod
    def _coefficients(path, rid, sigma, sigma_tilde, t):
        path.write_text(f"record {rid}\nsigma {_numbers(v * t for v in sigma)}\n"
                        f"sigma_tilde {_numbers(v * t for v in sigma_tilde)}\n")
        code, text = _run_bounds_cli(path)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        entry = json.loads(text)["records"][0]
        return {k: v["coefficient"] for k, v in entry.items()
                if isinstance(v, dict) and "coefficient" in v}

    @staticmethod
    def setup_op(seed, workdir):
        records = spectra_records(np.random.default_rng(seed), 1)
        path = workdir / f"setup-{seed}.spectra"
        path.write_text(spectra_text(records))
        _run_bounds_cli(path)


WORKLOADS = {w.name: w for w in (Campaign, Oracle, Witness, BoundsReport)}
