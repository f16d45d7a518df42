"""What the traced run wraps, and the per-layer metrics computed from it.

The layers are polarbounds' modules. Each name below is patched where the
calling module looks it up, e.g. `montecarlo.polar_decompose` rather than
`linalg.polar_decompose`, because the library imports functions by name.
README.md in this directory maps each metric to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import numpy

from polarbounds import bounds, cli, extremal, fileio, linalg, montecarlo, oracle

CLOSED_FORM = ("q_upper_coeff", "q_lower_coeff", "h_upper_coeff", "h_lower_coeff",
               "lee_upper_coeff", "lee_lower_coeff", "amgm_coeff",
               "cauchy_schwarz_coeff", "li_sun_coeff", "refined_li_sun_coeff")
KITTANEH = ("kittaneh_lower_coeff", "kittaneh_upper_coeff")


def targets():
    """(module, attribute, span name, kind) for every wrapped name."""
    out = [
        (numpy.linalg, "svd", "numpy.linalg.svd", "span"),
        (numpy.linalg, "qr", "numpy.linalg.qr", "span"),
        (linalg, "svd", "linalg.svd", "span"),
        (montecarlo, "polar_decompose", "linalg.polar_decompose", "span"),
        (extremal, "polar_decompose", "linalg.polar_decompose", "span"),
        (extremal, "unitary_completion", "linalg.unitary_completion", "span"),
        (montecarlo, "run_verification_suite", "montecarlo.run_verification_suite", "span"),
        (montecarlo, "run_trial", "montecarlo.run_trial", "span"),
        (montecarlo, "random_matrix_with_spectrum", "montecarlo.sample", "span"),
        (montecarlo, "check_polar_pair", "montecarlo.check_polar_pair", "span"),
        (montecarlo, "check_normal_pair", "montecarlo.check_normal_pair", "span"),
        (montecarlo, "validate_spectrum_pair", "spectra.validate", "span"),
        (montecarlo, "validate_eigen_pair", "spectra.validate", "span"),
        (cli, "validate_spectrum_pair", "spectra.validate", "span"),
        (cli, "validate_eigen_pair", "spectra.validate", "span"),
        (bounds, "fg_scalars", "spectra.fg_scalars", "count"),
        (oracle, "fg_scalars", "spectra.fg_scalars", "count"),
        (extremal, "fg_scalars", "spectra.fg_scalars", "count"),
        (oracle, "brute_force_f_extrema", "oracle.brute_force_f_extrema", "span"),
        (oracle, "brute_force_kittaneh", "oracle.brute_force_kittaneh", "span"),
        (oracle, "evaluate_f", "oracle.evaluate_f", "count"),
        (extremal, "make_witness", "extremal.make_witness", "span"),
        (extremal, "verify_witness", "extremal.verify_witness", "span"),
        (fileio, "write_matrix_text", "fileio.write_matrix_text", "span"),
        (fileio, "read_matrix_text", "fileio.read_matrix_text", "span"),
        (fileio, "parse_spectra_text", "fileio.parse_spectra_text", "span"),
        (cli, "main", "cli.main", "span"),
        (cli, "cmd_bounds", "cli.cmd_bounds", "span"),
    ]
    out += [(bounds, a, f"bounds.{a}", "span") for a in CLOSED_FORM + KITTANEH]
    return out


_CF = tuple(f"bounds.{a}" for a in CLOSED_FORM)
_KT = tuple(f"bounds.{a}" for a in KITTANEH)
_US = 1e6


def _per(x, n):
    return x / n if n else 0.0


class _View:
    """One traced pass: LayerStats plus the pass's operation count and sizes."""

    def __init__(self, stats, ops, sizes):
        self.calls, self.incl, self.self = stats.calls, stats.incl, stats.self
        self.ops = ops
        self.sizes = sizes
        self.trials = stats.calls["montecarlo.run_trial"]
        self.witnesses = stats.calls["extremal.make_witness"]

    def calls_of(self, names):
        return sum(self.calls[n] for n in names)

    def self_of(self, names):
        return sum(self.self[n] for n in names)


# name -> (unit, better, span names it reads, value from a _View)
PER_LAYER = {
    "linalg.svd_calls_per_trial": (
        "count", "lower", ("numpy.linalg.svd", "montecarlo.run_trial"),
        lambda v: _per(v.calls["numpy.linalg.svd"], v.trials)),
    "linalg.qr_calls_per_trial": (
        "count", "lower", ("numpy.linalg.qr", "montecarlo.run_trial"),
        lambda v: _per(v.calls["numpy.linalg.qr"], v.trials)),
    "linalg.polar_calls_per_trial": (
        "count", "lower", ("linalg.polar_decompose", "montecarlo.run_trial"),
        lambda v: _per(v.calls["linalg.polar_decompose"], v.trials)),
    "linalg.lapack_svd_us_per_call": (
        "us", "lower", ("numpy.linalg.svd",),
        lambda v: _US * _per(v.incl["numpy.linalg.svd"], v.calls["numpy.linalg.svd"])),
    "linalg.svd_self_us_per_call": (
        "us", "lower", ("linalg.svd",),
        lambda v: _US * _per(v.self["linalg.svd"], v.calls["linalg.svd"])),
    "linalg.qr_us_per_call": (
        "us", "lower", ("numpy.linalg.qr",),
        lambda v: _US * _per(v.incl["numpy.linalg.qr"], v.calls["numpy.linalg.qr"])),
    "linalg.completion_us_per_call": (
        "us", "lower", ("linalg.unitary_completion",),
        lambda v: _US * _per(v.incl["linalg.unitary_completion"],
                             v.calls["linalg.unitary_completion"])),
    "linalg.polar_self_us_per_call": (
        "us", "lower", ("linalg.polar_decompose",),
        lambda v: _US * _per(v.self["linalg.polar_decompose"],
                             v.calls["linalg.polar_decompose"])),
    "montecarlo.sample_us_per_trial": (
        "us", "lower", ("montecarlo.sample", "montecarlo.run_trial"),
        lambda v: _US * _per(v.incl["montecarlo.sample"], v.trials)),
    "montecarlo.check_polar_self_us_per_trial": (
        "us", "lower", ("montecarlo.check_polar_pair", "montecarlo.run_trial"),
        lambda v: _US * _per(v.self["montecarlo.check_polar_pair"], v.trials)),
    "montecarlo.normal_channel_us_per_trial": (
        "us", "lower", ("montecarlo.check_normal_pair", "montecarlo.run_trial"),
        lambda v: _US * _per(v.incl["montecarlo.check_normal_pair"], v.trials)),
    "montecarlo.run_trial_self_us": (
        "us", "lower", ("montecarlo.run_trial",),
        lambda v: _US * _per(v.self["montecarlo.run_trial"], v.trials)),
    "bounds.closed_form_us_per_call": (
        "us", "lower", _CF,
        lambda v: _US * _per(v.self_of(_CF), v.calls_of(_CF))),
    "bounds.closed_form_calls_per_op": (
        "count", "lower", _CF,
        lambda v: _per(v.calls_of(_CF), v.ops)),
    "bounds.kittaneh_us_per_call": (
        "us", "lower", _KT,
        lambda v: _US * _per(v.self_of(_KT), v.calls_of(_KT))),
    "spectra.validate_us_per_call": (
        "us", "lower", ("spectra.validate",),
        lambda v: _US * _per(v.self["spectra.validate"], v.calls["spectra.validate"])),
    "spectra.fg_scalars_calls_per_op": (
        "count", "lower", ("spectra.fg_scalars",),
        lambda v: _per(v.calls["spectra.fg_scalars"], v.ops)),
    "oracle.us_per_point": (
        "us", "lower", ("oracle.brute_force_f_extrema", "oracle.evaluate_f"),
        lambda v: _US * _per(v.incl["oracle.brute_force_f_extrema"],
                             v.calls["oracle.evaluate_f"])),
    "oracle.points_per_op_set": (
        "count", "lower", ("oracle.evaluate_f",),
        lambda v: float(v.calls["oracle.evaluate_f"])),
    "oracle.kittaneh_ms_per_call": (
        "ms", "lower", ("oracle.brute_force_kittaneh",),
        lambda v: 1e3 * _per(v.incl["oracle.brute_force_kittaneh"],
                             v.calls["oracle.brute_force_kittaneh"])),
    "extremal.build_self_us_per_witness": (
        "us", "lower", ("extremal.make_witness",),
        lambda v: _US * _per(v.self["extremal.make_witness"], v.witnesses)),
    "extremal.verify_self_us_per_witness": (
        "us", "lower", ("extremal.verify_witness", "extremal.make_witness"),
        lambda v: _US * _per(v.self["extremal.verify_witness"], v.witnesses)),
    "fileio.matrix_roundtrip_us": (
        "us", "lower", ("fileio.write_matrix_text", "fileio.read_matrix_text",
                        "extremal.make_witness"),
        lambda v: _US * _per(v.incl["fileio.write_matrix_text"]
                             + v.incl["fileio.read_matrix_text"], v.witnesses)),
    "fileio.matrix_bytes": (
        "bytes", "lower", ("fileio.write_matrix_text", "extremal.make_witness"),
        lambda v: _per(v.sizes.get("matrix_bytes", 0), v.witnesses)),
    "fileio.parse_us_per_record": (
        "us", "lower", ("fileio.parse_spectra_text",),
        lambda v: _US * _per(v.incl["fileio.parse_spectra_text"],
                             v.sizes.get("records", 0))),
    "cli.self_ms_per_pass": (
        "ms", "lower", ("cli.main", "cli.cmd_bounds"),
        lambda v: 1e3 * v.self_of(("cli.main", "cli.cmd_bounds"))),
    "cli.report_bytes": (
        "bytes", "lower", ("cli.main",),
        lambda v: float(v.sizes.get("report_bytes", 0))),
}


def layer_metrics(stats, ops, sizes, absent_names):
    """Per-layer values of one traced pass; a metric reading an absent name is left out."""
    view = _View(stats, ops, sizes)
    return {name: fn(view) for name, (_, _, reads, fn) in PER_LAYER.items()
            if not absent_names.intersection(reads)}
