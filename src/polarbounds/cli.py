"""Command-line surface.

Subcommands::

    bounds   compute every applicable coefficient for each record in a
             spectra file
    witness  construct and persist an equality-attaining matrix pair
    oracle   brute-force cross-check of the closed-form optima
    verify   randomized falsification campaign
    table1   `bounds` on the bundled four-row golden file

Exit codes: 0 success; 1 a finding (a `verify` violation or an `oracle`
disagreement); 2 input rejected (a malformed or non-UTF-8 file, an
invalid spectrum, spectra beyond the floating-point range, including a
witness whose F = ||A||^2 + ||A~||^2 is not a normal double, a report
that would hold a non-finite number, or an SVD that LAPACK could not
converge; `bounds` rejects a record out of range, or one with more than
6 eigenvalues, in place and reports the rest); 3 degenerate witness
(h-upper on spectra identical, or too close for any double-precision
pair to attain its constant); 4 budget exceeded; 5 witness construction
failed (the built pair missed its constant or a norm identity, or a
unitary could not be completed; no known input does this); 64 usage
error (bad arguments or tolerances, an option the command does not take,
an unreadable input, an unwritable --out). Report bodies are
byte-deterministic for fixed inputs and seeds; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from importlib import resources
from typing import Optional

from . import __version__, bounds, extremal, fileio, oracle
from .bounds import EnumerationCapError, RankMismatchError
from .extremal import DegenerateSupremumError, WitnessVerificationError
from .linalg import CompletionInfeasibleError
from .montecarlo import EnsembleConfig, run_verification_suite
from .oracle import BudgetExceededError
from .spectra import (
    NumericalRangeError,
    SpectrumValidationError,
    validate_eigen_pair,
    validate_spectrum_pair,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_BUDGET = 4
EXIT_WITNESS = 5
EXIT_USAGE = 64

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".polarbounds-")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(report: dict, fmt: str, out: Optional[str]) -> None:
    # serialised in either format: a non-finite number is an error, never Infinity or NaN
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalRangeError(f"report holds a non-finite number: {exc}") from exc
    if fmt != "structured":
        text = _render_text(report)
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _render_text(report: dict) -> str:
    lines = []

    def walk(obj, indent=""):
        if isinstance(obj, dict):
            for key in obj:
                val = obj[key]
                if isinstance(val, (dict, list)):
                    lines.append(f"{indent}{key}:")
                    walk(val, indent + "  ")
                else:
                    lines.append(f"{indent}{key}: {val}")
        elif isinstance(obj, list):
            for item in obj:
                if isinstance(item, (dict, list)):
                    walk(item, indent + "  ")
                    lines.append("")
                else:
                    lines.append(f"{indent}- {item}")

    walk(report)
    return "\n".join(lines).rstrip() + "\n"


def _load_records(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    records = fileio.parse_spectra_text(raw.decode("utf-8"))
    if not records:
        raise fileio.SpectraParseError(0, "no records in input")
    return records, _digest(raw)


def _bound_entry(result) -> dict:
    entry = {"coefficient": result.coefficient}
    if result.optimal_index is not None:
        entry["optimal_k"] = result.optimal_index
    if result.degenerate:
        entry["degenerate"] = True
    if result.optimal_tuple is not None:
        entry["optimal_tuple"] = json.loads(json.dumps(result.optimal_tuple))
    return entry


def _record_bounds(rec: fileio.SpectraRecord) -> dict:
    pair = validate_spectrum_pair(rec.sigma, rec.sigma_tilde)
    out = {"id": rec.id, "r": pair.r, "s": pair.s, "swapped": pair.swapped}
    for theorem_id, _ in bounds.SPECTRUM_CONSTANTS:
        result = bounds.closed_form(theorem_id)(pair)
        key = bounds.REPORT_KEYS[theorem_id]
        if isinstance(result, tuple):   # q: the result and its ratio table
            out[key] = dict(_bound_entry(result[0]), f_table=list(result[1].values))
        else:
            out[key] = _bound_entry(result)
    if pair.r == pair.s:
        out["li_sun"] = _bound_entry(bounds.li_sun_coeff(pair))
        refined, _ = bounds.refined_li_sun_coeff(pair)
        out["refined_li_sun"] = _bound_entry(refined)
    else:
        out["li_sun"] = "not applicable (r != s)"
        out["refined_li_sun"] = "not applicable (r != s)"
    if rec.eigen is not None:
        eig = validate_eigen_pair(rec.eigen, rec.eigen_hat)
        out["kittaneh_lower"] = _bound_entry(bounds.kittaneh_lower_coeff(eig))
    return out


def table1_path() -> str:
    return str(resources.files("polarbounds").joinpath("data/table1.spectra"))


def cmd_bounds(args) -> int:
    records, digest = _load_records(args.input)
    entries = []
    rejected = False
    for rec in records:
        try:
            entries.append(_record_bounds(rec))
        except (SpectrumValidationError, RankMismatchError, EnumerationCapError,
                ArithmeticError) as exc:
            entries.append({"id": rec.id, "rejected": f"{type(exc).__name__}: {exc}"})
            rejected = True
    report = {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
              "command": "bounds", "input_digest": digest, "records": entries}
    _emit(report, args.format, args.out)
    return EXIT_INPUT if rejected else EXIT_OK


def cmd_witness(args) -> int:
    records, digest = _load_records(args.input)
    matches = [r for r in records if r.id == args.record]
    if not matches:
        raise UsageError(f"record id {args.record!r} not found in {args.input}")
    rec = matches[0]
    pair = validate_spectrum_pair(rec.sigma, rec.sigma_tilde)
    try:
        w = extremal.make_witness(pair, args.bound)
    except DegenerateSupremumError as exc:
        sys.stderr.write(f"degenerate witness: {exc}\n")
        return EXIT_DEGENERATE

    os.makedirs(args.out, exist_ok=True)
    path_a = os.path.join(args.out, f"{rec.id}-{args.bound}-A.mat")
    path_b = os.path.join(args.out, f"{rec.id}-{args.bound}-Atilde.mat")
    _atomic_write(path_a, fileio.write_matrix_text(w.A))
    _atomic_write(path_b, fileio.write_matrix_text(w.A_tilde))

    # round-trip: reload from disk and verify the identities from scratch
    with open(path_a) as fh:
        a = fileio.read_matrix_text(fh.read())
    with open(path_b) as fh:
        at = fileio.read_matrix_text(fh.read())
    diag = extremal.verify_witness(dataclasses.replace(w, A=a, A_tilde=at))

    report = {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
              "command": "witness", "input_digest": digest,
              "record": rec.id, "bound": args.bound,
              "target_coefficient": w.target_coefficient,
              "achieved_ratio": diag.achieved_ratio,
              "alignment_scalars": {"M": diag.M, "N": diag.N},
              "files": {"A": path_a, "A_tilde": path_b}}
    _emit(report, args.format, None)
    return EXIT_OK


def cmd_oracle(args) -> int:
    records, digest = _load_records(args.input)
    entries = []
    all_ok = True
    for rec in records:
        pair = validate_spectrum_pair(rec.sigma, rec.sigma_tilde)
        try:
            ev_max, ev_min = oracle.brute_force_f_extrema(pair, budget=args.budget)
        except BudgetExceededError as exc:
            sys.stderr.write(f"record {rec.id}: {exc}\n")
            return EXIT_BUDGET
        q_up, _ = bounds.q_upper_coeff(pair)
        q_lo, _ = bounds.q_lower_coeff(pair)
        tol = 1e-10 * max(1.0, abs(ev_max.value), abs(ev_min.value))
        ok = (abs(ev_max.value - q_up.coefficient ** 2) <= tol
              and abs(ev_min.value - q_lo.coefficient ** 2) <= tol)
        all_ok = all_ok and ok
        entries.append({"id": rec.id, "agrees": ok,
                        "brute_force_max": ev_max.value,
                        "closed_form_max": q_up.coefficient ** 2,
                        "brute_force_min": ev_min.value,
                        "closed_form_min": q_lo.coefficient ** 2})
    report = {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
              "command": "oracle", "input_digest": digest, "records": entries}
    _emit(report, args.format, args.out)
    return EXIT_OK if all_ok else 1


def cmd_verify(args) -> int:
    try:
        config = EnsembleConfig(m=args.dims, n=args.dims, trials=args.trials,
                                seed=args.seed, field=args.field,
                                slack_tol=args.slack_tol)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = run_verification_suite(config)
    report = {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
              "command": "verify", "seed": args.seed, "body": result.body()}
    sys.stderr.write(f"verify: {result.trials} trials in {result.wall_time:.2f}s\n")
    _emit(report, args.format, args.out)
    return EXIT_OK if not result.violations else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="polarbounds",
                     description="Sharp polar-factor perturbation coefficients, "
                                 "witnesses, and verification campaigns")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default=None, out_help="write the report to PATH"):
        p.add_argument("--format", choices=("text", "structured"), default="structured")
        p.add_argument("--out", default=out_default, help=out_help)

    p = sub.add_parser("bounds", help="coefficients for each record of a spectra file")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("table1", help="bounds on the bundled golden spectra file")
    common(p)
    p.set_defaults(func=cmd_bounds, input=None)

    p = sub.add_parser("witness", help="construct an equality-attaining pair")
    p.add_argument("input")
    p.add_argument("record", help="record id inside the spectra file")
    p.add_argument("bound", choices=extremal.BOUND_IDS)
    # witness writes matrices into a directory
    common(p, "witness-out", "output directory for matrix files")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("oracle", help="brute-force cross-check of the closed forms")
    p.add_argument("input")
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="randomized falsification campaign")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, default=6)
    p.add_argument("--field", choices=("complex", "real"), default="complex")
    p.add_argument("--slack-tol", dest="slack_tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


# (exception type, exit code, stderr prefix); ArithmeticError covers the
# NumericalRangeError, OverflowError and ZeroDivisionError of extreme scales
# and linalg's SvdConvergenceError
_EXITS = (
    (UsageError, EXIT_USAGE, "usage error"),
    ((WitnessVerificationError, CompletionInfeasibleError), EXIT_WITNESS,
     "witness construction failed"),
    ((fileio.SpectraParseError, UnicodeDecodeError, SpectrumValidationError,
      ArithmeticError), EXIT_INPUT, "input rejected"),
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "table1":
            args.input = table1_path()
        return args.func(args)
    except Exception as exc:
        for exc_type, code, prefix in _EXITS:
            if isinstance(exc, exc_type):
                sys.stderr.write(f"{prefix}: {exc}\n")
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
