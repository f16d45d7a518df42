"""Command-line surface.

Subcommands::

    bounds   compute every applicable coefficient for each record in a
             spectra file
    witness  construct and persist an equality-attaining matrix pair
    oracle   brute-force cross-check of the closed-form optima: q, and
             both Kittaneh bounds on records with eigen lines
    verify   randomized falsification campaign
    table1   `bounds` on the bundled four-row golden file

Exit codes: 0 success; 1 a finding (a `verify` violation or an `oracle`
disagreement); 2 input rejected (a malformed or non-UTF-8 file, an
invalid spectrum, spectra beyond the floating-point range, including a
witness whose F = ||A||^2 + ||A~||^2 is not a normal double, a report
that would hold a non-finite number, or an SVD that LAPACK could not
converge; `bounds` rejects a record out of range, or one with more than
6 eigenvalues, in place and reports the rest, while `oracle` rejects the
file); 3 degenerate witness
(h-upper on spectra identical, or too close for any double-precision
pair to attain its constant); 4 budget exceeded; 5 witness construction
failed (the built pair missed its constant, a norm identity or the
isometry check of its singular vectors; no known input does this); 64 usage
error (bad arguments or tolerances, an option or choice the command does
not take, --format text included, an unreadable input, an unwritable
--out, such as a report --out that names a directory or a witness --out
that names a file). Report bodies are byte-deterministic for fixed inputs
and seeds; timing goes to stderr.

A report has one format, structured (--format structured is still
accepted): one JSON document and a newline, keys sorted, a 2-space
indent, every non-ASCII and control character escaped as \\uXXXX, floats
in their shortest round-trip form. These are the bytes of
json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\\n",
which reports had before `_structured` took over writing them; --out gets
the same bytes as stdout. A non-finite number anywhere in a report
rejects it whole with exit 2. `bounds` computes each record as the writer
reaches it and keeps only the record's text, so a pass peaks at about 3
times the report's size, not 7.7.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import os
import sys
import tempfile
from importlib import resources
from json.encoder import encode_basestring_ascii
from types import GeneratorType
from typing import Optional

from . import __version__, bounds, extremal, fileio, oracle
from .bounds import EnumerationCapError, RankMismatchError
from .extremal import DegenerateSupremumError, WitnessVerificationError
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
    """Write text to path through a temporary file beside it, with the mode
    a shell redirect would give (0o666 less the umask; mkstemp makes 0o600).
    Any OSError, the temporary file removed, is a UsageError."""
    d = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".polarbounds-")
        try:
            with os.fdopen(fd, "w") as fh:
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


# a float x is finite exactly when -_FLOAT_MAX <= x <= _FLOAT_MAX: NaN fails both
_FLOAT_MAX = sys.float_info.max


class _NonFinite(ValueError):
    """A non-finite float met by the writer: the one ValueError `_emit`
    turns into exit 2, since a generator it renders may raise others."""


def _write(value, append, pad: str) -> None:
    """Pass the structured form of value, its first line indented by pad, in
    pieces to append (a list's append method).

    A generator is written as a list, but each item is rendered into pieces
    of its own and passed on joined, so that neither the item nor its pieces
    outlive its rendering. A non-finite float raises _NonFinite; a type
    other than dict, list, tuple, generator, str, int, float, bool and None,
    or a key that is not a str, raises TypeError. The recursion goes through
    this module-level function: a closure calling itself would form a
    reference cycle that holds each call's pieces until a garbage collection.
    """
    if isinstance(value, dict):
        if not value:
            append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            cls = type(item)
            # the common scalars in one piece each, the rest by recursion
            if cls is float and -_FLOAT_MAX <= item <= _FLOAT_MAX:
                append(f"{sep}{encode_basestring_ascii(key)}: {float.__repr__(item)}")
            elif cls is str:
                append(f"{sep}{encode_basestring_ascii(key)}: {encode_basestring_ascii(item)}")
            elif cls is int:
                append(f"{sep}{encode_basestring_ascii(key)}: {int.__repr__(item)}")
            else:
                append(f"{sep}{encode_basestring_ascii(key)}: ")
                _write(item, append, inner)
            sep = ",\n" + inner
        append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            if type(item) is float and -_FLOAT_MAX <= item <= _FLOAT_MAX:
                append(f"{sep}{float.__repr__(item)}")
            else:
                append(sep)
                _write(item, append, inner)
            sep = ",\n" + inner
        append("\n" + pad + "]")
    elif isinstance(value, str):
        append(encode_basestring_ascii(value))
    elif value is None:
        append("null")
    elif value is True:     # before int: bool is a subclass of int
        append("true")
    elif value is False:
        append("false")
    elif isinstance(value, int):
        append(int.__repr__(value))
    elif isinstance(value, float):
        if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            raise _NonFinite(f"out-of-range float {float.__repr__(value)}")
        append(float.__repr__(value))
    elif isinstance(value, GeneratorType):
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            pieces = [sep]
            _write(item, pieces.append, inner)
            append("".join(pieces))
            sep = ",\n" + inner
        append("[]" if sep[0] == "[" else "\n" + pad + "]")
    else:
        raise TypeError(f"object of type {type(value).__name__} has no structured form")


def _structured(report: dict) -> str:
    """The bytes of json.dumps(report, sort_keys=True, indent=2,
    allow_nan=False) + "\\n", in one pass, a generator written as the list
    of its items: json.dumps runs its pure-Python encoder whenever indent
    is set."""
    pieces = []
    _write(report, pieces.append, "")
    pieces.append("\n")
    return "".join(pieces)


def _emit(report: dict, out: Optional[str]) -> None:
    try:
        text = _structured(report)
    except _NonFinite as exc:
        raise NumericalRangeError(f"report holds a non-finite number: {exc}") from exc
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


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
        entry["optimal_tuple"] = result.optimal_tuple
    return entry


def _record_bounds(rec: fileio.SpectraRecord) -> dict:
    pair = validate_spectrum_pair(rec.sigma, rec.sigma_tilde)
    out = {"id": rec.id, "r": pair.r, "s": pair.s, "swapped": pair.swapped}
    q_results = {}
    for theorem_id, _ in bounds.SPECTRUM_CONSTANTS:
        result = bounds.closed_form(theorem_id)(pair)
        key = bounds.REPORT_KEYS[theorem_id]
        if isinstance(result, tuple):   # q: the result and its ratio table
            q_results[theorem_id] = result
            out[key] = dict(_bound_entry(result[0]), f_table=list(result[1].values))
        else:
            out[key] = _bound_entry(result)
    if pair.r == pair.s:
        li_sun = bounds.li_sun_coeff(pair)
        out["li_sun"] = _bound_entry(li_sun)
        refined, _ = bounds.refined_li_sun(q_results["q-upper"], li_sun)
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


def _record_entries(records, rejected: list):
    """Each record's bounds entry, computed as the writer asks for it; a
    record out of range gets a `rejected` entry and its id goes to rejected."""
    for rec in records:
        try:
            entry = _record_bounds(rec)
        except (SpectrumValidationError, RankMismatchError, EnumerationCapError,
                ArithmeticError) as exc:
            entry = {"id": rec.id, "rejected": f"{type(exc).__name__}: {exc}"}
            rejected.append(rec.id)
        yield entry


def cmd_bounds(args) -> int:
    records, digest = _load_records(args.input)
    rejected = []
    report = {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
              "command": "bounds", "input_digest": digest,
              "records": _record_entries(records, rejected)}
    _emit(report, args.out)
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

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc}") from exc
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
    _emit(report, None)
    return EXIT_OK


def _agrees(brute: float, closed: float) -> bool:
    """Brute force and closed form within 1e-10 relative, at any scale."""
    return abs(brute - closed) <= 1e-10 * max(abs(brute), abs(closed))


def cmd_oracle(args) -> int:
    records, digest = _load_records(args.input)
    entries = []
    all_ok = True
    for rec in records:
        pair = validate_spectrum_pair(rec.sigma, rec.sigma_tilde)
        eig = None if rec.eigen is None else validate_eigen_pair(rec.eigen, rec.eigen_hat)
        try:
            ev_max, ev_min = oracle.brute_force_f_extrema(pair, budget=args.budget)
            if eig is not None:
                closed = {"lower": bounds.kittaneh_lower_coeff(eig),
                          "upper": bounds.kittaneh_upper_coeff(eig, n=eig.s)}
                brute = {mode: oracle.brute_force_kittaneh(eig, mode, n=eig.s,
                                                           budget=args.budget)
                         for mode in closed}
        except BudgetExceededError as exc:
            sys.stderr.write(f"record {rec.id}: {exc}\n")
            return EXIT_BUDGET
        q_up, _ = bounds.q_upper_coeff(pair)
        q_lo, _ = bounds.q_lower_coeff(pair)
        ok = (_agrees(ev_max.value, q_up.coefficient ** 2)
              and _agrees(ev_min.value, q_lo.coefficient ** 2))
        entry = {"id": rec.id, "agrees": ok,
                 "brute_force_max": ev_max.value,
                 "closed_form_max": q_up.coefficient ** 2,
                 "brute_force_min": ev_min.value,
                 "closed_form_min": q_lo.coefficient ** 2}
        if eig is not None:
            for mode in closed:
                ok = (ok and brute[mode].degenerate == closed[mode].degenerate
                      and _agrees(brute[mode].coefficient, closed[mode].coefficient))
                entry[f"brute_force_kittaneh_{mode}"] = brute[mode].coefficient
                entry[f"closed_form_kittaneh_{mode}"] = closed[mode].coefficient
            entry["agrees"] = ok
        all_ok = all_ok and ok
        entries.append(entry)
    report = {"schema_version": SCHEMA_VERSION, "tool_version": __version__,
              "command": "oracle", "input_digest": digest, "records": entries}
    _emit(report, args.out)
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
    _emit(report, args.out)
    return EXIT_OK if not result.violations else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="polarbounds",
                     description="Sharp polar-factor perturbation coefficients, "
                                 "witnesses, and verification campaigns")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default=None, out_help="write the report to PATH"):
        # structured is the one format; the option stays for existing scripts
        p.add_argument("--format", choices=("structured",), default="structured")
        p.add_argument("--out", default=out_default, help=out_help)

    p = sub.add_parser("bounds", help="coefficients for each record of a spectra file")
    p.add_argument("input")
    common(p)
    p.set_defaults(handler="cmd_bounds")

    p = sub.add_parser("table1", help="bounds on the bundled golden spectra file")
    common(p)
    p.set_defaults(handler="cmd_bounds", input=None)

    p = sub.add_parser("witness", help="construct an equality-attaining pair")
    p.add_argument("input")
    p.add_argument("record", help="record id inside the spectra file")
    p.add_argument("bound", choices=extremal.BOUND_IDS)
    # witness writes matrices into a directory
    common(p, "witness-out", "output directory for matrix files")
    p.set_defaults(handler="cmd_witness")

    p = sub.add_parser("oracle", help="brute-force cross-check of the closed forms")
    p.add_argument("input")
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    common(p)
    p.set_defaults(handler="cmd_oracle")

    p = sub.add_parser("verify", help="randomized falsification campaign")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, default=6)
    p.add_argument("--field", choices=("complex", "real"), default="complex")
    p.add_argument("--slack-tol", dest="slack_tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(handler="cmd_verify")

    return parser


# (exception type, exit code, stderr prefix); ArithmeticError covers the
# NumericalRangeError, OverflowError and ZeroDivisionError of extreme scales
# and linalg's SvdConvergenceError
_EXITS = (
    (UsageError, EXIT_USAGE, "usage error"),
    (WitnessVerificationError, EXIT_WITNESS, "witness construction failed"),
    ((fileio.SpectraParseError, UnicodeDecodeError, SpectrumValidationError,
      EnumerationCapError, ArithmeticError), EXIT_INPUT, "input rejected"),
)


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The parser `main` reads arguments with, built on its first call:
    building one takes about a millisecond and leaves a few hundred objects
    in reference cycles."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "table1":
            args.input = table1_path()
        # the handler by name, so a replaced module attribute is the one called
        return globals()[args.handler](args)
    except Exception as exc:
        for exc_type, code, prefix in _EXITS:
            if isinstance(exc, exc_type):
                sys.stderr.write(f"{prefix}: {exc}\n")
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
