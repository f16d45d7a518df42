"""Text formats: spectra records, which the CLI reads, and matrices, which
it writes and reads back. Both are line-oriented. Matrix entries are
written with 17 significant digits, so complex doubles survive a round
trip, and spectra parse errors carry line numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

MATRIX_MAGIC = "polarbounds-matrix 1"


class SpectraParseError(ValueError):
    """Malformed spectra file; message carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class SpectraRecord:
    id: str
    sigma: List[float] = field(default_factory=list)
    sigma_tilde: List[float] = field(default_factory=list)
    eigen: Optional[List[complex]] = None
    eigen_hat: Optional[List[complex]] = None


# list field: (type of its tokens, the noun an error on a bad token uses)
_LIST_FIELDS = {"sigma": (float, "number"), "sigma_tilde": (float, "number"),
                "eigen": (complex, "complex token"), "eigen_hat": (complex, "complex token")}


def parse_spectra_text(text: str) -> List[SpectraRecord]:
    """Parse records of the form::

        record <id>
        sigma 8.7559 6.1282 5.0602
        sigma_tilde 7.3693 5.7829 3.2958 2.5156
        eigen 1 -1j          # optional, complex tokens
        eigen_hat -1 -1      # optional

    A record runs until the next ``record`` line. Blank lines and ``#``
    comments are ignored. A repeated field is an error at its second line,
    a missing one at its ``record`` line.
    """
    records: List[SpectraRecord] = []
    starts: List[int] = []   # the line number of each `record` line
    current: Optional[SpectraRecord] = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key, rest = tokens[0], tokens[1:]
        if key == "record":
            if len(rest) != 1:
                raise SpectraParseError(line_no, "record needs exactly one id")
            current = SpectraRecord(id=rest[0])
            records.append(current)
            starts.append(line_no)
            continue
        if current is None:
            raise SpectraParseError(line_no, f"field {key!r} before any record")
        kind, noun = _LIST_FIELDS.get(key, (None, None))
        if kind is None:
            raise SpectraParseError(line_no, f"unknown field {key!r}")
        if getattr(current, key):
            raise SpectraParseError(line_no, f"repeated field {key!r}")
        try:
            values = list(map(kind, rest))
        except ValueError as exc:
            raise SpectraParseError(line_no, f"bad {noun} in {key}: {exc}") from exc
        if not values:
            raise SpectraParseError(line_no, f"{key} needs at least one value")
        setattr(current, key, values)
    for line_no, rec in zip(starts, records):
        if not rec.sigma or not rec.sigma_tilde:
            raise SpectraParseError(line_no, f"record {rec.id!r} missing sigma or sigma_tilde")
        if (rec.eigen is None) != (rec.eigen_hat is None):
            raise SpectraParseError(line_no, f"record {rec.id!r} has only one eigen list")
    return records


def write_matrix_text(a: np.ndarray) -> str:
    """Header plus row-major re/im pairs at 17 significant digits."""
    a = np.ascontiguousarray(a, dtype=complex)
    m, n = a.shape
    row = " ".join(["%.17g"] * (2 * n))
    lines = [row % tuple(x) for x in a.view(np.float64).tolist()]
    return "\n".join([MATRIX_MAGIC, f"{m} {n} complex", *lines]) + "\n"


def read_matrix_text(text: str) -> np.ndarray:
    """Inverse of write_matrix_text. ValueError on a malformed header or row
    count, and on a row with the wrong number of values or a bad or
    non-finite one; the error names that row, counted from 0."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != MATRIX_MAGIC:
        raise ValueError("not a matrix file (bad magic line)")
    header = lines[1] if len(lines) > 1 else ""
    try:
        m, n, kind = header.split()
        m, n = int(m), int(n)
    except ValueError:
        kind = None
    if kind != "complex":
        raise ValueError(f"bad matrix header: {header!r}")
    if m < 1 or n < 1:
        raise ValueError(f"matrix dimensions must be at least 1, got {m} x {n}")
    if len(lines) != 2 + m:
        raise ValueError(f"expected {m} data rows, found {len(lines) - 2}")
    values: List[float] = []
    for i, line in enumerate(lines[2:]):
        toks = line.split()
        if len(toks) != 2 * n:
            raise ValueError(f"row {i}: expected {2 * n} numbers, found {len(toks)}")
        try:
            row = [*map(float, toks)]
        except ValueError as exc:
            raise ValueError(f"row {i}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"row {i}: non-finite value in {line.strip()!r}")
        values += row
    # filled in place, not viewed: a view would keep a second array object
    # alive beside every matrix read
    out = np.empty((m, n), dtype=complex)
    out.view(np.float64).reshape(-1)[:] = values
    return out
