"""Validated spectrum containers and the shared scalar machinery.

Every coefficient in the library is a function of two decreasing positive
singular spectra (or two non-zero eigenvalue lists for the normal-matrix
bounds) through the scalars F, G and F_hat defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

DECREASING_SLACK = 1e-14


class SpectrumValidationError(ValueError):
    """Input spectrum violates positivity or decreasing order."""


class NumericalRangeError(ArithmeticError):
    """A computed value (possibly nan) is outside the range its definition
    guarantees, through overflow, underflow or rounding; unlike `assert`,
    this check also runs under `python -O`."""


def check_range(name: str, value: float, lo: float, hi: float) -> None:
    """Raise NumericalRangeError unless lo <= value <= hi (nan fails)."""
    if not lo <= value <= hi:
        raise NumericalRangeError(f"{name} = {value!r} outside [{lo!r}, {hi!r}]")


@dataclass(frozen=True)
class SpectrumPair:
    """Two validated decreasing positive spectra with ranks r <= s.

    `swapped` records that the constructor exchanged the two inputs to
    restore r <= s.
    """
    sigma: tuple          # length r, decreasing, positive
    sigma_tilde: tuple    # length s, decreasing, positive
    swapped: bool = False

    @property
    def r(self) -> int:
        return len(self.sigma)

    @property
    def s(self) -> int:
        return len(self.sigma_tilde)


@dataclass(frozen=True)
class FGScalars:
    F: float    # sum of squares of both spectra
    G: float    # top-aligned cross products, first r terms


@dataclass(frozen=True)
class EigenPair:
    """Non-zero eigenvalue lists of two normal matrices, r <= s."""
    lam: tuple          # length r, complex
    lam_hat: tuple      # length s, complex
    swapped: bool = False

    @property
    def r(self) -> int:
        return len(self.lam)

    @property
    def s(self) -> int:
        return len(self.lam_hat)

    @property
    def F_hat(self) -> float:
        return math.fsum([abs(z) ** 2 for z in self.lam] +
                         [abs(z) ** 2 for z in self.lam_hat])


@dataclass(frozen=True)
class BoundResult:
    theorem_id: str
    coefficient: float
    optimal_index: Optional[int] = None
    degenerate: bool = False
    # for the arrangement bounds: the optimizing (rows, cols) index tuples
    optimal_tuple: Optional[tuple] = None

    def __post_init__(self):
        if self.coefficient < 0:
            raise ValueError("coefficient must be nonnegative")


def _check_decreasing_positive(values: Sequence[float], name: str) -> tuple:
    if len(values) == 0:
        raise SpectrumValidationError(f"{name} is empty")
    vals = tuple(float(v) for v in values)
    for i, v in enumerate(vals):
        if not math.isfinite(v) or v <= 0:
            raise SpectrumValidationError(f"{name}[{i}] = {v} is not positive")
        if i > 0 and v > vals[i - 1] + DECREASING_SLACK:
            raise SpectrumValidationError(
                f"{name} not decreasing at index {i}: {vals[i-1]} < {v}")
    return vals


def validate_spectrum_pair(sigma, sigma_tilde) -> SpectrumPair:
    """Verify (not sort) both spectra and order roles so r <= s."""
    a = _check_decreasing_positive(sigma, "sigma")
    b = _check_decreasing_positive(sigma_tilde, "sigma_tilde")
    if len(a) > len(b):
        return SpectrumPair(sigma=b, sigma_tilde=a, swapped=True)
    return SpectrumPair(sigma=a, sigma_tilde=b)


def fg_scalars(pair: SpectrumPair) -> FGScalars:
    """F = sum of squared singular values, G = top-aligned cross products.

    math.fsum makes both reproducible across summation orders and platforms.
    """
    F = math.fsum([x * x for x in pair.sigma] + [x * x for x in pair.sigma_tilde])
    G = math.fsum(x * y for x, y in zip(pair.sigma, pair.sigma_tilde))
    check_range("2G (Cauchy-Schwarz: at most F)", 2 * G, 0.0, F * (1 + 1e-13))
    return FGScalars(F=F, G=G)


def validate_eigen_pair(lam, lam_hat) -> EigenPair:
    """Verify non-zero eigenvalue lists and order roles so r <= s."""
    def check(values, name):
        if len(values) == 0:
            raise SpectrumValidationError(f"{name} is empty")
        vals = tuple(complex(z) for z in values)
        for i, z in enumerate(vals):
            if not (math.isfinite(z.real) and math.isfinite(z.imag)) or abs(z) == 0:
                raise SpectrumValidationError(f"{name}[{i}] = {z} must be non-zero")
        return vals

    a = check(lam, "lambda")
    b = check(lam_hat, "lambda_hat")
    if len(a) > len(b):
        return EigenPair(lam=b, lam_hat=a, swapped=True)
    return EigenPair(lam=a, lam_hat=b)
