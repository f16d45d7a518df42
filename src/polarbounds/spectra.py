"""Validated spectrum containers and the shared scalar machinery.

Every coefficient in the library is a function of two decreasing positive
singular spectra (or two non-zero eigenvalue lists for the normal-matrix
bounds) through the scalars F, G, D = F - 2G and F_hat defined here.

`SpectrumPair.unit_sums` is the one place the singular spectra are summed
for a constant of degree 0 (h, lee, AM-GM, Cauchy-Schwarz). It divides both
spectra by the even power of two 2**e that brings the larger leading value
into [0.5, 2), which is exact wherever the quotients are normal doubles, and
forms F, G and D and the four sums AM-GM and Cauchy-Schwarz read in one
pass. A degree-0 constant is a ratio of such sums: its squares and fourth
powers neither overflow nor underflow, and scaling both spectra by 4**k
leaves its bits unchanged wherever the scaled values are normal doubles. `SpectrumPair.scalars` is the same F, G and
D times 4**e, at the pair's own scale, for the q tables, the witness checks
and the oracle's grid check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

DECREASING_SLACK = 1e-14   # relative rise allowed between neighbours


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
class FGScalars:
    F: float    # sum of squares of both spectra
    G: float    # top-aligned cross products, first r terms
    D: float    # F - 2G, summed without cancellation


@dataclass(frozen=True)
class UnitSums:
    """The sums of a pair's spectra divided by 2**e (e even)."""
    e: int
    F: float               # sum of squares of both spectra
    G: float               # top-aligned cross products, first r terms
    D: float               # F - 2G, summed without cancellation
    squares: float         # sum of sigma**2
    squares_tilde: float   # sum of sigma~**2
    cross_squares: float   # top-aligned (sigma sigma~)**2, first r terms
    quarts: float          # sum of sigma**4 and sigma~**4


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

    @cached_property
    def unit_sums(self) -> UnitSums:
        """The sums of both spectra divided by 2**e, computed on first use:
        the pair is immutable, and every coefficient of a pair reads them."""
        _, e = math.frexp(max(self.sigma[0], self.sigma_tilde[0]))
        e -= e % 2
        sig = [math.ldexp(x, -e) for x in self.sigma]
        sigt = [math.ldexp(y, -e) for y in self.sigma_tilde]
        sq, sqt = [x * x for x in sig], [y * y for y in sigt]
        F = math.fsum(sq + sqt)
        G = math.fsum(x * y for x, y in zip(sig, sigt))
        D = math.fsum([(x - y) * (x - y) for x, y in zip(sig, sigt)] + sqt[len(sig):])
        check_range("2G (Cauchy-Schwarz: at most F)", 2 * G, 0.0, F * (1 + 1e-13))
        return UnitSums(e=e, F=F, G=G, D=D, squares=math.fsum(sq),
                        squares_tilde=math.fsum(sqt),
                        cross_squares=math.fsum((x * y) ** 2 for x, y in zip(sig, sigt)),
                        quarts=math.fsum([x ** 4 for x in sig] + [y ** 4 for y in sigt]))

    @cached_property
    def scalars(self) -> FGScalars:
        """F, G and D at the pair's own scale: the unit sums times 4**e,
        exact where the product is a normal double, inf or 0 where it
        leaves the double range."""
        u = self.unit_sums
        h = 2.0 ** (u.e // 2)    # 4**e = h**4, and h is a normal double for every e
        return FGScalars(*(x * h * h * h * h for x in (u.F, u.G, u.D)))


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

    @cached_property
    def F_hat(self) -> float:
        """Sum of squared moduli of both lists, computed on first use: both
        Kittaneh bounds of a pair read it."""
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
        if i > 0 and v > vals[i - 1] * (1 + DECREASING_SLACK):
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
    """F = sum of squared singular values, G = top-aligned cross products
    and D = F - 2G, at the pair's own scale: `pair.scalars`, the pair's
    unit sums times 4**e, summed once per pair."""
    return pair.scalars


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
