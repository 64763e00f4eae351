"""Exact complex scalars with rational real and imaginary parts.

Every number in this package is a Gaussian rational a + b*i where a and b
are arbitrary-precision ``fractions.Fraction`` values. The field is closed
under the four arithmetic operations, so no computation ever rounds;
equality is structural equality of the canonical reduced forms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ParseError

Scalarish = Union["GaussianRational", int, Fraction]


@dataclass(frozen=True)
class GaussianRational:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        # Fraction() canonicalizes: reduced, positive denominator. Results of
        # Fraction arithmetic are already canonical, so skip the re-wrap.
        if type(self.re) is not Fraction:
            object.__setattr__(self, "re", Fraction(self.re))
        if type(self.im) is not Fraction:
            object.__setattr__(self, "im", Fraction(self.im))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __add__(self, other: Scalarish) -> "GaussianRational":
        o = coerce_scalar(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: Scalarish) -> "GaussianRational":
        o = coerce_scalar(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Scalarish) -> "GaussianRational":
        return coerce_scalar(other) - self

    def __mul__(self, other: Scalarish) -> "GaussianRational":
        o = coerce_scalar(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalarish) -> "GaussianRational":
        o = coerce_scalar(other)
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return self * GaussianRational(o.re / norm, -o.im / norm)

    def __rtruediv__(self, other: Scalarish) -> "GaussianRational":
        return coerce_scalar(other) / self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __str__(self) -> str:
        """Render as ``a/b``, ``c/d*i`` or ``a/b+c/d*i`` (zero parts omitted)."""
        if self.im == 0:
            return str(self.re)
        imag = f"{self.im}*i" if self.im > 0 else f"-{-self.im}*i"
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I_UNIT = GaussianRational(Fraction(0), Fraction(1))


def coerce_scalar(value: Scalarish) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value))
    raise TypeError(f"cannot treat {value!r} as a scalar")


_FRACTION = r"[+-]?\d+(?:/\d+)?"
_REAL_RE = re.compile(rf"^({_FRACTION})$")
_IMAG_RE = re.compile(rf"^([+-]?)(?:(\d+(?:/\d+)?)\*)?i$")
_FULL_RE = re.compile(rf"^({_FRACTION})([+-])(?:(\d+(?:/\d+)?)\*)?i$")


def _fraction(digits: str, text: str) -> Fraction:
    try:
        return Fraction(digits)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in scalar: {text!r}") from None


def parse_scalar(text: str) -> GaussianRational:
    """Parse the string form produced by ``str()``, e.g. ``1/2-3/4*i``.

    Bare ``i`` and ``-i`` are accepted for convenience. A zero denominator
    in either part is malformed input and raises ``ParseError`` too.
    """
    s = text.strip().replace(" ", "")
    m = _REAL_RE.match(s)
    if m:
        return GaussianRational(_fraction(m.group(1), text))
    m = _IMAG_RE.match(s)
    if m:
        coeff = _fraction(m.group(2), text) if m.group(2) else Fraction(1)
        if m.group(1) == "-":
            coeff = -coeff
        return GaussianRational(Fraction(0), coeff)
    m = _FULL_RE.match(s)
    if m:
        coeff = _fraction(m.group(3), text) if m.group(3) else Fraction(1)
        if m.group(2) == "-":
            coeff = -coeff
        return GaussianRational(_fraction(m.group(1), text), coeff)
    raise ParseError(f"not a Gaussian rational: {text!r}")
