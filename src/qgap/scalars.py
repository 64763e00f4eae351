"""Exact complex scalars with rational real and imaginary parts.

Every number in this package is a Gaussian rational (a + b*i)/d, stored as
three Python ints: the real numerator ``a``, the imaginary numerator ``b``
and a shared positive denominator ``d``, reduced so that
``gcd(a, b, d) == 1``. That form is unique for each value, so equality is
equality of the triples. The field is closed under the four arithmetic
operations, so no computation ever rounds; each operation is integer
arithmetic followed by a single gcd. Each part is an ``int`` or a
``Fraction`` (anything else raises ``TypeError``), and ``.re`` and ``.im``
give them back as ``Fraction`` values. Text becomes a scalar only through
``parse_scalar``; it is read and printed on the integer triple.

``Frozen`` is the base of every value class in the package: it refuses
assignment and deletion of attributes, compares and hashes a value by its
field tuple and prints it as ``Name(field=value, ...)``. Each class writes
its own ``__init__``, so importing the package runs no class generator. A
value is checked once, where it enters: ``__init__`` converts, checks and
stores a value from outside, and ``Frozen._of`` (for ``GaussianRational``,
``_make``) stores one the package derived and has already decided. A
sequence field is stored as a tuple, so a value built from lists equals and
hashes like one built from tuples.
"""

from __future__ import annotations

import re
import string
from fractions import Fraction
from math import gcd
from typing import Union

from .errors import InvalidValueError, ParseError

Scalarish = Union["GaussianRational", int, Fraction]


_RATIONAL = (int, Fraction)


class Frozen:
    """Base of the package's immutable values: no attribute is assigned or deleted.

    A subclass's ``__init__`` converts and checks its arguments, turning
    each sequence into a tuple, then stores its fields past this rule, with
    ``object.__setattr__`` (or, for ``GaussianRational``, its slots'
    setters), and ``_fields`` names them in order. Two values are equal
    when they are of the same class and their field tuples are equal; the
    hash is the hash of the field tuple, and ``repr`` shows every field.
    ``_of`` stores a derived value's fields as given, without ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    @classmethod
    def _of(cls, *values: object):
        """The value whose fields, in ``_fields`` order, are ``values``, stored without ``__init__``."""
        x = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(x, name, value)
        return x

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class GaussianRational(Frozen):
    """Immutable (a + b*i)/d with d > 0 and gcd(a, b, d) == 1."""

    __slots__ = ("_a", "_b", "_d")
    _fields = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0) -> None:
        if not (isinstance(re, _RATIONAL) and isinstance(im, _RATIONAL)):
            raise TypeError(f"scalar parts must be int or Fraction, got {re!r} and {im!r}")
        rd, im_d = re.denominator, im.denominator
        a, b, d = re.numerator * im_d, im.numerator * rd, rd * im_d
        g = gcd(a, b, d)
        _set_a(self, a // g)
        _set_b(self, b // g)
        _set_d(self, d // g)

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    # Not Frozen's rule: reading re and im builds two Fractions, so == took ~9 us against ~0.3 us on the triple.
    def __eq__(self, other: object) -> bool:
        if type(other) is not GaussianRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __add__(self, other: Scalarish) -> "GaussianRational":
        o = other if type(other) is GaussianRational else coerce_scalar(other)
        d1, d2 = self._d, o._d
        a, b, d = self._a * d2 + o._a * d1, self._b * d2 + o._b * d1, d1 * d2
        g = gcd(a, b, d)
        return _make(a // g, b // g, d // g)

    __radd__ = __add__

    def __sub__(self, other: Scalarish) -> "GaussianRational":
        o = other if type(other) is GaussianRational else coerce_scalar(other)
        return _add(self, _make(-o._a, -o._b, o._d))

    def __rsub__(self, other: Scalarish) -> "GaussianRational":
        return coerce_scalar(other) - self

    def __mul__(self, other: Scalarish) -> "GaussianRational":
        o = other if type(other) is GaussianRational else coerce_scalar(other)
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * o._d
        g = gcd(a, b, d)
        # 99.3% of the 9312 products of the first 1200 ValuateMix(7) ops have g = 1; with this return a multiply
        # took 680-771 ns against 710-880 ns without, faster in 10 of 10 processes (min of 21 passes each, both
        # forms in every process, 2-vCPU VM, Python 3.11.7).
        if g == 1:
            return _make(a, b, d)
        return _make(a // g, b // g, d // g)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalarish) -> "GaussianRational":
        # x/y = x * conj(y) / |y|^2 with y = (c + e*i)/f:
        # ((a + b*i)/d) / y = (a + b*i)(c - e*i) * f / (d * (c^2 + e^2)).
        o = other if type(other) is GaussianRational else coerce_scalar(other)
        c, e, f = o._a, o._b, o._d
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        a1, b1 = self._a, self._b
        return _reduce((a1 * c + b1 * e) * f, (b1 * c - a1 * e) * f, self._d * norm)

    def __rtruediv__(self, other: Scalarish) -> "GaussianRational":
        return coerce_scalar(other) / self

    def __neg__(self) -> "GaussianRational":
        return _make(-self._a, -self._b, self._d)

    def __str__(self) -> str:
        """Render as ``a/b``, ``c/d*i`` or ``a/b+c/d*i`` (zero parts omitted).

        An integer with more digits than the interpreter's int-string limit
        has no decimal text; printing one raises ``InvalidValueError``.
        """
        a, b, d = self._a, self._b, self._d
        try:
            if not b:
                return _ratio_text(a, d)
            imag = f"{_ratio_text(b, d)}*i"  # a negative part carries its own sign
            return f"{_ratio_text(a, d)}{'+' if b > 0 else ''}{imag}" if a else imag
        except ValueError:
            raise InvalidValueError(
                "scalar too long to print: more digits than the int-string limit"
            ) from None


# Bound once, so a subtraction is one addition even where a tracer wraps the class attribute.
_add = GaussianRational.__add__
_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _ratio_text(n: int, d: int) -> str:
    """``n/d`` in lowest terms, or the integer alone when ``d`` divides ``n``."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _make(a: int, b: int, d: int) -> GaussianRational:
    """Build from an already canonical triple, skipping coercion and reduction."""
    x = _new(GaussianRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _reduce(a: int, b: int, d: int) -> GaussianRational:
    """Build (a + b*i)/d for integers with d > 0, reduced to lowest terms."""
    g = gcd(a, b, d)
    return _make(a // g, b // g, d // g)


ZERO = GaussianRational()
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)


def coerce_scalar(value: Scalarish) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, _RATIONAL):
        return _make(value.numerator, 0, value.denominator)
    raise TypeError(f"cannot treat {value!r} as a scalar")


# ASCII digits only: without re.ASCII, \d also matches other scripts'
# decimal digits, which int() would then read as their values. A real part
# must end the text or meet the imaginary part's sign.
_SCALAR_RE = re.compile(
    r"(?:([+-]?\d+)(?:/(\d+))?(?=[+-]|\Z))?(?:([+-]?)(?:(\d+)(?:/(\d+))?\*)?i)?", re.ASCII
)


def _ratio(numerator: str, denominator: str | None, text: str) -> tuple[int, int]:
    try:
        n, d = int(numerator), int(denominator or 1)
    except ValueError:  # a numeral past the interpreter's int-string limit
        raise ParseError(
            f"numeral too long in scalar of {len(text)} characters: "
            "more digits than the int-string limit"
        ) from None
    if not d:
        raise ParseError(f"zero denominator in scalar: {text!r}")
    return n, d


def parse_scalar(text: str) -> GaussianRational:
    """Parse the string form produced by ``str()``, e.g. ``1/2-3/4*i``.

    Bare ``i`` and ``-i`` are accepted for convenience. A scalar is one
    token: only surrounding ASCII whitespace is stripped, so ``"1 0"`` and
    a no-break space before ``1`` are malformed. A zero denominator in
    either part, or a numeral with more digits than the interpreter's
    int-string limit, is malformed input and raises ``ParseError`` too.
    """
    s = text.strip(string.whitespace)
    m = _SCALAR_RE.fullmatch(s)
    if not s or m is None:
        raise ParseError(f"not a Gaussian rational: {text!r}")
    re_num, re_den, im_sign, im_num, im_den = m.groups()
    # The imaginary part is read first, so its fault wins when both parts have one.
    b, bd = (0, 1) if im_sign is None else _ratio(im_sign + (im_num or "1"), im_den, text)
    a, ad = (0, 1) if re_num is None else _ratio(re_num, re_den, text)
    return _reduce(a * bd, b * ad, ad * bd)
