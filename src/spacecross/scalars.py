"""Exact scalar arithmetic: rationals and degree-2 extensions a + b*sqrt(d).

Rationals are plain ``fractions.Fraction`` values.  ``QuadExt`` adds just
enough quadratic-irrational arithmetic to represent roots of a rational
quadratic and decide their signs exactly; it is not a general algebraic
number type.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction


def rat(value) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def rat_to_str(value: Fraction) -> str:
    """Canonical 'p/q' form with q > 0, denominator always explicit."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


_SCALAR_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def rat_from_str(text: str) -> Fraction:
    """Parse 'p/q' (canonical) or a bare integer string."""
    if not isinstance(text, str):
        raise ValueError(f"expected scalar string, got {type(text).__name__}")
    if not _SCALAR_RE.match(text.strip()):
        raise ValueError(f"scalar must be 'p/q' or an integer, got {text!r}")
    return Fraction(text)


def _exact_isqrt(n: int):
    """The integer square root of n if n is a perfect square, else None."""
    root = math.isqrt(max(n, 0))
    return root if root * root == n else None


def _rational_sqrt(value: Fraction):
    """Return sqrt(value) as a Fraction if value is a perfect rational square."""
    rn, rd = _exact_isqrt(value.numerator), _exact_isqrt(value.denominator)
    return None if rn is None or rd is None else Fraction(rn, rd)


def _zsign(a, b, d) -> int:
    """Exact sign of a + b*sqrt(d) for rationals (ints too) a, b and
    d >= 0, comparing a^2 against b^2 d."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if not sb or sa == sb:
        return sa
    if not sa:
        return sb if d else 0
    x = a * a - b * b * d
    return sa if x > 0 else sb if x < 0 else 0


class DegenerateInput(ValueError):
    """Raised for geometrically invalid inputs such as zero-length segments."""


@dataclass(frozen=True)
class QuadExt:
    """Exact value a + b*sqrt(d) with a, b, d rational and d >= 0.

    Values normalize on construction: if d is zero or a perfect rational
    square the value collapses to its rational part (b folded into a).
    Arithmetic is closed only for operands of one field: radicands equal,
    or in the ratio of a rational square.  Of two irrational operands, the
    left one's radicand is the result's.
    """

    a: Fraction
    b: Fraction
    d: Fraction

    def __init__(self, a, b=0, d=0):
        a, b, d = rat(a), rat(b), rat(d)
        if d < 0:
            raise ValueError("negative radicand")
        if b == 0 or d == 0:
            b, d = Fraction(0), Fraction(0)
        elif (root := _rational_sqrt(d)) is not None:
            a, b, d = a + b * root, Fraction(0), Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def _normal(cls, a: Fraction, b: Fraction, d: Fraction) -> "QuadExt":
        """The value from fields already in normal form, b = d = 0 or b != 0
        with d > 0 no rational square, without the checks of ``__init__``."""
        value = object.__new__(cls)
        object.__setattr__(value, "a", a)
        object.__setattr__(value, "b", b)
        object.__setattr__(value, "d", d)
        return value

    # -- helpers -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def _coerce(self, other) -> "QuadExt":
        """``other`` as a value over this value's radicand.  Radicands whose
        ratio is a rational square r^2 name one field: b*sqrt(d') is
        b*r*sqrt(d) for d' = r^2 d."""
        if isinstance(other, QuadExt):
            if other.b != 0 and self.b != 0 and other.d != self.d:
                root = _rational_sqrt(other.d / self.d)
                if root is None:
                    raise ValueError(f"mixed radicands {self.d} and {other.d}")
                return QuadExt._normal(other.a, other.b * root, self.d)
            return other
        return QuadExt(rat(other))

    def _join_radicand(self, other: "QuadExt") -> Fraction:
        return self.d if self.b != 0 else other.d

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return QuadExt(self.a + o.a, self.b + o.b, self._join_radicand(o))

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt(other - self.a, -self.b, self.d)
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        d = self._join_radicand(o)
        return QuadExt(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            if self.a == 0 and self.b == 0:
                raise ZeroDivisionError("division by zero")
            # a^2 = b^2 d with a, b nonzero would make d a perfect square,
            # which normalization already collapsed.
            raise ZeroDivisionError("division by zero quad value")
        return QuadExt(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- exact sign and order ----------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        return _zsign(self.a, self.b, self.d)

    def __bool__(self):
        return self.sign() != 0

    def __eq__(self, other):
        """Exact equality.  Against an int or a ``Fraction`` a value with
        b != 0 is unequal at once: normalisation has folded every perfect
        square radicand, so its sqrt(d) is irrational, and so is the value.
        """
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        try:
            return (self - other).sign() == 0
        except (ValueError, TypeError):
            return NotImplemented

    def __hash__(self):
        # b*sqrt(d) is fixed by b^2 d and the sign of b, whatever square
        # factor d carries
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b * self.b * self.d, self.b > 0))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(float(self.d))

    def __repr__(self):
        if self.is_rational:
            return f"QuadExt({self.a})"
        return f"QuadExt({self.a} + {self.b}*sqrt({self.d}))"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"a": rat_to_str(self.a), "b": rat_to_str(self.b), "d": rat_to_str(self.d)}

    @staticmethod
    def from_json(doc: dict) -> "QuadExt":
        return QuadExt(rat_from_str(doc["a"]), rat_from_str(doc["b"]), rat_from_str(doc["d"]))


def sign_of(x) -> int:
    """Exact sign of a Fraction, int, or QuadExt."""
    if isinstance(x, QuadExt):
        return x.sign()
    return (x > 0) - (x < 0)


def scalar_to_json(x):
    """Serialize a Fraction as 'p/q' or a QuadExt as its field dict."""
    if isinstance(x, QuadExt):
        if x.is_rational:
            return rat_to_str(x.a)
        return x.to_json()
    return rat_to_str(rat(x))


def scalar_from_json(doc):
    if isinstance(doc, dict):
        return QuadExt.from_json(doc)
    return rat_from_str(doc)
