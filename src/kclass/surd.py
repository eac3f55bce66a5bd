"""Exact arithmetic for real quadratic irrationals and continued fractions.

Values are stored as (a + b*sqrt(d))/c with integer a, b, c and the
radicand d they were written with; d is never factored.  The stored form
has c > 0 and gcd(a, b, c) = 1, and d = 1 exactly when the value is
rational (then b = 0): a perfect-square d is folded into a.  Equality
and hashing read a key that does not depend on the radicand, so equal
values written over different radicands compare equal.  Rational values
are representable so that intermediate arithmetic stays closed, but the
continued-fraction entry points insist on irrational input.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, isqrt

from .matrix import IntMatrix, unimodular_inverse

CF_STEPS = 10**4   # continued-fraction digits expanded before giving up


def same_field_root(d1: int, d2: int) -> int | None:
    """isqrt(d1*d2) when d1*d2 is a perfect square, else None.

    sqrt(d1) and sqrt(d2) span the same field exactly when d1*d2 is a
    square r*r, and then sqrt(d2) = r*sqrt(d1)/d1.
    """
    r = isqrt(d1 * d2)
    return r if r * r == d1 * d2 else None


class QuadraticIrrational:
    """(a + b*sqrt(d))/c over its own radicand, exact throughout."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int = 1):
        if c == 0:
            raise ValueError("zero denominator")
        if d < 1:
            raise ValueError("radicand must be >= 1")
        r = isqrt(d)
        if r * r == d:
            a += b * r
            b, d = 0, 1
        elif not b:
            d = 1
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(gcd(abs(a), abs(b)), c)
        if g > 1:
            a //= g
            b //= g
            c //= g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticIrrational is immutable")

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def key(self) -> tuple[Fraction, int, Fraction]:
        """(a/c, sign of b, b*b*d/(c*c)).  The value is a/c plus the signed
        root of the last entry, which is irrational unless b = 0, so equal
        values have equal keys whatever radicands they are written with."""
        return (Fraction(self.a, self.c), (self.b > 0) - (self.b < 0),
                Fraction(self.b * self.b * self.d, self.c * self.c))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = QuadraticIrrational(other, 0, 1)
        return isinstance(other, QuadraticIrrational) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def _over_common_radicand(self, other: "QuadraticIrrational") -> tuple[int, int, int, int]:
        """(d, a2, b2, c2) with other = (a2 + b2*sqrt(d))/c2, where d is the
        radicand of self, or of other when self is rational."""
        if not self.b or not other.b:
            return self.d if self.b else other.d, other.a, other.b, other.c
        d = self.d
        r = same_field_root(d, other.d)
        if r is None:
            raise ValueError("values live in different quadratic fields")
        return d, other.a * d, other.b * r, other.c * d

    @staticmethod
    def _coerce(x):
        if isinstance(x, QuadraticIrrational):
            return x
        if isinstance(x, int):
            return QuadraticIrrational(x, 0, 1)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, a2, b2, c2 = self._over_common_radicand(other)
        a = self.a * c2 + a2 * self.c
        b = self.b * c2 + b2 * self.c
        return QuadraticIrrational(a, b, self.c * c2, d)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, a2, b2, c2 = self._over_common_radicand(other)
        a = self.a * a2 + self.b * b2 * d
        b = self.a * b2 + self.b * a2
        return QuadraticIrrational(a, b, self.c * c2, d)

    __rmul__ = __mul__

    def reciprocal(self) -> "QuadraticIrrational":
        if self.a == 0 and self.b == 0:
            raise ZeroDivisionError("reciprocal of zero")
        # 1/x = c(a - b sqrt(d)) / (a^2 - b^2 d)
        norm = self.a * self.a - self.b * self.b * self.d
        return QuadraticIrrational(self.c * self.a, -self.c * self.b, norm, self.d)

    def sign(self) -> int:
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.b > 0:
            if self.a >= 0:
                return 1
            return 1 if self.b * self.b * self.d > self.a * self.a else -1
        if self.a <= 0:
            return -1
        return 1 if self.a * self.a > self.b * self.b * self.d else -1

    def __str__(self) -> str:
        if self.b == 0:
            return f"{self.a}/{self.c}" if self.c != 1 else str(self.a)
        op = "+" if self.b > 0 else "-"
        return f"({self.a}{op}{abs(self.b)}*sqrt({self.d}))/{self.c}"

    __repr__ = __str__


_FULL = re.compile(
    r"^\(\s*(-?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)\s*(?:/\s*(-?\d+))?$")
_BARE = re.compile(
    r"^(?:(-?\d+)\s*([+-])\s*)?(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)$")
_ROOT = re.compile(r"^(-?)\s*sqrt\(\s*(\d+)\s*\)$")


def int_literal(text: str) -> int:
    """int(text) for a decimal literal, with a ValueError that names the
    digit count and the interpreter's limit when it is past that limit."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"an integer of {len(text.lstrip('+-')):,} digits is past the "
                         f"{sys.get_int_max_str_digits():,}-digit limit on reading "
                         "integers") from None


def parse_surd(text: str) -> QuadraticIrrational:
    """Parse "(a+b*sqrt(d))/c" and the obvious abbreviations.

    Accepted: "(A+B*sqrt(D))/C", "(A-B*sqrt(D))/C" (the /C may be
    omitted), "A+B*sqrt(D)", "B*sqrt(D)", "sqrt(D)", "-sqrt(D)".
    Rational inputs (perfect-square D) are rejected.
    """
    s = text.strip()
    m = _FULL.match(s)
    if m:
        a, sgn, b, d, c = m.groups()
        b = int_literal(b)
        val = QuadraticIrrational(int_literal(a), b if sgn == "+" else -b,
                                  int_literal(c) if c is not None else 1, int_literal(d))
    else:
        m = _BARE.match(s)
        if m:
            a, sgn, b, d = m.groups()
            b = int_literal(b) if sgn in (None, "+") else -int_literal(b)
            val = QuadraticIrrational(int_literal(a) if a is not None else 0, b, 1, int_literal(d))
        else:
            m = _ROOT.match(s)
            if not m:
                raise ValueError(f"cannot parse quadratic irrational: {text!r}")
            neg, d = m.groups()
            val = QuadraticIrrational(0, -1 if neg else 1, 1, int_literal(d))
    if val.is_rational:
        raise ValueError(f"not irrational: {text!r}")
    return val


def mobius_apply(M: IntMatrix, x: QuadraticIrrational) -> QuadraticIrrational:
    """(M00 x + M01) / (M10 x + M11)."""
    if M.rows != 2 or M.cols != 2:
        raise ValueError("Moebius transform needs a 2x2 matrix")
    num = x * M[0, 0] + M[0, 1]
    den = x * M[1, 0] + M[1, 1]
    return num * den.reciprocal()


def cf_expansion(x: QuadraticIrrational) -> tuple[list[int], list[int]]:
    """Exact continued fraction (preperiod, minimal period).

    Writes x = (P + sqrt(D))/Q with Q | D - P*P and steps P <- qQ - P,
    Q <- (D - P*P)/Q for each digit q on integers.  D is fixed, so the
    first repeated (P, Q) closes the minimal period.  Raises ValueError
    naming ``CF_STEPS`` when no state repeats within that many digits.
    """
    if x.is_rational:
        raise ValueError("continued fraction of a rational: not supported here")
    s = 1 if x.b > 0 else -1
    P, Q, D = s * x.a, s * x.c, x.b * x.b * x.d
    if (D - P * P) % Q:
        P, Q, D = P * abs(Q), Q * abs(Q), D * Q * Q
    r = isqrt(D)
    seen: dict[tuple[int, int], int] = {}
    digits: list[int] = []
    for k in range(CF_STEPS):
        j = seen.setdefault((P, Q), k)
        if j != k:
            return digits[:j], digits[j:]
        # r < sqrt(D) < r + 1: no integer lies between (P+r)/Q and (P+r+1)/Q
        q = (P + r) // Q if Q > 0 else (P + r + 1) // Q
        digits.append(q)
        P = q * Q - P
        Q = (D - P * P) // Q
    raise ValueError(f"continued fraction did not close within CF_STEPS={CF_STEPS} digits")


def digit_matrix(q: int) -> IntMatrix:
    return IntMatrix([[q, 1], [1, 0]])


def convergent_matrix(digits) -> IntMatrix:
    M = IntMatrix.identity(2)
    for q in digits:
        M = M @ digit_matrix(q)
    return M


def _period_match(x: QuadraticIrrational, y: QuadraticIrrational):
    """(preperiod of x, period of x, preperiod of y, r) such that the
    period of x rotated by r digits is the period of y, or None when the
    continued fractions of x and y have no common tail."""
    if x.is_rational or y.is_rational:
        raise ValueError("inputs must be irrational")
    if same_field_root(x.d, y.d) is None:
        return None
    pre1, per1 = cf_expansion(x)
    pre2, per2 = cf_expansion(y)
    if len(per1) != len(per2):
        return None
    for r in range(len(per1)):
        if per1[r:] + per1[:r] == per2:
            return pre1, per1, pre2, r
    return None


def sturmian_equivalent(x: QuadraticIrrational, y: QuadraticIrrational) -> bool:
    """Whether x and y have eventually coinciding continued fractions.

    Equivalent to integral Moebius equivalence (determinant +-1), which
    decides ordered-group isomorphism of Z + xZ and Z + yZ.
    """
    return _period_match(x, y) is not None


def equivalence_witness(x: QuadraticIrrational, y: QuadraticIrrational) -> IntMatrix | None:
    """A unimodular M with mobius_apply(M, x) == y, or None.

    Built from the continued fractions: if the tail of x after m digits
    equals the tail of y after n digits, then y = G_n(y) G_m(x)^{-1} x.
    """
    match = _period_match(x, y)
    if match is None:
        return None
    pre1, per1, pre2, r = match
    M = convergent_matrix(pre2) @ unimodular_inverse(convergent_matrix(pre1 + per1[:r]))
    assert mobius_apply(M, x) == y
    return M
