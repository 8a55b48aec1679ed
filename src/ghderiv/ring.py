"""Exact arithmetic over the supported coefficient rings.

Two families of coefficient rings are available: the rational numbers and
the integers modulo m.  ``RingSpec`` alone owns the number format that
every layer computes on.  A raw value over Q is a plain ``int`` or a
``fractions.Fraction`` (already in lowest terms); over Z/mZ it is an
``int`` residue in ``[0, m)``.  There is no floating point anywhere in
this package: ``RingSpec.coerce`` is the one entry point for outside
values and rejects floats, bools and Decimals.  After ``+ - *`` on raw
values, ``RingSpec.reduce`` restores the normal form (nothing to do over
Q, ``% m`` over Z/mZ); ``inv``, ``parse`` and ``format`` complete the
arithmetic.  ``Scalar`` boxes a raw value with its ring for callers who
want operators on single values; the algebra, map, solver and
elimination layers work on raw values directly.

The 2-torsion-free test (``2a = 0`` only for ``a = 0``) matters because
several identities carry an explicit factor of 2 that cannot be divided
out over rings such as Z/4Z.  Callers always keep that multiplier
explicit; nothing in this package divides by 2.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "RingSpec",
    "Scalar",
    "QQ",
    "Zmod",
    "RingMismatch",
    "NotAUnit",
    "CompositeModulusUnsupported",
]


class RingMismatch(ValueError):
    """Two scalars from different coefficient rings met in one operation."""


class NotAUnit(ArithmeticError):
    """Inversion was requested for an element with no multiplicative inverse."""


class CompositeModulusUnsupported(ValueError):
    """An elimination-style operation needs a field: Q or a prime modulus."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True, slots=True)
class RingSpec:
    """Descriptor of a coefficient ring: the rationals or integers mod m.

    ``kind`` is ``"Q"`` (with ``m is None``) or ``"Zmod"`` (with ``m >= 2``).
    Instances are immutable and compare structurally, so they can be passed
    around freely as value objects.
    """

    kind: str
    m: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "Q":
            if self.m is not None:
                raise ValueError("the rationals take no modulus")
        elif self.kind == "Zmod":
            if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 2:
                raise ValueError("modulus must be an integer >= 2")
        else:
            raise ValueError(f"unknown ring kind: {self.kind!r}")

    # -- predicates -------------------------------------------------------

    def two_torsion_free(self) -> bool:
        """True iff 2a = 0 forces a = 0 in this ring (Q always, Z/mZ iff m odd)."""
        if self.kind == "Q":
            return True
        return self.m % 2 == 1

    def is_field(self) -> bool:
        """True for Q and for Z/pZ with p prime."""
        if self.kind == "Q":
            return True
        return _is_prime(self.m)

    # -- raw values ---------------------------------------------------------

    def coerce(self, value):
        """The raw value of an int, a Fraction, a text form or a Scalar.

        This is the one entry point for values from outside the package.
        Anything else, floats, bools and Decimals included, raises
        ValueError: a float has already lost the exact value it stood for.
        """
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            if self.m is None:
                return value.numerator if value.denominator == 1 else value
            if value.denominator != 1:
                raise ValueError(f"{value} is not an integer residue")
            return value.numerator % self.m
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, Scalar):
            if value.ring != self:
                raise RingMismatch(f"scalar from {value.ring} used in {self}")
            return value.value
        raise ValueError(
            f"{value!r} is not an exact scalar: give an int, a Fraction or a string"
        )

    def reduce(self, value):
        """Normal form of a raw sum, difference or product."""
        return value if self.m is None else value % self.m

    def inv(self, value):
        """Inverse of a raw value; raises NotAUnit when none exists."""
        if self.m is None:
            if not value:
                raise NotAUnit("0 has no inverse in Q")
            # Through Fraction: 1 / value on ints would give a float.
            return self.coerce(Fraction(1, value))
        try:
            return pow(value, -1, self.m)
        except ValueError:
            raise NotAUnit(f"{self.format(value)} has no inverse") from None

    def parse(self, text: str):
        """Parse "p/q" or "p" over Q, "r mod m" or a bare integer over Z/mZ."""
        if not isinstance(text, str):
            raise ValueError(f"expected a string, got {text!r}")
        if self.m is None:
            try:
                return self.coerce(Fraction(text.strip()))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad rational literal {text!r}: {exc}") from None
        m = _ZMOD_RE.fullmatch(text)
        if not m:
            raise ValueError(f"bad residue literal {text!r}")
        if m.group(2) is not None and int(m.group(2)) != self.m:
            raise ValueError(
                f"literal {text!r} names modulus {m.group(2)}, ring has {self.m}"
            )
        return int(m.group(1)) % self.m

    def format(self, value) -> str:
        """Text form of a raw value: "p/q" over Q, "r mod m" over Z/mZ."""
        return str(value) if self.m is None else f"{value} mod {self.m}"

    # -- boxed values -------------------------------------------------------

    def zero(self) -> "Scalar":
        return Scalar(self, 0)

    def one(self) -> "Scalar":
        return Scalar(self, 1)

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, text form, or Scalar into this ring."""
        return Scalar(self, value)

    # -- presentation ------------------------------------------------------

    @property
    def name(self) -> str:
        """Short command-line name: "q" or "z<m>"."""
        return "q" if self.kind == "Q" else f"z{self.m}"

    @classmethod
    def from_name(cls, text: str) -> "RingSpec":
        """Parse a short ring name such as "q", "Z5" or "z12"."""
        t = text.strip().lower()
        if t == "q":
            return QQ
        m = re.fullmatch(r"z(?:mod:?)?(\d+)", t)
        if m:
            return Zmod(int(m.group(1)))
        raise ValueError(f"unknown ring name: {text!r}")

    def to_doc(self) -> dict:
        if self.kind == "Q":
            return {"kind": "Q"}
        return {"kind": "Zmod", "m": self.m}

    @classmethod
    def from_doc(cls, doc: dict) -> "RingSpec":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ValueError(f"bad ring document: {doc!r}")
        if doc["kind"] == "Q":
            return QQ
        if doc["kind"] == "Zmod":
            return Zmod(doc["m"])
        raise ValueError(f"unknown ring kind in document: {doc['kind']!r}")

    def __str__(self) -> str:
        return "Q" if self.kind == "Q" else f"Z/{self.m}"


QQ = RingSpec("Q")


def Zmod(m: int) -> RingSpec:
    return RingSpec("Zmod", m)


_ZMOD_RE = re.compile(r"\s*(-?\d+)\s*(?:mod\s*(\d+)\s*)?$")


def _arith(op, swapped=False):
    """A Scalar operator: ``op`` on raw values, normalized by the ring's
    coercion (which reduces mod m)."""

    def method(self, other):
        if isinstance(other, Scalar):
            if other.ring != self.ring:
                raise RingMismatch(f"cannot combine {self.ring} with {other.ring}")
            o = other.value
        elif isinstance(other, int) and not isinstance(other, bool):
            o = other
        else:
            return NotImplemented
        v = op(o, self.value) if swapped else op(self.value, o)
        return Scalar(self.ring, v)

    return method


@dataclass(frozen=True, slots=True)
class Scalar:
    """An exact ring element: a raw value of ``ring`` boxed with its ring."""

    ring: RingSpec
    value: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.ring.coerce(self.value))

    # -- arithmetic --------------------------------------------------------

    __add__ = __radd__ = _arith(operator.add)
    __sub__ = _arith(operator.sub)
    __rsub__ = _arith(operator.sub, swapped=True)
    __mul__ = __rmul__ = _arith(operator.mul)

    def __neg__(self):
        return Scalar(self.ring, -self.value)

    def inv(self) -> "Scalar":
        """Multiplicative inverse; raises NotAUnit when none exists."""
        return Scalar(self.ring, self.ring.inv(self.value))

    def is_zero(self) -> bool:
        return not self.value

    def __bool__(self) -> bool:
        return bool(self.value)

    # -- text form ----------------------------------------------------------

    def __str__(self) -> str:
        return self.ring.format(self.value)

    @classmethod
    def parse(cls, text: str, ring: RingSpec) -> "Scalar":
        """Parse "p/q" or "p" over Q, "r mod m" or a bare integer over Z/mZ."""
        return cls(ring, ring.parse(text))
