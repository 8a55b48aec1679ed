"""Exact arithmetic over the supported coefficient rings.

Two families of coefficient rings are available: the rational numbers and
the integers modulo m.  Every scalar is an immutable exact value; there is
no floating point anywhere in this package.  Rationals are kept in lowest
terms with a positive denominator (``fractions.Fraction`` already
guarantees this), residues are kept reduced to the range ``[0, m)``.

The 2-torsion-free test (``2a = 0`` only for ``a = 0``) matters because
several identities carry an explicit factor of 2 that cannot be divided
out over rings such as Z/4Z.  Callers always keep that multiplier
explicit; nothing in this package divides by 2.
"""

from __future__ import annotations

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

    # -- element helpers ---------------------------------------------------

    def zero(self) -> "Scalar":
        return Scalar(self, 0)

    def one(self) -> "Scalar":
        return Scalar(self, 1)

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, text form, or Scalar into this ring."""
        if isinstance(value, Scalar):
            if value.ring != self:
                raise RingMismatch(f"scalar from {value.ring} used in {self}")
            return value
        if isinstance(value, str):
            return Scalar.parse(value, self)
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


@dataclass(frozen=True, slots=True)
class Scalar:
    """An exact ring element: a Fraction over Q, a reduced residue over Z/mZ."""

    ring: RingSpec
    value: object

    def __post_init__(self) -> None:
        if self.ring.kind == "Q":
            object.__setattr__(self, "value", Fraction(self.value))
        else:
            if isinstance(self.value, Fraction):
                if self.value.denominator != 1:
                    raise ValueError(f"{self.value} is not an integer residue")
                object.__setattr__(self, "value", int(self.value) % self.ring.m)
            elif isinstance(self.value, int) and not isinstance(self.value, bool):
                object.__setattr__(self, "value", self.value % self.ring.m)
            else:
                raise ValueError(f"bad residue value: {self.value!r}")

    # -- arithmetic --------------------------------------------------------

    @classmethod
    def _raw(cls, ring, value):
        # Internal fast path: ``value`` is already normalized for ``ring``.
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "value", value)
        return self

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ring != self.ring:
                raise RingMismatch(f"cannot combine {self.ring} with {other.ring}")
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return Scalar(self.ring, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        v = self.value + o.value
        if self.ring.kind != "Q":
            v %= self.ring.m
        return Scalar._raw(self.ring, v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        v = self.value - o.value
        if self.ring.kind != "Q":
            v %= self.ring.m
        return Scalar._raw(self.ring, v)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        v = o.value - self.value
        if self.ring.kind != "Q":
            v %= self.ring.m
        return Scalar._raw(self.ring, v)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        v = self.value * o.value
        if self.ring.kind != "Q":
            v %= self.ring.m
        return Scalar._raw(self.ring, v)

    __rmul__ = __mul__

    def __neg__(self):
        v = -self.value
        if self.ring.kind != "Q":
            v %= self.ring.m
        return Scalar._raw(self.ring, v)

    def inv(self) -> "Scalar":
        """Multiplicative inverse; raises NotAUnit when none exists."""
        if self.ring.kind == "Q":
            if self.value == 0:
                raise NotAUnit("0 has no inverse in Q")
            return Scalar(self.ring, 1 / self.value)
        try:
            return Scalar(self.ring, pow(self.value, -1, self.ring.m))
        except ValueError:
            raise NotAUnit(f"{self} has no inverse") from None

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self) -> bool:
        return self.value != 0

    # -- text form ----------------------------------------------------------

    def __str__(self) -> str:
        if self.ring.kind == "Q":
            return str(self.value)
        return f"{self.value} mod {self.ring.m}"

    @classmethod
    def parse(cls, text: str, ring: RingSpec) -> "Scalar":
        """Parse "p/q" or "p" over Q, "r mod m" or a bare integer over Z/mZ."""
        if not isinstance(text, str):
            raise ValueError(f"expected a string, got {text!r}")
        if ring.kind == "Q":
            try:
                return Scalar(ring, Fraction(text.strip()))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad rational literal {text!r}: {exc}") from None
        m = _ZMOD_RE.fullmatch(text)
        if not m:
            raise ValueError(f"bad residue literal {text!r}")
        if m.group(2) is not None and int(m.group(2)) != ring.m:
            raise ValueError(
                f"literal {text!r} names modulus {m.group(2)}, ring has {ring.m}"
            )
        return Scalar(ring, int(m.group(1)))
