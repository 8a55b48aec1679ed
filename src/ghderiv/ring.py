"""Exact arithmetic over the supported coefficient rings.

Two families of coefficient rings are available: the rational numbers,
``QQ``, and the integers modulo m, ``Zmod(m)``; a ``RingSpec``'s modulus
``m`` alone says which (``None`` for Q).  ``RingSpec`` alone owns the
number format that every layer computes on.  A raw value over Q is a plain
``int`` or a ``fractions.Fraction`` with a denominator above 1 (a whole
number is always an ``int``); over Z/mZ it is an ``int`` residue in
``[0, m)``.  There is no floating point anywhere in this package:
``RingSpec.coerce`` is the one entry point for outside values and rejects
floats, bools and Decimals.
After ``+ - *`` on raw values, ``RingSpec.reduce`` restores the normal form
(an integral ``Fraction`` becomes its ``int`` over Q, ``% m`` over Z/mZ);
``inv``, ``parse`` and ``format`` complete the arithmetic.  No value is
boxed: the algebra, map, solver and elimination layers all work on raw
values directly.  A rational literal's decimal exponent is at most
``MAX_EXPONENT`` = 1000 in absolute value, and a literal carries at most
``MAX_DIGITS`` = 2000 digits, exponent included, as does a residue or a
modulus: ``parse`` and ``from_name`` refuse more before ``Fraction`` or
``int`` would build the value.  A number given as a number obeys the
same budget: ``coerce`` refuses an int or a Fraction whose numerator or
denominator has more digits, and ``from_doc`` such a modulus.  So every
value read from outside can be written back as text, and so can a
product of two of them.  ``parse``, which has bounded its literal, and
``inv``, which inverts computed values, skip that check.  ``is_field``
decides primality by Miller-Rabin, exactly below ``PRIME_TEST_BOUND``
(about 3.317e24), and refuses a larger modulus.

Parsing is memoised per document.  A table or matrix repeats a few
distinct vectors many times (a tn8 table holds 1,296 cells, 37 of them
distinct, and most of those all ``"0"``), so the algebra and map
constructors coerce through ``RingSpec.vectors()``, which checks that each
vector is an array of the right length and coerces each distinct one
once, for as long as the returned function lives: one table, one matrix.
Inside it ``RingSpec.coercer()`` does the same per distinct value.
``coerce`` stays the one entry point: the memos call it on the first
sighting of each value, so every error message, and the order in which
errors surface, is the same as without them.

The 2-torsion-free test (``2a = 0`` only for ``a = 0``) matters because
several identities carry an explicit factor of 2 that cannot be divided
out over rings such as Z/4Z.  Callers always keep that multiplier
explicit; nothing in this package divides by 2.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "RingSpec",
    "QQ",
    "Zmod",
    "RingMismatch",
    "NotAUnit",
    "CompositeModulusUnsupported",
]


class RingMismatch(ValueError):
    """Algebras, triples or spaces over different coefficient rings met in
    one operation."""


class NotAUnit(ArithmeticError):
    """Inversion was requested for an element with no multiplicative inverse."""


class CompositeModulusUnsupported(ValueError):
    """An elimination-style operation needs a field: Q or a prime modulus."""


# Miller-Rabin on the prime bases 2 to 41 decides primality exactly below
# this bound, the least strong pseudoprime to all of them; bases 2 to 37
# alone pass the composite 318665857834031151167461.
PRIME_TEST_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above PRIME_TEST_BOUND,
    where it could call a composite prime."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"cannot decide whether {_shown_number(n)} is prime: "
                         f"moduli below {PRIME_TEST_BOUND} are supported")
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class RingSpec:
    """Descriptor of a coefficient ring: the rationals or integers mod m.

    ``m`` is ``None`` for Q and the modulus, an integer ``>= 2``, for Z/mZ.
    Instances are immutable and compare structurally, so they can be passed
    around freely as value objects.  Ring documents name the ring by
    ``"kind"``: ``{"kind": "Q"}`` or ``{"kind": "Zmod", "m": m}``.
    """

    m: int | None = None

    def __post_init__(self) -> None:
        if self.m is not None:
            _check_modulus(self.m)

    # -- predicates -------------------------------------------------------

    def two_torsion_free(self) -> bool:
        """True iff 2a = 0 forces a = 0 in this ring (Q always, Z/mZ iff m odd)."""
        if self.m is None:
            return True
        return self.m % 2 == 1

    def is_field(self) -> bool:
        """True for Q and for Z/pZ with p prime.  A modulus at or above
        ``PRIME_TEST_BOUND`` raises ValueError instead of a guess."""
        if self.m is None:
            return True
        return _is_prime(self.m)

    # -- raw values ---------------------------------------------------------

    def coerce(self, value):
        """The raw value of an int, a Fraction or a text form.

        This is the one entry point for values from outside the package.
        Anything else, floats, bools and Decimals included, raises
        ValueError: a float has already lost the exact value it stood for.
        So does a numerator or denominator of more than ``MAX_DIGITS``
        digits, as ``parse`` refuses one.
        """
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            if abs(value.numerator) >= _DIGITS_BOUND or value.denominator >= _DIGITS_BOUND:
                raise ValueError(f"bad scalar {_shown_number(value)}: "
                                 f"more than {MAX_DIGITS} digits")
            return self._raw(value)
        if isinstance(value, str):
            return self.parse(value)
        raise ValueError(
            f"{value!r} is not an exact scalar: give an int, a Fraction or a string"
        )

    def _raw(self, value):
        """The raw value of an int or a Fraction of any size."""
        if self.m is None:
            return value.numerator if value.denominator == 1 else value
        if value.denominator != 1:
            raise ValueError(f"{value} is not an integer residue")
        return value.numerator % self.m

    def coercer(self):
        """A ``coerce`` function that coerces each distinct value once.

        The memo lives as long as the returned function.  It keys only
        values of exact type ``str`` or ``int``: ``True == 1`` and
        ``0.0 == 0`` hash equal to ints, so a memo keyed by value alone
        would let a bool or a float through behind an equal int.  Every
        other value goes to ``coerce`` each time.
        """
        coerce = self.coerce
        lookup = _Memo(coerce).__getitem__

        def coerce_once(value):
            if type(value) is str or type(value) is int:
                return lookup(value)
            return coerce(value)

        return coerce_once

    def vectors(self, dim: int, error: str):
        """A function that coerces one vector of ``dim`` values, each
        distinct vector once.

        A vector is a list or tuple (a JSON array) of exactly ``dim``
        values; anything else, a string or an array of another length
        among them, raises ValueError(error).  The memo lives as long as the returned
        function.  Like ``coercer`` it keys only vectors whose values are
        all of exact type ``str`` or ``int``, so ``[True, 0]`` or
        ``[1.0, 0]`` never meets an equal ``[1, 0]``; equal vectors that it
        keys share one tuple of raw values.
        """
        coerce = self.coercer()
        memo = {}

        def vector(values):
            key = tuple(array(values, dim, error))
            if not _EXACT.issuperset(map(type, key)):
                return tuple(map(coerce, key))
            raw = memo.get(key)
            if raw is None:
                raw = memo[key] = tuple(map(coerce, key))
            return raw

        return vector

    def reduce(self, value):
        """Normal form of a raw sum, difference or product.

        Over Z/mZ the residue in ``[0, m)``; over Q an integral ``Fraction``
        becomes its ``int``, so whole numbers are always plain ints.
        """
        if self.m is not None:
            return value % self.m
        if type(value) is int or value.denominator != 1:
            return value
        return value.numerator

    def inv(self, value):
        """Inverse of a raw value; raises NotAUnit when none exists."""
        if self.m is None:
            if not value:
                raise NotAUnit("0 has no inverse in Q")
            # Through Fraction: 1 / value on ints would give a float.  A
            # computed value may carry more than MAX_DIGITS digits.
            return self._raw(Fraction(1, value))
        try:
            return pow(value, -1, self.m)
        except ValueError:
            raise NotAUnit(f"{self.format(value)} has no inverse") from None

    def parse(self, text: str):
        """Parse "p/q" or "p" over Q, "r mod m" or a bare integer over Z/mZ."""
        if not isinstance(text, str):
            raise ValueError(f"expected a string, got {text!r}")
        if self.m is None:
            mantissa, exponent = text, 0
            match = _EXPONENT_RE.search(text)
            if match:
                digits = match[1].replace("_", "").lstrip("0")
                if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
                    raise ValueError(f"bad rational literal {_shown(text)}: "
                                     f"exponent above {MAX_EXPONENT}")
                mantissa, exponent = text[:match.start()], int(digits or 0)
            if (len(mantissa) + exponent > MAX_DIGITS
                    and sum(map(str.isdecimal, mantissa)) + exponent > MAX_DIGITS):
                raise ValueError(f"bad rational literal {_shown(text)}: "
                                 f"more than {MAX_DIGITS} digits")
            try:
                return self._raw(Fraction(text.strip()))
            except (ValueError, ZeroDivisionError) as exc:
                reason = exc if len(text) <= _SHOWN_CHARS else "not a rational number"
                raise ValueError(f"bad rational literal {_shown(text)}: {reason}") from None
        m = _ZMOD_RE.fullmatch(text)
        if not m:
            raise ValueError(f"bad residue literal {_shown(text)}")
        if len(m[1].lstrip("-")) > MAX_DIGITS or len(m[2] or "") > MAX_DIGITS:
            raise ValueError(f"bad residue literal {_shown(text)}: "
                             f"more than {MAX_DIGITS} digits")
        if m.group(2) is not None and int(m.group(2)) != self.m:
            raise ValueError(f"literal {_shown(text)} names modulus "
                             f"{_shown_number(int(m.group(2)))}, ring has {_shown_number(self.m)}")
        return int(m.group(1)) % self.m

    def format(self, value) -> str:
        """Text form of a raw value: "p/q" over Q, "r mod m" over Z/mZ."""
        return str(value) if self.m is None else f"{value} mod {self.m}"

    # -- presentation ------------------------------------------------------

    @property
    def name(self) -> str:
        """Short command-line name: "q" or "z<m>"."""
        return "q" if self.m is None else f"z{self.m}"

    @classmethod
    def from_name(cls, text: str) -> "RingSpec":
        """Parse a short ring name such as "q", "Z5" or "z12"."""
        t = text.strip().lower()
        if t == "q":
            return QQ
        m = re.fullmatch(r"z(?:mod:?)?(\d+)", t)
        if m:
            if len(m[1]) > MAX_DIGITS:
                raise ValueError(f"bad ring name {_shown(text)}: "
                                 f"a modulus of more than {MAX_DIGITS} digits")
            return Zmod(int(m.group(1)))
        raise ValueError(f"unknown ring name: {_shown(text)}")

    def to_doc(self) -> dict:
        if self.m is None:
            return {"kind": "Q"}
        return {"kind": "Zmod", "m": self.m}

    @classmethod
    def from_doc(cls, doc: dict) -> "RingSpec":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ValueError(f"bad ring document: {doc!r}")
        if doc["kind"] == "Q":
            return QQ
        if doc["kind"] == "Zmod":
            if "m" not in doc:
                raise ValueError("bad ring document: a Zmod ring needs its modulus 'm'")
            m = doc["m"]
            if type(m) is int and m >= _DIGITS_BOUND:
                raise ValueError(f"bad ring document: the modulus {_shown_number(m)} "
                                 f"has more than {MAX_DIGITS} digits")
            return Zmod(m)
        raise ValueError(f"unknown ring kind in document: {doc['kind']!r}")

    def __str__(self) -> str:
        return "Q" if self.m is None else f"Z/{self.m}"


QQ = RingSpec()


def _check_modulus(m) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise ValueError("modulus must be an integer >= 2")


def Zmod(m: int) -> RingSpec:
    """Z/mZ; a modulus that is not an integer >= 2, ``None`` included,
    raises ValueError rather than naming Q."""
    _check_modulus(m)
    return RingSpec(m)


def array(values, n: int, error: str):
    """``values`` if it is a list or tuple (a JSON array) of ``n`` items;
    ValueError(error) otherwise.  A string is not an array."""
    if (type(values) is not list and type(values) is not tuple) or len(values) != n:
        raise ValueError(error)
    return values


# The value types a memo may key: an exact int or str never equals a value
# of another type that coercion would treat differently.
_EXACT = frozenset((int, str))


class _Memo(dict):
    """``fn(key)``, computed on the first lookup of each key and kept."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


# The largest decimal exponent, in absolute value, a rational literal may
# carry: Fraction("1e999999999") would build 10**999999999 first.
MAX_EXPONENT = 1000
# The most digits a literal or a modulus may carry, exponent included:
# Python refuses to convert an int of more than 4,300 digits to or from
# text, and a sum of products of two values of this many digits stays
# under that.
MAX_DIGITS = 2000
_DIGITS_BOUND = 10 ** MAX_DIGITS
# Error messages show a longer literal or name by its first 20 characters.
_SHOWN_CHARS = 60
_EXPONENT_RE = re.compile(r"e[-+]?([\d_]+)", re.IGNORECASE)
_ZMOD_RE = re.compile(r"\s*(-?\d+)\s*(?:mod\s*(\d+)\s*)?$")


def _shown(text: str) -> str:
    """``repr(text)`` for an error message, shortened when it is long."""
    if len(text) <= _SHOWN_CHARS:
        return repr(text)
    return f"{text[:20]!r}... ({len(text)} characters)"


def _shown_number(value) -> str:
    """An int or a Fraction for an error message: its text when that is
    short, else shortened as by ``_shown``.  No long int is turned into
    text, which Python refuses past 4,300 digits: the shortened form is
    built from each part's first 20 digits and its digit count."""
    parts = (value.numerator,) if value.denominator == 1 else (value.numerator, value.denominator)
    heads, length = [], len(parts) - 1
    for n in parts:
        a = abs(n)
        digits = max(int(a.bit_length() * math.log10(2)), 1)  # off by one at most
        digits += (a >= 10 ** digits) - (a < 10 ** (digits - 1))
        heads.append(("-" if n < 0 else "") + str(a // 10 ** max(digits - 20, 0)))
        length += digits + (n < 0)
    if length <= _SHOWN_CHARS:
        return str(value)
    return f"{'/'.join(heads)[:20]!r}... ({length} characters)"
