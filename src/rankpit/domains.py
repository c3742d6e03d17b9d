"""Coefficient domains: exact rationals and prime fields that fit in 64 bits.

Rationals are `fractions.Fraction` (always lowest terms, positive
denominator); prime-field elements are plain ints reduced to canonical
representatives in [0, p).  A domain object supplies the arithmetic so that
the rest of the package is generic over the two kinds.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldTooSmall, InvalidParams

# Deterministic Miller-Rabin witnesses, sufficient for every n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def json_int(value) -> int:
    """value if it is a JSON integer: true, 2.9 and "2" raise TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def parse_rational(s: str) -> Fraction:
    """Fraction(s), refused with InvalidParams if the numerator or denominator
    Fraction builds for it, before reducing, would have more digits than
    int() reads from a string (sys.get_int_max_str_digits(), or its default
    where that is 0 for "no limit").  Only an exponent can ask for more:
    Fraction("1e999999999") builds 10^999999999, so the sizes are counted
    from the string first.  A malformed string raises Fraction's ValueError."""
    if "e" in s or "E" in s:
        significand, _, exponent = s.lower().rpartition("e")
        power = int(exponent)
        whole, _, frac = significand.partition(".")
        significant = "".join(filter(str.isdecimal, whole + frac)).lstrip("0")
        num = max(len(significant), 1) + max(power, 0)
        den = sum(map(str.isdecimal, frac)) + max(-power, 0) + 1
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if max(num, den) > limit:
            raise InvalidParams(f"{s!r} needs more than {limit} digits as an exact rational")
    return Fraction(s)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (valid far beyond 64 bits)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Rationals:
    """The field of rational numbers with arbitrary-precision integers."""

    @property
    def characteristic(self) -> int:
        return 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        return x if isinstance(x, Fraction) else Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def pow(self, a, e: int):
        return a ** e

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def format(self, a) -> str:
        return str(a)

    def parse(self, s: str) -> Fraction:
        if not isinstance(s, str):  # Fraction(0.1) would read a binary float
            raise TypeError(f"coefficient {s!r} is not a string")
        return parse_rational(s)

    def scalars(self, count: int) -> list[Fraction]:
        """The first `count` distinct scalars: 0, 1, 2, ..."""
        return [Fraction(i) for i in range(count)]

    def to_json(self) -> dict:
        return {"type": "rational"}

    def __str__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """F_p for a prime p that fits in 64 bits; canonical reps in [0, p)."""

    p: int

    @functools.lru_cache(maxsize=64)  # one test a modulus: every file read builds its field
    def __post_init__(self):
        if self.p < 2 or self.p >= 1 << 64 or not is_prime(self.p):
            raise InvalidParams(f"modulus {self.p} is not a prime below 2^64")

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def coerce(self, x) -> int:
        if type(x) is int:  # the common case, ahead of the slower ABC check
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError("denominator divisible by p")
            return x.numerator * pow(den, -1, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def pow(self, a, e: int):
        return pow(a, e, self.p)

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def format(self, a) -> str:
        return str(a % self.p)

    def parse(self, s: str) -> int:
        """An integer or a fraction a/b; b must be invertible mod p."""
        if not isinstance(s, str):  # int(0.1) would read 0
            raise TypeError(f"coefficient {s!r} is not a string")
        try:
            return int(s) % self.p
        except ValueError:
            pass  # int() is >10x faster than Fraction() on the common case
        try:
            return self.coerce(parse_rational(s))
        except ZeroDivisionError:
            raise InvalidParams(f"{s!r} is not defined in F_{self.p}") from None

    def scalars(self, count: int) -> list[int]:
        """The `count` smallest canonical representatives 0, 1, ..., count-1."""
        if count > self.p:
            raise FieldTooSmall(f"need {count} distinct scalars, field has {self.p}")
        return list(range(count))

    def to_json(self) -> dict:
        return {"type": "prime", "p": str(self.p)}

    def __str__(self) -> str:
        return f"F_{self.p}"


def domain_from_json(obj) -> Rationals | PrimeField:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidParams(f"bad field spec: {obj!r}")
    if obj["type"] == "rational":
        return Rationals()
    if obj["type"] == "prime":
        p = obj["p"]  # to_json writes p as a decimal string
        return PrimeField(int(p) if isinstance(p, str) else json_int(p))
    raise InvalidParams(f"unknown field type {obj['type']!r}")
