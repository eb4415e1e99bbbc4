"""Coefficient fields for Novikov series: prime fields Z/p and the rationals.

All arithmetic is exact.  Elements of ``PrimeField(p)`` are plain ints in
``range(p)``; elements of ``RationalField`` are ``fractions.Fraction``.
The field object itself carries the operations, so series code stays
agnostic of the concrete element type.  ``render_fraction`` is the one
text form of a rational, in files and in all output.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


def render_fraction(x) -> str:
    """The canonical "p/q" string of a rational."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# Primes are checked by trial division, which stays fast below this cap.
PRIME_CAP = 2 ** 31


class PrimeField:
    """The field Z/p for a prime p < 2^31, elements represented as ints in
    range(p)."""

    def __init__(self, p: int = 2):
        if p >= PRIME_CAP:
            raise FieldError(f"{p} is not below 2^31")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def coerce(self, n) -> int:
        return int(n) % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def render(self, a: int) -> str:
        return str(a % self.p)

    def parse(self, s: str) -> int:
        return int(s) % self.p

    def sample(self, rng) -> int:
        return rng.randrange(self.p)

    def sample_nonzero(self, rng) -> int:
        return rng.randrange(1, self.p)

    @property
    def name(self) -> str:
        return "f2" if self.p == 2 else f"f{self.p}"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class RationalField:
    """The rationals, elements represented as ``Fraction``."""

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        return Fraction(x)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        return Fraction(a) / Fraction(b)

    def is_zero(self, a: Fraction) -> bool:
        return a == 0

    def render(self, a: Fraction) -> str:
        return render_fraction(a)

    def parse(self, s: str) -> Fraction:
        return Fraction(s)

    def sample(self, rng) -> Fraction:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def sample_nonzero(self, rng) -> Fraction:
        while True:
            x = self.sample(rng)
            if x != 0:
                return x

    @property
    def name(self) -> str:
        return "q"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")

    def __repr__(self) -> str:
        return "RationalField()"


GF2 = PrimeField(2)
QQ = RationalField()


def field_by_name(name: str):
    """Resolve a field spec string: ``f2`` (or ``f<p>``) and ``q``."""
    name = name.strip().lower()
    if name == "q":
        return QQ
    if name.startswith("f"):
        return PrimeField(int(name[1:]))
    raise FieldError(f"unknown field spec {name!r}")
