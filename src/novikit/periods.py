"""Sphere-class lattice with two rational period homomorphisms.

The lattice is Z^k.  A :class:`PeriodSystem` carries two rational linear
forms ``omega0`` and ``omega1`` on the lattice; interpolation
``(1-t)*omega0 + t*omega1`` gives the one-parameter family of periods the
rest of the package filters by.  Infinite supports are only representable
as rays ``{base + n*direction : n >= 0}``, for which the downward
finiteness of period sublevel sets is decidable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Tuple

Exponent = Tuple[int, ...]


class DimensionMismatch(ValueError):
    pass


def _as_fraction_vector(v: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in v)


class PeriodSystem:
    """Lattice Z^k with two rational period forms.

    ``generic`` is advisory only: proportional period forms are legal
    inputs (they model rescaling) and merely flagged.
    """

    __slots__ = ("rank", "omega0", "omega1")

    def __init__(self, rank: int, omega0: Iterable, omega1: Iterable):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        w0 = _as_fraction_vector(omega0)
        w1 = _as_fraction_vector(omega1)
        if len(w0) != rank or len(w1) != rank:
            raise DimensionMismatch(
                f"period vectors must have length {rank}, got {len(w0)} and {len(w1)}"
            )
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "omega0", w0)
        object.__setattr__(self, "omega1", w1)

    def __setattr__(self, *args):
        raise AttributeError("PeriodSystem is immutable")

    @property
    def generic(self) -> bool:
        """True unless the two period forms are proportional (incl. zero)."""
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                if self.omega0[i] * self.omega1[j] != self.omega0[j] * self.omega1[i]:
                    return True
        return False

    def check_exponent(self, a: Exponent) -> None:
        if len(a) != self.rank:
            raise DimensionMismatch(
                f"exponent {a} has length {len(a)}, system rank is {self.rank}"
            )

    def pair(self, a: Exponent) -> tuple[Fraction, Fraction]:
        """Both period values (omega0(a), omega1(a)) of a lattice vector.

        Uncached; the int pairs that orders and truncation compare are
        ``series.NovikovRing.ipair``."""
        self.check_exponent(a)
        return (sum((w * c for w, c in zip(self.omega0, a)), Fraction(0)),
                sum((w * c for w, c in zip(self.omega1, a)), Fraction(0)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PeriodSystem)
            and self.rank == other.rank
            and self.omega0 == other.omega0
            and self.omega1 == other.omega1
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.omega0, self.omega1))


class RaySupport:
    """The infinite exponent set {base + n*direction : n >= 0}."""

    __slots__ = ("base", "direction")

    def __init__(self, base: Exponent, direction: Exponent):
        if len(base) != len(direction):
            raise DimensionMismatch("base and direction lengths differ")
        if all(c == 0 for c in direction):
            raise ValueError("ray direction must be nonzero")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "direction", direction)

    def __setattr__(self, *args):
        raise AttributeError("RaySupport is immutable")


def period_pair(sys: PeriodSystem, a: Exponent) -> tuple[Fraction, Fraction]:
    """(omega0(a), omega1(a)) in exact rational arithmetic."""
    return sys.pair(tuple(a))


def period_at(sys: PeriodSystem, a: Exponent, t) -> Fraction:
    """Interpolated period (1-t)*omega0(a) + t*omega1(a), 0 <= t <= 1."""
    t = Fraction(t)
    if not (0 <= t <= 1):
        raise ValueError(f"t={t} outside [0, 1]")
    g0, g1 = sys.pair(tuple(a))
    return (1 - t) * g0 + t * g1


def ray_finite_for(sys: PeriodSystem, ray: RaySupport, t) -> bool:
    """Whether period sublevel sets of the ray are finite at parameter t.

    The ray's period values are base + n*period(direction); any sublevel
    set {value <= C} is finite exactly when period(direction) > 0.
    """
    return period_at(sys, ray.direction, t) > 0


def ray_finite_interval(sys: PeriodSystem, ray: RaySupport) -> bool:
    """Finiteness of the ray simultaneously for every t in [0, 1].

    Equivalent to the conjunction of the two endpoint tests: the
    direction's interpolated period is affine in t, and an affine
    function positive at both endpoints is positive throughout.
    """
    return ray_finite_for(sys, ray, 0) and ray_finite_for(sys, ray, 1)


def exponent_add(a: Exponent, b: Exponent) -> Exponent:
    if len(a) != len(b):
        raise DimensionMismatch("exponent lengths differ")
    return tuple(x + y for x, y in zip(a, b))


def exponent_sub(a: Exponent, b: Exponent) -> Exponent:
    if len(a) != len(b):
        raise DimensionMismatch("exponent lengths differ")
    return tuple(x - y for x, y in zip(a, b))
