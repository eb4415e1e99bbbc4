"""Truncated Novikov-series arithmetic in three ring modes.

An element is a finite formal sum ``sum a_A T^A`` over lattice exponents A,
with coefficients in a chosen field.  The ring mode fixes which terms are
negligible at a cutoff C:

* ``OMEGA0``   drops A iff omega0(A) > C,
* ``OMEGA1``   drops A iff omega1(A) > C,
* ``INTERVAL`` drops A iff min(omega0(A), omega1(A)) > C.

A term is negligible for the interval ring only when it is deep in the
topology of every interpolated period, and by affineness the minimum over
the interval is attained at an endpoint; this reproduces exactly the
asymmetry that makes ``1 - T^B`` invertible at one endpoint but not over
the interval ring.

The module also houses the rank-2 valuation (the lexicographic minimum of
period pairs over the support) and the two comparison orders on value
pairs: plain lexicographic, and t-weighted lexicographic which compares
``(1-t)a + t*b`` first and breaks ties by the second coordinate.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Mapping

from .periods import Exponent, PeriodSystem, exponent_add

INF = float("inf")


class ModeMismatch(ValueError):
    pass


class RingMode(enum.Enum):
    OMEGA0 = "omega0"
    OMEGA1 = "omega1"
    INTERVAL = "interval"

    def keeps(self, pair: tuple[Fraction, Fraction], cutoff: Fraction) -> bool:
        g0, g1 = pair
        if self is RingMode.OMEGA0:
            return g0 <= cutoff
        if self is RingMode.OMEGA1:
            return g1 <= cutoff
        return min(g0, g1) <= cutoff


class Rank2Value:
    """A value of the rank-2 valuation: a pair of rationals or (+inf, +inf).

    The only admissible infinite value is the fully infinite one, attained
    exactly by the zero element.  It stores the ``INF`` singleton, so that
    ``is_infinite`` is an identity test.
    """

    __slots__ = ("v0", "v1")

    def __init__(self, v0, v1):
        inf0 = v0 == INF
        if inf0 != (v1 == INF):
            raise ValueError("partially infinite valuation pair is forbidden")
        if inf0:
            v0 = v1 = INF
        else:
            v0, v1 = Fraction(v0), Fraction(v1)
        object.__setattr__(self, "v0", v0)
        object.__setattr__(self, "v1", v1)

    def __setattr__(self, *args):
        raise AttributeError("Rank2Value is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not Rank2Value:
            return NotImplemented
        return self.v0 == other.v0 and self.v1 == other.v1

    @property
    def is_infinite(self) -> bool:
        return self.v0 is INF

    def as_tuple(self):
        return (self.v0, self.v1)

    def weight(self, t) -> object:
        """The interpolated value (1-t)*v0 + t*v1; inf for the zero element."""
        if self.is_infinite:
            return INF
        t = Fraction(t)
        return (1 - t) * self.v0 + t * self.v1

    def add(self, other: "Rank2Value") -> "Rank2Value":
        if self.is_infinite or other.is_infinite:
            return VALUE_INF
        return Rank2Value(self.v0 + other.v0, self.v1 + other.v1)

    def __repr__(self) -> str:
        if self.is_infinite:
            return "Rank2Value(inf, inf)"
        return f"Rank2Value({self.v0}, {self.v1})"


VALUE_INF = Rank2Value(INF, INF)


def _cmp(a, b) -> int:
    return (a > b) - (a < b)


def compare_lex(p: Rank2Value, q: Rank2Value) -> int:
    """Lexicographic comparison: first coordinates, ties by the second."""
    c = _cmp(p.v0, q.v0)
    if c != 0:
        return c
    return _cmp(p.v1, q.v1)


def compare_t_weighted(p: Rank2Value, q: Rank2Value, t) -> int:
    """Compare (1-t)a + t*b values, ties broken by the second coordinate."""
    c = _cmp(p.weight(t), q.weight(t))
    if c != 0:
        return c
    return _cmp(p.v1, q.v1)


class LexOrder:
    """Plain lexicographic order on valuation pairs."""

    def key(self, pair: tuple[Fraction, Fraction]):
        return pair

    def compare(self, p: Rank2Value, q: Rank2Value) -> int:
        return compare_lex(p, q)

    def describe(self) -> str:
        return "lex"


class TWeightedOrder:
    """t-weighted lexicographic order on valuation pairs."""

    def __init__(self, t):
        t = Fraction(t)
        if not (0 <= t <= 1):
            raise ValueError(f"t={t} outside [0, 1]")
        self.t = t

    def key(self, pair: tuple[Fraction, Fraction]):
        g0, g1 = pair
        return ((1 - self.t) * g0 + self.t * g1, g1)

    def compare(self, p: Rank2Value, q: Rank2Value) -> int:
        return compare_t_weighted(p, q, self.t)

    def describe(self) -> str:
        return f"t-weighted({self.t})"


class NovikovElement:
    """A finite, truncated Novikov series over a period system.

    ``terms`` maps exponents to nonzero field coefficients; every stored
    exponent survives the mode's truncation predicate at the cutoff.
    Instances are immutable; all arithmetic returns fresh elements.
    """

    __slots__ = ("system", "field", "mode", "cutoff", "terms")

    def __init__(self, system: PeriodSystem, field, mode: RingMode, cutoff,
                 terms: Mapping[Exponent, object]):
        cutoff = Fraction(cutoff)
        clean: dict[Exponent, object] = {}
        for a, c in terms.items():
            a = tuple(a)
            system.check_exponent(a)
            c = field.coerce(c)
            if field.is_zero(c):
                continue
            if mode.keeps(system.pair(a), cutoff):
                clean[a] = c
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("NovikovElement is immutable")

    def _compatible(self, other: "NovikovElement") -> None:
        if self.system != other.system:
            raise ModeMismatch("period system mismatch")
        if self.field != other.field:
            raise ModeMismatch("coefficient field mismatch")
        if self.mode is not other.mode:
            raise ModeMismatch(f"ring mode mismatch: {self.mode} vs {other.mode}")
        if self.cutoff != other.cutoff:
            raise ModeMismatch(f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")

    def is_zero(self) -> bool:
        return not self.terms

    def like(self, terms: Mapping[Exponent, object]) -> "NovikovElement":
        return NovikovElement(self.system, self.field, self.mode, self.cutoff, terms)

    def __add__(self, other: "NovikovElement") -> "NovikovElement":
        self._compatible(other)
        out = dict(self.terms)
        f = self.field
        for a, c in other.terms.items():
            s = f.add(out.get(a, f.zero), c)
            if f.is_zero(s):
                out.pop(a, None)
            else:
                out[a] = s
        return self.like(out)

    def __neg__(self) -> "NovikovElement":
        f = self.field
        return self.like({a: f.neg(c) for a, c in self.terms.items()})

    def __sub__(self, other: "NovikovElement") -> "NovikovElement":
        return self + (-other)

    def __mul__(self, other: "NovikovElement") -> "NovikovElement":
        self._compatible(other)
        f = self.field
        out: dict[Exponent, object] = {}
        for a, c in self.terms.items():
            for b, d in other.terms.items():
                e = exponent_add(a, b)
                s = f.add(out.get(e, f.zero), f.mul(c, d))
                if f.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return self.like(out)

    def scale(self, coeff) -> "NovikovElement":
        f = self.field
        coeff = f.coerce(coeff)
        if f.is_zero(coeff):
            return self.like({})
        return self.like({a: f.mul(c, coeff) for a, c in self.terms.items()})

    def shift(self, exponent: Exponent) -> "NovikovElement":
        """Multiply by the monomial T^exponent (re-truncating)."""
        exponent = tuple(exponent)
        return self.like({exponent_add(a, exponent): c for a, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NovikovElement)
            and self.system == other.system
            and self.field == other.field
            and self.mode is other.mode
            and self.cutoff == other.cutoff
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.system, self.mode, self.cutoff,
                     frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"NovikovElement({render_element(self)!r})"


def zero(system: PeriodSystem, field, mode: RingMode, cutoff) -> NovikovElement:
    return NovikovElement(system, field, mode, cutoff, {})


def monomial(system: PeriodSystem, field, mode: RingMode, cutoff,
             exponent: Exponent, coeff=1) -> NovikovElement:
    return NovikovElement(system, field, mode, cutoff, {tuple(exponent): coeff})


def unit(system: PeriodSystem, field, mode: RingMode, cutoff) -> NovikovElement:
    return monomial(system, field, mode, cutoff, (0,) * system.rank, 1)


def add(x: NovikovElement, y: NovikovElement) -> NovikovElement:
    return x + y


def mul(x: NovikovElement, y: NovikovElement) -> NovikovElement:
    return x * y


def valuation(x: NovikovElement, order=None) -> Rank2Value:
    """The minimum over the support of period pairs, in the given order.

    Defaults to the lexicographic order; among pairs the order ties, the
    lexicographically least (``min_support_level``), whatever the order
    the terms were inserted in.  Returns the fully infinite value exactly
    when x = 0.
    """
    return min_support_level(x, order or LexOrder())[0]


def valuation_at(x: NovikovElement, t):
    """min over the support of interpolated periods; inf iff x = 0."""
    t = Fraction(t)
    if not (0 <= t <= 1):
        raise ValueError(f"t={t} outside [0, 1]")
    if x.is_zero():
        return INF
    return min((1 - t) * g0 + t * g1 for g0, g1 in
               (x.system.pair(a) for a in x.terms))


def min_support_level(x: NovikovElement, order) -> tuple[Rank2Value, list[Exponent]]:
    """The order-minimal valuation pair of x and all exponents attaining it.

    Attainment is up to order-equality of pairs (relevant for the
    t-weighted order at t = 1, where distinct pairs may compare equal).
    """
    if x.is_zero():
        return VALUE_INF, []
    pairs = {a: x.system.pair(a) for a in x.terms}
    best_key = min(order.key(p) for p in pairs.values())
    level = [a for a, p in pairs.items() if order.key(p) == best_key]
    best_pair = min(pairs[a] for a in level)
    return Rank2Value(*best_pair), sorted(level)


def convert_mode(x: NovikovElement, mode: RingMode) -> NovikovElement:
    """Reinterpret the element in another ring mode (re-truncating)."""
    return NovikovElement(x.system, x.field, mode, x.cutoff, x.terms)


def _mode_value(mode: RingMode, pair: tuple[Fraction, Fraction]) -> Fraction:
    if mode is RingMode.OMEGA0:
        return pair[0]
    if mode is RingMode.OMEGA1:
        return pair[1]
    return min(pair)


def mode_min_value(x: NovikovElement, mode: RingMode | None = None):
    """Minimum over the support of the mode's governing period value."""
    mode = mode or x.mode
    if x.is_zero():
        return INF
    return min(_mode_value(mode, x.system.pair(a)) for a in x.terms)


def try_invert(x: NovikovElement) -> NovikovElement | None:
    """Inverse of x in its truncated ring, or None when none exists.

    Splits off the term of minimal governing value and runs the quadratic
    geometric-series refinement; the residual's governing value must
    strictly grow each round, or the function returns None (the leading
    level is not a unit at cutoff scale).  The loop needs no cap: that
    value lies in (1/denom)Z, denom the lcm of the period denominators,
    and stays at most the cutoff while the residual is nonzero (truncation
    drops every term above it), so the residual reaches zero after finitely
    many rounds.
    """
    if x.is_zero():
        return None
    mode = x.mode

    def keyfn(a):
        p = x.system.pair(a)
        return (_mode_value(mode, p), p, a)

    a0 = min(x.terms, key=keyfn)
    try:
        inv0 = x.field.inv(x.terms[a0])
    except ZeroDivisionError:
        return None
    y = monomial(x.system, x.field, mode, x.cutoff, tuple(-c for c in a0), inv0)
    one = unit(x.system, x.field, mode, x.cutoff)
    last = None
    while True:
        r = one - x * y
        if r.is_zero():
            return y
        m = mode_min_value(r, mode)
        if last is None:
            if not m > 0:
                return None
        elif not m > last:
            return None
        last = m
        y = y + y * r


def render_element(x: NovikovElement) -> str:
    """Canonical text form: terms sorted by period pair, then by coords."""
    if x.is_zero():
        return "0"
    def sort_key(a):
        return (x.system.pair(a), a)
    parts = []
    for a in sorted(x.terms, key=sort_key):
        coeff = x.field.render(x.terms[a])
        exp = ",".join(str(c) for c in a)
        parts.append(f"{coeff}*T^({exp})")
    return " + ".join(parts)
