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

A :class:`NovikovRing` fixes the period system, field, mode and cutoff,
and scales periods and cutoff to ints once; every element holds its ring.

The module also houses the rank-2 valuation (the lexicographic minimum of
period pairs over the support) and the two orders on value pairs: plain
lexicographic, and t-weighted lexicographic which compares ``(1-t)a + t*b``
first and breaks ties by the second coordinate.  An order is its ``key``
on the ring's int pairs; keys compare as tuples.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import inf, lcm
from typing import Mapping

from .periods import Exponent, PeriodSystem, exponent_add

INF = float("inf")


class ModeMismatch(ValueError):
    pass


class RingMode(enum.Enum):
    OMEGA0 = "omega0"
    OMEGA1 = "omega1"
    INTERVAL = "interval"


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


class LexOrder:
    """Plain lexicographic order on valuation pairs."""

    def key(self, pair):
        return pair

    def describe(self) -> str:
        return "lex"


class TWeightedOrder:
    """t-weighted lexicographic order on valuation pairs.

    At t = p/q the key of a pair (g0, g1) is ``((q-p)*g0 + p*g1, g1)``:
    q times the weighted value, then the tie-breaker, so int pairs (such as
    ``NovikovRing.ipair``) get int keys in the same order.
    """

    def __init__(self, t):
        t = Fraction(t)
        if not (0 <= t <= 1):
            raise ValueError(f"t={t} outside [0, 1]")
        self.t = t
        self._w0, self._w1 = t.denominator - t.numerator, t.numerator

    def key(self, pair):
        g0, g1 = pair
        return (self._w0 * g0 + self._w1 * g1, g1)

    def describe(self) -> str:
        return f"t-weighted({self.t})"


_new_element = object.__new__
_set = object.__setattr__


class NovikovRing:
    """One truncated Novikov ring: a period system, a coefficient field, a
    ring mode and a cutoff, with one integer scale.

    ``scale`` is the lcm L of the period and cutoff denominators, so the
    cutoff (``icutoff``) and both period values of every exponent
    (``ipair``, cached in the ring) are ints over L.  Multiplying by L > 0
    keeps order and ties, so orders, truncation and sorts compare these
    ints; ``Fraction``s are built only where values leave the package.
    ``bounds`` is the mode's truncation rule on those ints: T^a survives
    when ``g0 <= bounds[0]`` or ``g1 <= bounds[1]``, a coordinate the mode
    ignores having bound ``-inf``.
    A complex builds one ring and all its elements share it; rings built
    apart compare equal by value.
    """

    __slots__ = ("system", "field", "mode", "cutoff", "scale", "icutoff",
                 "bounds", "_w0", "_w1", "_pairs")

    def __init__(self, system: PeriodSystem, field, mode: RingMode, cutoff):
        cutoff = Fraction(cutoff)
        scale = lcm(cutoff.denominator, *(w.denominator for w in system.omega0 + system.omega1))
        top = int(cutoff * scale)
        bounds = (-inf if mode is RingMode.OMEGA1 else top,
                  -inf if mode is RingMode.OMEGA0 else top)
        for name, value in (("system", system), ("field", field), ("mode", mode),
                            ("cutoff", cutoff), ("scale", scale),
                            ("icutoff", top), ("bounds", bounds),
                            ("_w0", tuple(int(w * scale) for w in system.omega0)),
                            ("_w1", tuple(int(w * scale) for w in system.omega1)),
                            ("_pairs", {})):  # _pairs: exponent -> ipair
            _set(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError("NovikovRing is immutable")

    def ipair(self, a: Exponent) -> tuple[int, int]:
        """``(L*omega0(a), L*omega1(a))`` as ints."""
        p = self._pairs.get(a)
        if p is None:
            p = self._pairs[a] = (sum(w * c for w, c in zip(self._w0, a)),
                                  sum(w * c for w, c in zip(self._w1, a)))
        return p

    def keeps(self, a: Exponent) -> bool:
        """The mode's truncation test: whether T^a survives the cutoff."""
        g0, g1 = self.ipair(a)
        b0, b1 = self.bounds
        return g0 <= b0 or g1 <= b1

    def element(self, terms: dict) -> "NovikovElement":
        """The trusted constructor: ``terms`` is already clean (exponent
        tuples of this ring's rank, nonzero field values, every exponent
        kept) and becomes the element's own dict."""
        x = _new_element(NovikovElement)
        _set(x, "ring", self)
        _set(x, "terms", terms)
        return x

    def check(self, other: "NovikovRing") -> None:
        """``ModeMismatch`` unless ``other`` is this ring or equals it."""
        if other is not self and other != self:
            raise ModeMismatch(f"ring mismatch: {self!r} vs {other!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not NovikovRing:
            return NotImplemented
        return (self.system == other.system and self.field == other.field
                and self.mode is other.mode and self.cutoff == other.cutoff)

    def __hash__(self) -> int:
        return hash((self.system, self.mode, self.cutoff))

    def __repr__(self) -> str:
        return f"NovikovRing({self.field.name}, {self.mode.value}, cutoff {self.cutoff})"


class NovikovElement:
    """A finite, truncated Novikov series in one ring.

    ``terms`` maps exponents to nonzero field coefficients; every stored
    exponent survives the ring's truncation test.  This constructor checks
    and cleans its input; ``NovikovRing.element`` trusts it.  Instances
    are immutable; all arithmetic returns fresh elements.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: NovikovRing, terms: Mapping[Exponent, object]):
        system, field, keeps = ring.system, ring.field, ring.keeps
        clean: dict[Exponent, object] = {}
        for a, c in terms.items():
            a = tuple(a)
            system.check_exponent(a)
            c = field.coerce(c)
            if not field.is_zero(c) and keeps(a):
                clean[a] = c
        _set(self, "ring", ring)
        _set(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("NovikovElement is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "NovikovElement") -> "NovikovElement":
        ring = self.ring
        ring.check(other.ring)
        out = dict(self.terms)
        f = ring.field
        for a, c in other.terms.items():
            s = f.add(out.get(a, f.zero), c)
            if f.is_zero(s):
                out.pop(a, None)
            else:
                out[a] = s
        return ring.element(out)

    def __neg__(self) -> "NovikovElement":
        f = self.ring.field
        return self.ring.element({a: f.neg(c) for a, c in self.terms.items()})

    def __sub__(self, other: "NovikovElement") -> "NovikovElement":
        return self + (-other)

    def __mul__(self, other: "NovikovElement") -> "NovikovElement":
        ring = self.ring
        ring.check(other.ring)
        f, keeps = ring.field, ring.keeps
        out: dict[Exponent, object] = {}
        for a, c in self.terms.items():
            for b, d in other.terms.items():
                e = exponent_add(a, b)
                if not keeps(e):
                    continue
                s = f.add(out.get(e, f.zero), f.mul(c, d))
                if f.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return ring.element(out)

    def scale(self, coeff) -> "NovikovElement":
        f = self.ring.field
        coeff = f.coerce(coeff)
        if f.is_zero(coeff):
            return self.ring.element({})
        return self.ring.element({a: f.mul(c, coeff) for a, c in self.terms.items()})

    def shift(self, exponent: Exponent) -> "NovikovElement":
        """Multiply by the monomial T^exponent (re-truncating)."""
        exponent = tuple(exponent)
        return NovikovElement(self.ring, {exponent_add(a, exponent): c
                                          for a, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NovikovElement)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"NovikovElement({render_element(self)!r})"


def zero(ring: NovikovRing) -> NovikovElement:
    return ring.element({})


def monomial(ring: NovikovRing, exponent: Exponent, coeff=1) -> NovikovElement:
    return NovikovElement(ring, {tuple(exponent): coeff})


def unit(ring: NovikovRing) -> NovikovElement:
    return monomial(ring, (0,) * ring.system.rank, 1)


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
    p, q = t.numerator, t.denominator
    low = min((q - p) * g0 + p * g1 for g0, g1 in map(x.ring.ipair, x.terms))
    return Fraction(low, q * x.ring.scale)


def min_support_level(x: NovikovElement, order) -> tuple[Rank2Value, list[Exponent]]:
    """The order-minimal valuation pair of x and all exponents attaining it.

    Attainment is up to order-equality of pairs (relevant for the
    t-weighted order at t = 1, where distinct pairs may compare equal).
    """
    if x.is_zero():
        return VALUE_INF, []
    pairs = {a: x.ring.ipair(a) for a in x.terms}
    best_key = min(order.key(p) for p in pairs.values())
    level = [a for a, p in pairs.items() if order.key(p) == best_key]
    g0, g1 = min(pairs[a] for a in level)
    scale = x.ring.scale
    return Rank2Value(Fraction(g0, scale), Fraction(g1, scale)), sorted(level)


def convert_mode(x: NovikovElement, mode: RingMode) -> NovikovElement:
    """Reinterpret the element in another ring mode (re-truncating)."""
    ring = x.ring
    return NovikovElement(NovikovRing(ring.system, ring.field, mode, ring.cutoff), x.terms)


def _mode_value(mode: RingMode, pair: tuple[int, int]) -> int:
    if mode is RingMode.OMEGA0:
        return pair[0]
    if mode is RingMode.OMEGA1:
        return pair[1]
    return min(pair)


def mode_min_value(x: NovikovElement, mode: RingMode | None = None):
    """Minimum over the support of the mode's governing period value."""
    mode = mode or x.ring.mode
    if x.is_zero():
        return INF
    low = min(_mode_value(mode, x.ring.ipair(a)) for a in x.terms)
    return Fraction(low, x.ring.scale)


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
    ring = x.ring

    def keyfn(a):
        p = ring.ipair(a)
        return (_mode_value(ring.mode, p), p, a)

    a0 = min(x.terms, key=keyfn)
    try:
        inv0 = ring.field.inv(x.terms[a0])
    except ZeroDivisionError:
        return None
    y = monomial(ring, tuple(-c for c in a0), inv0)
    one = unit(ring)
    last = None
    while True:
        r = one - x * y
        if r.is_zero():
            return y
        m = mode_min_value(r)
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
    ring = x.ring
    parts = []
    for a in sorted(x.terms, key=lambda a: (ring.ipair(a), a)):
        coeff = ring.field.render(x.terms[a])
        exp = ",".join(str(c) for c in a)
        parts.append(f"{coeff}*T^({exp})")
    return " + ".join(parts)
