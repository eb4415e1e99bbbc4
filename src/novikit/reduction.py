"""Persistence reduction of one slice of a filtered complex family.

The barcode at parameter t, and everything read off it (boundary depth,
bottleneck distances), lives over the Novikov field of the value group at
t: each exponent collapses to the single value (1-t)*omega0 + t*omega1
(Usher-Zhang, "Persistent homology and Floer-Novikov theory", Geom.
Topol. 20, 2016).  The rank-2 cancellation behind ``rho``, ``scan`` and
the divergence check is :mod:`novikit.cancellation`; a command loads only
the one it runs.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import FilteredComplex, _int_actions, validate
from .fields import render_fraction
from .series import INF

# ``bench/tracer.py`` reads these three functions from this module by name.
# The alias resolves them from ``cancellation`` on first access, so that a
# job that only takes barcodes never compiles the cancellation half.  It is
# deleted when the spans move into the package (ROADMAP, Direction 5).
_CANCELLATION_ALIASES = ("best_approximation", "fixed_point", "floer_divergence_check")


def __getattr__(name: str):
    if name in _CANCELLATION_ALIASES:
        from . import cancellation

        return getattr(cancellation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Bar:
    """A bar [birth, death) in one degree; ``death`` is a Fraction, or the
    ``INF`` singleton for an unbounded bar, so that ``is_finite`` is an
    identity test."""

    __slots__ = ("birth", "death", "degree")

    def __init__(self, birth, death, degree: int):
        birth = Fraction(birth)
        if death == INF:
            death = INF
        else:
            death = Fraction(death)
            if not birth < death:
                raise ValueError("finite bars need birth < death")
        object.__setattr__(self, "birth", birth)
        object.__setattr__(self, "death", death)
        object.__setattr__(self, "degree", degree)

    def __setattr__(self, *args):
        raise AttributeError("Bar is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not Bar:
            return NotImplemented
        return (self.birth, self.death, self.degree) == \
            (other.birth, other.death, other.degree)

    @property
    def is_finite(self) -> bool:
        return self.death is not INF

    @property
    def length(self):
        return self.death - self.birth if self.is_finite else INF


class Barcode:
    """Bars sorted by degree, birth and death, unbounded bars last."""

    __slots__ = ("bars",)

    def __init__(self, bars):
        object.__setattr__(self, "bars", tuple(sorted(
            bars, key=lambda b: (b.degree, b.birth,
                                 (1, 0) if not b.is_finite else (0, b.death)))))

    def __setattr__(self, *args):
        raise AttributeError("Barcode is immutable")

    def finite(self) -> tuple[Bar, ...]:
        return tuple(b for b in self.bars if b.is_finite)

    def infinite(self) -> tuple[Bar, ...]:
        return tuple(b for b in self.bars if not b.is_finite)

    def in_degree(self, degree: int) -> tuple[Bar, ...]:
        return tuple(b for b in self.bars if b.degree == degree)

    def longest_finite_length(self) -> Fraction:
        finite = self.finite()
        if not finite:
            return Fraction(0)
        return max(b.length for b in finite)

    def to_csv(self) -> str:
        rows = ["degree,birth,death"]
        for b in self.bars:
            death = "inf" if not b.is_finite else render_fraction(b.death)
            rows.append(f"{b.degree},{render_fraction(b.birth)},{death}")
        return "\n".join(rows) + "\n"


def _barcode(keys: list, scale: int) -> Barcode:
    """The trusted constructor: ``keys`` are sorted int ``(degree, birth,
    unbounded, death)`` over ``scale``, birth < death on finite bars."""
    bars = []
    for degree, birth, unbounded, death in keys:
        bars.append(object.__new__(Bar))
        for name, value in (("birth", Fraction(birth, scale)), ("degree", degree),
                            ("death", INF if unbounded else Fraction(death, scale))):
            object.__setattr__(bars[-1], name, value)
    code = object.__new__(Barcode)
    object.__setattr__(code, "bars", tuple(bars))
    return code


def _scaled_slice(cx: FilteredComplex, t: Fraction):
    """Slice t scaled to ints: ``(scale, cutoff, levels, columns)``.

    With t = p/q and ``(m, actions) = complexes._int_actions(cx)``,
    ``scale`` is q*m, so the cutoff, the generator levels
    ``levels[i]`` = eta_i(t) and the collapsed value V = (1-t)*g0 + t*g1
    of every boundary exponent are ints over it, read off the ring's
    ``ipair``.  A vector is a dict from ``(V - levels[row], row, V)`` to
    the coefficient of the term T^V at generator ``cx.generators[row]``,
    whose filtration level is ``levels[row] - V``; its ``min`` is the
    peak: highest level, then lowest row, then lowest value.  Terms above
    the cutoff are dropped.  ``columns[i]`` is the boundary of generator i
    as such a vector.
    """
    matrix = cx.boundary_matrix(t)
    ring, field = cx.ring, cx.ring.field
    p, q = t.numerator, t.denominator
    m, actions = _int_actions(cx)
    k = m // ring.scale
    w0, w1 = (q - p) * k, p * k
    cutoff = ring.icutoff * k * q
    levels = [a * q + b * p for a, b in (actions[g.name] for g in cx.generators)]
    index = {g.name: i for i, g in enumerate(cx.generators)}
    ipair = ring.ipair
    columns = []
    for g in cx.generators:
        vec: dict = {}
        for name, entry in matrix.get(g.name, {}).items():
            row = index[name]
            for a, c in entry.terms.items():
                g0, g1 = ipair(a)
                v = w0 * g0 + w1 * g1
                if v > cutoff:
                    continue
                key = (v - levels[row], row, v)
                c = field.add(vec.get(key, field.zero), c)
                if field.is_zero(c):
                    del vec[key]
                else:
                    vec[key] = c
        columns.append(vec)
    return q * m, cutoff, levels, columns


def _sub_shifted(target: dict, source: dict, factor, shift: int, field,
                 cutoff: int) -> None:
    """``target -= factor * T^shift * source`` in place, above the cutoff
    dropped; a shift adds to the first and last part of every key."""
    zero, sub, mul, is_zero = field.zero, field.sub, field.mul, field.is_zero
    for (rise, row, v), c in source.items():
        v += shift
        if v > cutoff:
            continue
        key = (rise + shift, row, v)
        x = sub(target.get(key, zero), mul(factor, c))
        if is_zero(x):
            del target[key]
        else:
            target[key] = x


def _settle(vec: dict, combo, level, name: int, pivots: dict, field,
            cutoff: int):
    """Reduce ``vec`` until its peak row holds no pivot, then register it.

    ``combo`` is the preimage of ``vec``, of level ``level``, or None for
    a vector reduced without one (a cycle); pivots map a row to
    ``(peak, vec, combo, level, name)``.  Returns None once a vector is
    registered, else the ``(combo, level, name)`` of the vector that
    reduced to zero: the original one or a pivot it displaced.
    """
    while vec:
        peak = min(vec)
        held = pivots.get(peak[1])
        if held is None:
            pivots[peak[1]] = (peak, vec, combo, level, name)
            return None
        ppeak, pvec, pcombo, plevel, pname = held
        shift = peak[2] - ppeak[2]
        if combo is not None and plevel - shift > level:
            # The shifted pivot's preimage would rise above ours: swap.
            pivots[peak[1]] = (peak, vec, combo, level, name)
            vec, combo, level, name = pvec, pcombo, plevel, pname
            continue
        factor = field.div(vec[peak], pvec[ppeak])
        _sub_shifted(vec, pvec, factor, shift, field, cutoff)
        if combo is not None:
            _sub_shifted(combo, pcombo, factor, shift, field, cutoff)
            if plevel - shift == level:  # a tie may cancel the top terms
                level = -min(combo)[0]
    return combo, level, name


def persistence_barcode(cx: FilteredComplex, t, *, prevalidated: bool = False) -> Barcode:
    """Barcode of the filtration-filtered slice at parameter t.

    The slice is scaled to ints once (:func:`_scaled_slice`).  Degree by
    degree, each generator's boundary v is reduced, in increasing level
    of the generator (generator order breaks ties), together with its
    preimage c (v = dc, starting as the generator itself).  A vector is
    cancelled at its peak by the pivot registered at the peak's row,
    shifted by s, the difference of the two peak values; the pivot's
    preimage then sits at level l(c_p) - s.

    Swap rule: when that level would exceed the preimage level of the
    vector being reduced, the vector takes the pivot's place, and the old
    pivot is reduced instead (against the new one, whose shifted preimage
    then lies below its own).  Invariant: no cancellation subtracts a
    shifted preimage that lies higher than the preimage it changes, so no
    preimage level ever rises, the pivots' vectors peak at distinct rows,
    and each row keeps the shortest bar l(c) - l(v) met there.  Bars are
    read off the final pivots as [l(v), l(c)), the bars of Usher-Zhang's
    singular value decomposition over the Novikov field ("Persistent
    homology and Floer-Novikov theory", Geom. Topol. 20, 2016); that the
    swap reaches their orthogonal bases is checked against the prescribed
    bars of ``models.elementary_bars``, not proved.

    Termination: a cancellation strictly raises the reduced vector's peak
    key, whose level part is an int bounded by the cutoff; a swap strictly
    shortens the bar held at its row, an int that stays positive because
    l(dc) < l(c) on a valid slice; and a row is filled from empty at most
    once.  So there are finitely many swaps and finitely many
    cancellations between two of them, with no iteration cap.

    Cycles (vectors reduced to zero, displaced pivots included) then go,
    highest level first, through the same routine against the next
    degree's pivots and the survivors so far; each survivor is an
    unbounded bar born at its peak generator's action, since such births
    are defined only up to the period value group.  The survivors' rows
    are the peak rows of the cycles Z outside those of the boundaries B,
    for any cycles that span Z with B, since vectors with distinct peak
    rows are independent and each vector of their span peaks at one of
    them.  Clearing (Chen-Kerber's twist) skips a cycle z named i, never a
    pivot, when i is the peak row of a pivot b_i of B.  Proof, over the
    untruncated slice: the cycles are a basis of Z (preimages change by
    invertible steps; pivot vectors are independent), and row i enters a
    preimage other than z only by subtracting z as a pivot, so z alone has
    a row-i coordinate, 1.  The b_i keep distinct peaks on the skipped
    rows S, so they span those coordinates, and y in Z minus a combination
    of them vanishes on S: its coefficients on skipped cycles are 0.  So B
    and the kept cycles span Z, and the survivors are unchanged.
    """
    t = Fraction(t)
    if not prevalidated:
        report = validate(cx, [t])
        if not report:
            raise ValueError(f"complex fails validation: {report.violations[:3]}")
    field = cx.ring.field
    gens = cx.generators
    scale, cutoff, levels, columns = _scaled_slice(cx, t)

    pivots: dict[int, dict] = {}
    cycles: dict[int, list] = {}
    for d in sorted({g.degree for g in gens}):
        pivots[d], cycles[d] = {}, []
        for i in sorted((i for i, g in enumerate(gens) if g.degree == d),
                        key=lambda i: (levels[i], i)):
            left = _settle(columns[i], {(-levels[i], i, 0): field.one}, levels[i],
                           i, pivots[d], field, cutoff)
            if left is not None:
                cycles[d].append((*left, left[2] == i))  # named i: never a pivot

    keys = []  # (degree, birth, unbounded, death), ints over scale
    for d in pivots:
        keys += [(d - 1, -peak[0], 0, level) for peak, _, _, level, _ in pivots[d].values()]
        cleared = pivots.get(d + 1, {})
        table = dict(cleared)
        for combo, _, name, fresh in sorted(cycles[d], key=lambda c: (-c[1], c[2])):
            if not (fresh and name in cleared):
                _settle(combo, None, None, name, table, field, cutoff)
        keys += [(d, levels[peak[1]], 1, 0)
                 for peak, _, combo, _, _ in table.values() if combo is None]
    keys.sort()
    return _barcode(keys, scale)
