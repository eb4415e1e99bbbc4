"""Iterative cancellation, best approximation, and the divergence check.

The rank-2 half of the package, over the variant Novikov ring that the
source paper builds after Ono (GAFA 16, 2006): ``rho``, ``scan`` and
``validate``'s divergence check run it, barcodes :mod:`novikit.reduction`.
One loop, :func:`_cancel`, reduces a vector against pivots keyed by peak
component, as the slice reduction keys its pivots by peak row.  A trace
whose valuation coordinates diverge at different speeds is what the
divergence check hunts for: legal boundary operators never produce one,
and the one-sided ``1 - T^B`` with period pair (0, 1) always does.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import floor, lcm
from operator import add, itemgetter, sub
from typing import Mapping, Sequence

from .complexes import Chain, FilteredComplex, apply_matrix, chain_cleanup, chain_sub
from .series import (
    LexOrder,
    NovikovElement,
    NovikovRing,
    Rank2Value,
    RingMode,
    VALUE_INF,
    try_invert,
    unit,
)

DEFAULT_STALL_WINDOW = 8


class FloerDivergenceError(RuntimeError):
    """Raised when a best approximation does not exist at cutoff scale;
    ``probe`` is the vector whose trace stalled, when known."""

    def __init__(self, outcome: "ReductionOutcome", probe=None):
        self.outcome, self.probe = outcome, probe
        super().__init__(
            f"valuation trace diverges ({outcome.kind}); no best approximation"
        )


class NormalizationError(ValueError):
    pass


class ReductionOutcome:
    """Result of the cancellation iteration.

    ``kind`` is one of ``fixed-point``, ``diverges-second`` (one valuation
    coordinate stalls while the other exits the cutoff window; the stalled
    value is recorded) and ``diverges-both``.  ``approximant`` is the part
    of the input vector that was cancelled, i.e. the image element found;
    ``residual`` is what remains.  ``trace`` lists the valuation pair of
    the peak each time it changes, strictly increasing in the active
    order's key and then the first coordinate (which the key ignores at
    t = 1 only).
    """

    __slots__ = ("kind", "approximant", "residual", "trace", "combo",
                 "stabilized", "axis")

    def __init__(self, kind: str, approximant: dict[str, NovikovElement],
                 residual: dict[str, NovikovElement], trace: tuple[Rank2Value, ...],
                 combo: dict[str, NovikovElement], stabilized: Fraction | None = None,
                 axis: int = 1):
        self.kind = kind
        self.approximant = approximant
        self.residual = residual
        self.trace = trace
        self.combo = combo
        self.stabilized = stabilized
        self.axis = axis

    @property
    def is_fixed_point(self) -> bool:
        return self.kind == "fixed-point"


class TermGeometry:
    """Int keys of chain terms in one order, with optional action offsets.

    A term (component, exponent) has as value pair its exponent's period
    pair minus its component's offset pair (minimizing the filtration
    level is maximizing this valuation), in ints over ``scale``.  Its point
    is ``(*order.key(pair), *pair, component)``; points, then exponents,
    order terms totally, and T^D keeps that order: keys are linear.  A
    vector maps each point to the polynomial ``{exponent: coefficient}``
    there; its ``min`` is its peak.
    """

    def __init__(self, ring: NovikovRing, order, offsets: Mapping[str, tuple] | None = None):
        offsets = dict(offsets or {})
        scale = lcm(ring.scale, *(Fraction(x).denominator for off in offsets.values() for x in off))
        self.ring, self.order, self.scale = ring, order, scale
        self._lift = scale // ring.scale
        self._ints: dict = {}  # exponent -> the four ints of its point, no offset
        self._offsets = {}
        for comp, (o0, o1) in offsets.items():
            pair = (int(o0 * scale), int(o1 * scale))
            self._offsets[comp] = (*order.key(pair), *pair)
        self.window = tuple(b * self._lift for b in ring.bounds)  # the ring's, lifted

    def points(self, chain: Chain):
        """Each term of the chain as ``(point, exponent, coefficient)``."""
        ints, key, ipair, k = self._ints, self.order.key, self.ring.ipair, self._lift
        for comp, x in chain.items():
            o0, o1, o2, o3 = self._offsets.get(comp, (0, 0, 0, 0))
            for a, c in x.terms.items():
                p = ints.get(a)
                if p is None:
                    pair = tuple(g * k for g in ipair(a))
                    p = ints[a] = (*key(pair), *pair)
                yield (p[0] - o0, p[1] - o1, p[2] - o2, p[3] - o3, comp), a, c

    def vector(self, chain: Chain) -> dict:
        vec: dict = {}
        for point, a, c in self.points(chain):
            vec.setdefault(point, {})[a] = c
        return vec

    def terms(self, chain: Chain) -> tuple:
        """The terms as :func:`_sub_shifted` bisects them: a point's four ints
        and component, an exponent, its coefficient and its lifted pair,
        sorted by each pair coordinate, each order beside its coordinates."""
        ints = self._ints
        terms = [(*point, b, y, *ints[b][2:]) for point, b, y in self.points(chain)]
        by0, by1 = sorted(terms, key=itemgetter(7)), sorted(terms, key=itemgetter(8))
        return by0, [t[7] for t in by0], by1, [t[8] for t in by1]

    def chain(self, vec: dict) -> dict[str, NovikovElement]:
        terms: dict = {}
        for point, poly in vec.items():
            terms.setdefault(point[4], {}).update(poly)
        return {comp: self.ring.element(t) for comp, t in terms.items()}


def _value(pair, scale: int) -> Rank2Value:
    """The ``Rank2Value`` of an int pair over ``scale``; ``None`` is infinite."""
    return VALUE_INF if pair is None else Rank2Value(Fraction(pair[0], scale),
                                                     Fraction(pair[1], scale))


def normalize_columns(columns: Sequence[Chain]) -> list[dict[str, NovikovElement]]:
    """Shift each column by a monomial so its lex valuation is the zero pair."""
    out = []
    for col in columns:
        col = chain_cleanup(col)
        if col:
            geom = TermGeometry(next(iter(col.values())).ring, LexOrder())
            neg = tuple(-c for c in min(geom.points(col))[1])
            col = chain_cleanup({k: v.shift(neg) for k, v in col.items()})
        out.append(col)
    return out


def _divide(f: dict, g: dict, field):
    """The Laurent polynomial ``{exponent: coefficient}`` f / g, or None.
    Long division by least terms: if q*g = f, each coordinate of q's
    exponents lies between f's least (greatest) minus g's, the ring being a
    domain, and quotient terms come out increasing, so finitely many fit."""
    if len(g) == 1:
        ((b, c),) = g.items()
        return {tuple(map(sub, a, b)): field.div(x, c) for a, x in f.items()}
    lo = tuple(map(sub, map(min, zip(*f)), map(min, zip(*g))))
    hi = tuple(map(sub, map(max, zip(*f)), map(max, zip(*g))))
    lead = min(g)
    rem, q = dict(f), {}
    while rem:
        a = min(rem)
        d = tuple(map(sub, a, lead))
        if not all(l <= x <= h for l, x, h in zip(lo, d, hi)):
            return None
        c = q[d] = field.div(rem[a], g[lead])
        for b, y in g.items():
            e = tuple(map(add, b, d))
            x = field.sub(rem.get(e, field.zero), field.mul(c, y))
            if field.is_zero(x):
                del rem[e]
            else:
                rem[e] = x
    return q


def _sub_shifted(vec: dict, pivot: tuple, q: dict, shift: tuple, field, window) -> None:
    """``vec -= q * pivot`` in place, the pivot given as its
    :meth:`TermGeometry.terms` and ``shift`` the four ints by which q's
    exponents all move its points.  Only the terms that ``window``, the
    ring's lifted bounds, keeps after the shift are read."""
    s0, s1, s2, s3 = shift
    by0, keys0, by1, keys1 = pivot
    b0, b1 = window[0] - s2, window[1] - s3
    kept = by0[:bisect_right(keys0, b0)]
    kept += [t for t in by1[:bisect_right(keys1, b1)] if t[7] > b0]
    zero, fsub, mul, is_zero = field.zero, field.sub, field.mul, field.is_zero
    for d, c in q.items():
        for k0, k1, g0, g1, comp, b, y, _, _ in kept:
            e = tuple(map(add, b, d))
            point = (k0 + s0, k1 + s1, g0 + s2, g1 + s3, comp)
            poly = vec.get(point)
            if poly is None:
                vec[point] = {e: fsub(zero, mul(c, y))}
                continue
            x = fsub(poly.get(e, zero), mul(c, y))
            if not is_zero(x):
                poly[e] = x
            elif len(poly) > 1:
                del poly[e]
            else:
                del vec[point]


def _cancel(image: "_SaturatedImage", geom: TermGeometry, vec: dict):
    """The cancellation loop: reduce ``vec``, a :meth:`TermGeometry.vector`
    changed in place, against the image's pivots.

    Returns ``(kind, vec, trace, steps, stall)``: ``trace`` holds int pairs
    (``None`` for zero), ``steps`` maps a pivot's component to the
    ``{exponent: coefficient}`` multiple of it subtracted, and ``stall`` is
    the ``(axis, int)`` of a ``diverges-second``.  A step divides the
    polynomial at the peak point by that of the pivot of its component at
    the pivot's peak, which moves one point onto the other, and subtracts
    the quotient times the pivot: the point is cleared and only greater
    ones change.  The loop stops at a fixed point when the peak's
    component holds no pivot or the division fails.  Each new peak pair is
    recorded, then tested: past the int cutoff ``top`` in both coordinates
    is ``diverges-both``, and a stall (:func:`_detect_stall`) ends it too.

    Best approximation.  In a sum of shifted pivots, which peak at distinct
    components, the least shifted peak term is below all other terms, so
    every nonzero image element peaks at a held component.  If ``vec``
    peaks at a free one, ``vec - u`` peaks no higher than ``vec`` for any
    image element u.  This is the orthogonality of Usher-Zhang (Geom.
    Topol. 20, 2016) and the column algorithm of Zomorodian-Carlsson (DCG
    33, 2005) over rank-2 keys.  With a period map that has a kernel, a
    point holds a coset of it and its division is exact or fails, in
    finitely many steps (:func:`_divide`).  A failure can leave a boundary,
    x = d(y2)/2 - (T^K - 1) d(y1)/2 with K in the kernel, uncancelled: a
    known wrong answer (ideal membership over Laurent polynomials).

    Termination, with no cap.  Points strictly increase and a pair holds
    one per component, so recorded pairs strictly increase in
    ``(*key, g0)``.  Keys are ``(W, g1)``, W = w0*g0 + w1*g1 with ints
    w0, w1 >= 0 not both zero; W, the pair's level, never decreases, and a
    pair past ``top`` on one axis is within it on the other, or the run
    has stopped.  In an endless run whose level is eventually constant,
    g1 rises at every pair and g0 never does when w0 > 0, so eight pairs
    past the cutoff on axis 1 stall; at t = 1 (w0 = 0, g1 = W) g0 rises
    and stalls axis 0.  With unbounded levels, once W > (w0 + w1) * top
    every pair is past the cutoff on one axis, so endlessly many levels
    hold such a pair on one axis; the other coordinate of each level's
    first one is at most the cutoff and, without a stall, exceeds its
    value eight levels earlier, which ints bounded above do finitely often.
    """
    pivots, top = image.pivots, floor(image.cutoff * geom.scale)
    trace: list = []
    levels: list = []
    steps: dict = {}
    while vec:
        point = min(vec)
        pair = point[2:4]
        if not trace or pair != trace[-1]:
            trace.append(pair)
            levels.append(point[0])
            if pair[0] > top and pair[1] > top:
                return "diverges-both", vec, trace, steps, None
            stall = _detect_stall(trace, levels, top)
            if stall is not None:
                return "diverges-second", vec, trace, steps, stall
        held = pivots.get(point[4])
        q = held and _divide(vec[point], held[1], geom.ring.field)
        if not q:
            break
        if held[4] is None:
            held[4] = geom.terms(held[2])
        _sub_shifted(vec, held[4], q, tuple(map(sub, point[:4], held[0][:4])),
                     geom.ring.field, geom.window)
        # Points increase, so a run's quotients of one pivot share no exponent.
        steps.setdefault(point[4], {}).update(q)
    else:
        trace.append(None)
    return "fixed-point", vec, trace, steps, None


class _SaturatedImage:
    """The image of a column set, saturated once for one order and cutoff.

    ``pivots`` maps a component to ``[point, polynomial, chain, expression,
    terms]`` for the image vector that peaks there: its peak point and
    polynomial, the vector, its expression in the original columns, and
    its :meth:`TermGeometry.terms`, listed on first use.  The ring is read
    from the first column; without columns, each vector's gives its
    valuations.  Columns must be normalized unless ``offsets`` are given.

    Saturation inserts each column once, shortest first, by one
    :func:`_cancel` run; a stall raises :class:`FloerDivergenceError`.  A
    remainder that peaks at a free component becomes its pivot.  At a held
    one it replaces a pivot whose point polynomial it properly divides,
    which is inserted again (each swap takes an irreducible factor off that
    component), and is dropped otherwise: with a kernel the image can be
    smaller than the span of the columns.  A remainder whose run left the
    window in both coordinates at a held component is dropped too, as the
    run stops there without dividing; the ring keeps no such term without
    offsets, at its own cutoff, and no benchmark run reached it with them.
    """

    def __init__(self, columns, order, cutoff, offsets):
        cols = [(n, col) for n, c in zip(*_as_columns(columns)) if (col := chain_cleanup(c))]
        if cutoff is None:
            raise ValueError("cutoff must be provided")
        cutoff = Fraction(cutoff)
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.order, self.cutoff, self.offsets = order, cutoff, offsets
        self.geom, self.pivots = None, {}
        if not cols:
            return
        ring = next(iter(cols[0][1].values())).ring
        geom = self.geom = TermGeometry(ring, order, offsets)
        peaks = [min(geom.points(c))[0] for _, c in cols]
        for peak in peaks if offsets is None else ():
            if peak[2:4] != (0, 0):
                raise NormalizationError(f"column valuation {_value(peak[2:4], geom.scale)} "
                                         "is not the zero pair; normalize first")
        one, sizes = unit(ring), [sum(len(x.terms) for x in c.values()) for _, c in cols]
        for i in sorted(range(len(cols)), key=lambda i: (sizes[i], i)):
            self._insert(cols[i][1], peaks[i], {cols[i][0]: one})

    def _insert(self, col: Chain, peak: tuple, expr: Chain) -> None:
        geom, pivots, comp = self.geom, self.pivots, peak[4]
        if comp not in pivots:  # registered as it is, with no vector built
            poly = {a: c for p, a, c in geom.points({comp: col[comp]}) if p == peak}
            pivots[comp] = [peak, poly, col, expr, None]
            return
        vec = geom.vector(col)
        while True:
            run = _cancel(self, geom, vec)
            kind, vec, _, steps, _ = run
            if kind == "diverges-second":
                raise FloerDivergenceError(self._outcome(geom, col, run), col)
            if not vec:
                return
            point = min(vec)
            held = pivots.get(point[4])
            if held is not None and (kind == "diverges-both" or
                                     _divide(held[1], vec[point], geom.ring.field) is None):
                return
            expr = chain_sub(expr, self._combo(steps))
            pivots[point[4]] = [point, vec[point], geom.chain(vec), expr, None]
            if held is None:
                return
            _, _, col, expr, _ = held
            vec = geom.vector(col)

    def _combo(self, steps: dict) -> dict[str, NovikovElement]:
        """The expression of a run's steps in the original columns."""
        return apply_matrix({comp: self.pivots[comp][3] for comp in steps}, steps.items())

    def _outcome(self, geom: TermGeometry, v: Chain, run: tuple) -> ReductionOutcome:
        """The ``ReductionOutcome`` of a :func:`_cancel` run on ``v``, in values."""
        kind, vec, trace, steps, stall = run
        rest, scale = geom.chain(vec), geom.scale
        outcome = ReductionOutcome(kind, chain_sub(v, rest), rest,
                                   tuple(_value(p, scale) for p in trace), self._combo(steps))
        if stall is not None:
            outcome.axis, outcome.stabilized = stall[0], Fraction(stall[1], scale)
        return outcome

    def cancel(self, v: Chain) -> ReductionOutcome:
        """Cancel ``v`` against the saturated image."""
        v = chain_cleanup(v)
        geom = self.geom
        if geom is None and not v:  # no ring to read, and nothing to cancel
            return ReductionOutcome("fixed-point", {}, {}, (VALUE_INF,), {})
        if geom is None:
            geom = TermGeometry(next(iter(v.values())).ring, self.order, self.offsets)
        return self._outcome(geom, v, _cancel(self, geom, geom.vector(v)))


def fixed_point(columns, v: Chain, order=None, cutoff=None, *,
                offsets: Mapping[str, tuple] | None = None) -> ReductionOutcome:
    """Cancel ``v`` against the span of ``columns``, saturated afresh.

    ``cutoff`` bounds the valuation window used for divergence
    classification.  Without ``offsets`` the columns must be normalized
    (:class:`NormalizationError` otherwise); with them the valuation of
    each term is shifted per component, which turns the iteration into a
    filtration-level minimizer.
    """
    return _SaturatedImage(columns, order or LexOrder(), cutoff, offsets).cancel(v)


def _detect_stall(trace: list, levels: list, top: int):
    """``(axis, int)`` when the last pair of ``trace`` is past the int
    cutoff ``top`` on ``axis`` and the other coordinate has not grown over
    ``DEFAULT_STALL_WINDOW`` pairs past it, else None.  The window is the
    pairs past it at the current level (``levels`` holds each pair's first
    key int), or the first such pair of each level: in the lexicographic
    order g1 restarts low at each g0 level, so a window reaching back
    across the exit or across levels reads a balanced climb as a stall.
    :func:`_cancel`'s termination argument rests on this rule.
    """
    window, last = DEFAULT_STALL_WINDOW, trace[-1]
    for axis in (1, 0):
        if last[axis] <= top:
            continue
        past = [(k, p[1 - axis]) for k, p in zip(levels, trace) if p[axis] > top]
        here = [g for k, g in past if k == levels[-1]]
        firsts = [g for i, (k, g) in enumerate(past) if not i or k != past[i - 1][0]]
        for run in (here, firsts):
            if len(run) >= window and last[1 - axis] <= run[-window]:
                return axis, last[1 - axis]
    return None


def _as_columns(columns) -> tuple[list[str], list[dict[str, NovikovElement]]]:
    if isinstance(columns, Mapping):
        keys = sorted(columns)
        return [str(k) for k in keys], [dict(columns[k]) for k in keys]
    cols = [dict(c) for c in columns]
    return [f"col{i}" for i in range(len(cols))], cols


def best_approximation(columns, w: Chain, order=None, cutoff=None, *,
                       offsets: Mapping[str, tuple] | None = None):
    """The image element closest to w in the chosen order.

    Returns ``(u, achieved)`` where u lies in the span of the columns and
    ``achieved`` is the valuation of w - u (the last value of the
    cancellation trace), maximal over the span at cutoff scale.  Either
    u = 0 or u's valuation equals w's.  Divergent traces raise
    :class:`FloerDivergenceError` carrying the witness.
    """
    outcome = fixed_point(columns, w, order, cutoff, offsets=offsets)
    if not outcome.is_fixed_point:
        raise FloerDivergenceError(outcome)
    return outcome.approximant, outcome.trace[-1]


class DivergenceWitness:
    """A probe whose cancellation trace violates balanced divergence."""

    __slots__ = ("probe", "trace", "axis", "stabilized")

    def __init__(self, probe: dict[str, NovikovElement],
                 trace: tuple[Rank2Value, ...], axis: int, stabilized: Fraction):
        self.probe = probe
        self.trace = trace
        self.axis = axis
        self.stabilized = stabilized

    def __eq__(self, other) -> bool:
        if other.__class__ is not DivergenceWitness:
            return NotImplemented
        return (self.probe, self.trace, self.axis, self.stabilized) == \
            (other.probe, other.trace, other.axis, other.stabilized)


class DivergenceCheck:
    __slots__ = ("passed", "witness")

    def __init__(self, passed: bool, witness: DivergenceWitness | None = None):
        self.passed = passed
        self.witness = witness

    def __bool__(self) -> bool:
        return self.passed


def _divergence_probes(columns):
    """The normalized columns and the probe vectors of a divergence check:
    each column, each of its single-term slices, and four random vectors
    drawn from ``random.Random(0)``."""
    import random as _random

    norm_cols = normalize_columns([c for c in map(chain_cleanup, _as_columns(columns)[1]) if c])
    if not norm_cols:
        return [], []
    probes: list[dict[str, NovikovElement]] = []
    for col in norm_cols:
        probes.append(dict(col))
        for comp in sorted(col):
            coeff = col[comp]
            for a in sorted(coeff.terms):
                probes.append({comp: coeff.ring.element({a: coeff.terms[a]})})
    rng = _random.Random(0)
    ring = next(iter(norm_cols[0].values())).ring
    support = sorted({(comp, a) for col in norm_cols for comp in col
                      for a in col[comp].terms})
    for _ in range(4):
        picks = [term for term in support if rng.random() < 0.5] or [support[0]]
        # Each component's terms are collected first and its element built
        # once; adding monomials one by one would rebuild it per term.
        terms: dict[str, dict] = {}
        for comp, a in picks:
            terms.setdefault(comp, {})[a] = ring.field.sample_nonzero(rng)
        probes.append({comp: ring.element(t) for comp, t in terms.items()})
    return norm_cols, probes


def floer_divergence_check(columns, cutoff) -> DivergenceCheck:
    """Probe the image of an operator for one-sided valuation divergence.

    Runs the cancellation iteration from every column, from every
    single-term slice of a column, and from a few seeded random vectors
    supported on the columns' components, in the lexicographic order.  A
    trace whose valuation stalls in one coordinate while the other exits
    the cutoff window is returned as a witness; operators arising as boundary operators of legal
    filtered complexes must pass.  The normalized columns are saturated
    once per check, and every probe is cancelled against that one image.
    """
    norm_cols, probes = _divergence_probes(columns)
    if not norm_cols:
        return DivergenceCheck(True)
    try:  # a column that stalls while the image saturates is a witness too
        image = _SaturatedImage(norm_cols, LexOrder(), cutoff, None)
        geom = image.geom
        for probe in filter(None, probes):
            run = _cancel(image, geom, geom.vector(probe))
            if run[0] == "diverges-second":  # only a witness needs its outcome
                raise FloerDivergenceError(image._outcome(geom, probe, run), probe)
    except FloerDivergenceError as err:
        out = err.outcome
        return DivergenceCheck(False, DivergenceWitness(err.probe, out.trace, out.axis,
                                                        out.stabilized))
    return DivergenceCheck(True)


# ---------------------------------------------------------------------------
# Cutoff-scale ranks across ring modes.
# ---------------------------------------------------------------------------


def matrix_rank_at_cutoff(columns: Mapping[str, Chain], mode: RingMode) -> tuple[int, bool]:
    """Rank by elimination with cutoff-invertible pivots, plus a stuck flag.

    Entries are reinterpreted in the requested mode first.  Elimination
    stops when no remaining entry has an inverse at cutoff scale; leftover
    nonzero entries then set the stuck flag (the operator's image is not
    spanned by unit pivots — the mode sees genuinely smaller rank).
    """
    work: dict[str, dict[str, NovikovElement]] = {}
    ring = None  # the mode's ring, built once from the first entry's
    for c, col in columns.items():
        clean = {}
        for r, e in col.items():
            if ring is None:
                ring = NovikovRing(e.ring.system, e.ring.field, mode, e.ring.cutoff)
            e2 = NovikovElement(ring, e.terms)
            if not e2.is_zero():
                clean[r] = e2
        if clean:
            work[c] = clean
    rank = 0
    while work:
        pivot = None
        for c in sorted(work):
            for r in sorted(work[c]):
                inv = try_invert(work[c][r])
                if inv is not None:
                    pivot = (r, c, inv)
                    break
            if pivot:
                break
        if pivot is None:
            break
        r0, c0, inv = pivot
        pivcol = {c0: work.pop(c0)}
        for c in sorted(work):
            col = work[c]
            if r0 in col:
                work[c] = chain_sub(col, apply_matrix(pivcol, {c0: col[r0] * inv}))
        for c in list(work):
            work[c].pop(r0, None)
            if not work[c]:
                work.pop(c)
        rank += 1
    stuck = bool(work)
    return rank, stuck


def homology_ranks_at_cutoff(cx: FilteredComplex, s, mode: RingMode) -> tuple[dict[int, int], bool]:
    """Per-degree homology ranks of a slice, seen through one ring mode.

    rank H_k = dim C_k - rank(d_k) - rank(d_{k+1}); the stuck flag marks
    degrees where elimination left non-unit residue, i.e. where the
    reported number is a cutoff-scale cokernel count rather than a clean
    free rank.
    """
    matrix = cx.boundary_matrix(s)
    degrees = sorted({g.degree for g in cx.generators})
    dims = {d: sum(1 for g in cx.generators if g.degree == d) for d in degrees}
    ranks = {}
    stuck_any = False
    for d in degrees:
        cols = {g.name: matrix.get(g.name, {}) for g in cx.generators
                if g.degree == d and matrix.get(g.name)}
        r, stuck = matrix_rank_at_cutoff(cols, mode) if cols else (0, False)
        ranks[d] = r
        stuck_any = stuck_any or stuck
    out = {}
    for d in degrees:
        out[d] = dims[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)
    return out, stuck_any
