"""Iterative cancellation, best approximation, and the divergence check.

This is the rank-2 half of the package: it works over the variant Novikov
ring that the source paper builds after Ono (GAFA 16, 2006), keeping both
period values of every exponent.  The spectral value ``rho``, ``scan`` and
``validate``'s divergence check run it; barcodes do not (see
:mod:`novikit.reduction`).

The central algorithm repeatedly cancels the order-minimal part of a
vector against shifted spans of a matrix's columns.  Every cancellation
strictly raises the rank-2 valuation; over a discrete value set the trace
either stabilizes (a fixed point, yielding a best approximation from the
image) or exits a cutoff window.  A trace whose two coordinates diverge
at different speeds is exactly the pathology the divergence check hunts
for: a legal family of boundary operators never produces one, while the
one-sided operator ``1 - T^B`` with period pair (0, 1) always does.

The cancellation rule is the canonical deterministic choice: at the
current valuation level, solve the finite linear system over the
coefficient field that cancels the whole leading part against the shifted
columns, pivoting by lowest column index.  Completeness of the candidate
shift set is guaranteed when the period map has trivial kernel on the
lattice; see the package docs for the degenerate-kernel caveat.  One
loop, :func:`_cancel`, runs every cancellation: the saturation of an
image (:class:`_SaturatedImage`) and each vector cancelled against it.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, lcm
from typing import Mapping, Sequence

from .complexes import Chain, FilteredComplex, apply_matrix, chain_add, chain_cleanup, chain_sub
from .periods import Exponent, exponent_sub
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
# Cap on the sweeps of _SaturatedImage._saturate.  Its termination argument
# waits on a complete candidate set in _phi_step (ROADMAP, Direction 14).
SATURATION_PASSES = 256


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
    ``residual`` is what remains.  ``trace`` lists the valuations of the
    successive iterates, strictly increasing in the active order.
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
    """Valuation geometry of chain terms, as ints, with optional action offsets.

    A term is a (component, exponent) pair; its value pair is the
    exponent's period pair minus the component's offset pair.  Offsets
    turn the plain valuation into the filtration-aware one used by the
    spectral minimization: minimizing the filtration level is maximizing
    the offset valuation of the residual.  Value pairs are ints over
    ``scale``, the lcm of the ring's scale and the offset denominators.
    """

    def __init__(self, ring: NovikovRing, offsets: Mapping[str, tuple] | None = None):
        offsets = dict(offsets or {})
        scale = lcm(ring.scale, *(Fraction(x).denominator for off in offsets.values() for x in off))
        self.ring, self.scale = ring, scale
        self._lift = scale // ring.scale
        self.offsets = {comp: (int(o0 * scale), int(o1 * scale))
                        for comp, (o0, o1) in offsets.items()}

    def pair(self, comp: str, exponent: Exponent) -> tuple[int, int]:
        g0, g1 = self.ring.ipair(exponent)
        k = self._lift
        off = self.offsets.get(comp)
        if off is None:
            return (g0 * k, g1 * k)
        return (g0 * k - off[0], g1 * k - off[1])


def chain_level(chain: Chain, geom: TermGeometry, order):
    """Order-minimal value pair of a chain and the attaining terms.

    Returns ``(pair, [(component, exponent), ...])`` from one pass: the
    geometry's int pair (the least the order ties), ``None`` exactly for
    the zero chain, and the attaining terms, sorted.
    """
    pair, key = geom.pair, order.key
    best_key = best = None
    level = []
    for comp, x in chain.items():
        for a in x.terms:
            p = pair(comp, a)
            k = key(p)
            if best_key is None or k < best_key:
                best_key, best, level = k, p, [(comp, a)]
            elif k == best_key:
                level.append((comp, a))
                if p < best:
                    best = p
    level.sort()
    return best, level


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
            geom = TermGeometry(next(iter(col.values())).ring)
            _, level = chain_level(col, geom, LexOrder())
            neg = tuple(-c for c in level[0][1])
            col = chain_cleanup({k: v.shift(neg) for k, v in col.items()})
        out.append(col)
    return out


def _solve_linear(field, rows: list[list], rhs: list):
    """Solve A x = b over the field, free variables set to zero.

    Pivots are chosen by lowest variable index.  Returns None when
    inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivot_of_var: dict[int, int] = {}
    row_used = [False] * m
    for var in range(n):
        pin = None
        for i in range(m):
            if not row_used[i] and not field.is_zero(aug[i][var]):
                pin = i
                break
        if pin is None:
            continue
        inv = field.inv(aug[pin][var])
        aug[pin] = [field.mul(x, inv) for x in aug[pin]]
        for i in range(m):
            if i != pin and not field.is_zero(aug[i][var]):
                f = aug[i][var]
                aug[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(aug[i], aug[pin])]
        row_used[pin] = True
        pivot_of_var[var] = pin
    for i in range(m):
        if not row_used[i] and not field.is_zero(aug[i][n]):
            return None
    x = [field.zero] * n
    for var, i in pivot_of_var.items():
        x[var] = aug[i][n]
    return x


def _phi_step(v: Chain, level: list, columns: Sequence[Chain],
              leads: Sequence[tuple], field):
    """One canonical cancellation: returns (new_v, step) or None at a fixed point.

    ``level`` is the attaining-term list of ``chain_level(v)`` and
    ``leads[i]`` is ``chain_level(columns[i])``.  ``step`` maps a column
    index i to the raw coefficient ``{D: c}`` of sum(c * T^D), and
    ``new_v`` is v minus the sum over i of ``step[i] * columns[i]``.
    """
    level_set = set(level)
    # Candidate shifted columns whose leading part can touch the level.
    cands = sorted({(i, exponent_sub(a, b)) for i, (_, lead) in enumerate(leads)
                    for (cu, b) in lead for (cv, a) in level if cu == cv})
    if not cands:
        return None
    # Equation index: every level point touched by v or a shifted lead.
    points = set(level)
    contrib: dict[tuple[int, Exponent], dict] = {}
    for (i, d) in cands:
        cd: dict = {}
        for (cu, b) in leads[i][1]:
            pt = (cu, tuple(x + y for x, y in zip(b, d)))
            cd[pt] = columns[i][cu].terms[b]
            points.add(pt)
        contrib[(i, d)] = cd
    points = sorted(points)
    rows = []
    rhs = []
    for pt in points:
        rows.append([contrib[c].get(pt, field.zero) for c in cands])
        comp, a = pt
        if pt in level_set:
            rhs.append(v[comp].terms[a])
        else:
            rhs.append(field.zero)
    sol = _solve_linear(field, rows, rhs)
    if sol is None:
        return None
    step: dict[int, dict] = {}
    for (i, d), c in zip(cands, sol):
        if not field.is_zero(c):
            step.setdefault(i, {})[d] = c
    if not step:
        return None
    return chain_sub(v, apply_matrix({i: columns[i] for i in step}, step.items())), step


def _cancel(image: "_SaturatedImage", geom: TermGeometry, v: Chain, lead: tuple):
    """The cancellation loop: iterate ``_phi_step`` on ``v`` against the image.

    ``lead`` is ``chain_level(v)`` in ``geom``.  Stops at a fixed point,
    when both coordinates exceed the cutoff, or at a stall.  Returns
    ``(kind, v, lead, trace, combo, stall)``: the final vector and its
    ``chain_level``, the trace of int pairs (``None`` for zero), the
    cancelled combination (the steps applied to the columns' expressions)
    and the ``(axis, int)`` of a ``diverges-second`` stall.  Only ints are
    compared: an int exceeds cutoff * L exactly when it exceeds
    floor(cutoff * L), L the geometry's scale.

    Termination needs no cap.  Keys are ``(W, g1)``, W = w0*g0 + w1*g1
    with ints w0, w1 >= 0 not both zero, and every step strictly raises
    the key.  If W stays bounded, it is eventually constant: then g1 rises
    at every step and g0 never does, so g1 passes the cutoff and the next
    full window stalls on axis 1.  If W is unbounded, from some step on
    exactly one coordinate is above the cutoff (both end the loop with
    ``diverges-both``), and the stall rule of :func:`_detect_stall` forces
    the other to rise strictly across every window while it stays at or
    below the cutoff, which an int does only finitely often.  A rule that
    replaces that stall rule must restate this argument.
    """
    key = image.order.key
    top = floor(image.cutoff * geom.scale)
    pair, level = lead
    trace: list = []
    combo: dict[str, NovikovElement] = {}
    while True:
        trace.append(pair)
        if pair is None:
            break
        if pair[0] > top and pair[1] > top:
            return "diverges-both", v, (pair, level), trace, combo, None
        stall = _detect_stall(trace, top)
        if stall is not None:
            return "diverges-second", v, (pair, level), trace, combo, stall
        found = _phi_step(v, level, image.cols, image.leads, geom.ring.field)
        if found is None:
            break
        new_v, step = found
        new_pair, level = chain_level(new_v, geom, image.order)
        if new_pair is not None and key(new_pair) <= key(pair):
            raise RuntimeError("cancellation failed to raise the valuation")
        combo = chain_add(combo, apply_matrix({i: image.exprs[i] for i in step}, step.items()))
        v, pair = new_v, new_pair
    return "fixed-point", v, (pair, level), trace, combo, None


def _outcome(geom: TermGeometry, v: Chain, run: tuple) -> ReductionOutcome:
    """The ``ReductionOutcome`` of a ``_cancel`` run on ``v``, in values."""
    kind, rest, _, trace, combo, stall = run
    scale = geom.scale
    outcome = ReductionOutcome(kind, chain_sub(v, rest), rest,
                               tuple(_value(p, scale) for p in trace), chain_cleanup(combo))
    if stall is not None:
        outcome.axis, outcome.stabilized = stall[0], Fraction(stall[1], scale)
    return outcome


class _SaturatedImage:
    """The image of a column set, saturated once for one order and cutoff.

    ``cols``, ``exprs`` and ``leads`` are kept in step: ``exprs[i]``
    writes ``cols[i]`` in the original columns, and ``leads[i]`` is
    ``chain_level(cols[i])``, computed once and recomputed only when that
    column changes.  None of it depends on the vector being cancelled, so
    one instance serves any number of :meth:`cancel` runs.  The ring is
    read from the first column; without columns, each vector's ring gives
    its valuations.
    Columns must be normalized (valuation the zero pair) unless
    ``offsets`` are given.
    """

    def __init__(self, columns, order, cutoff, offsets):
        names, cols = _as_columns(columns)
        cols = [chain_cleanup(c) for c in cols]
        keep = [i for i, c in enumerate(cols) if c]
        names = [names[i] for i in keep]
        cols = [cols[i] for i in keep]
        if cutoff is None:
            raise ValueError("cutoff must be provided")
        cutoff = Fraction(cutoff)
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.order = order
        self.cutoff = cutoff
        self.offsets = offsets
        self.geom = None
        self.cols, self.exprs, self.leads = [], [], []
        if not cols:
            return
        ring = next(iter(cols[0].values())).ring
        geom = self.geom = TermGeometry(ring, offsets)
        one = unit(ring)
        self.leads = [chain_level(c, geom, order) for c in cols]
        if offsets is None:
            for pair, _ in self.leads:
                if pair != (0, 0):
                    raise NormalizationError(f"column valuation {_value(pair, geom.scale)} "
                                             "is not the zero pair; normalize first")
        self.cols = cols
        self.exprs = [{n: one} for n in names]
        self._saturate()

    def _saturate(self) -> None:
        """Echelonize the columns so their leading parts span every level.

        Sweeps the columns in order and cancels each against the others
        with :func:`_cancel`; the first column that changes becomes the
        higher-valuation residual (or is dropped when it reduces to zero),
        and the sweep restarts.  This is the non-Archimedean analogue of
        making the leading coefficient vectors independent, and is what
        makes the fixed point of the iteration a genuine best
        approximation.  A column whose trace stalls raises
        :class:`FloerDivergenceError`; one past the cutoff in both
        coordinates keeps its last iterate.
        """
        cols, exprs, leads, geom = self.cols, self.exprs, self.leads, self.geom
        for _ in range(SATURATION_PASSES):
            for i in range(len(cols)):
                # Take column i out, so that the image is the other columns.
                col, expr, lead = cols.pop(i), exprs.pop(i), leads.pop(i)
                run = _cancel(self, geom, col, lead)
                kind, rest, rest_lead, trace, combo, _ = run
                if kind == "diverges-second":
                    raise FloerDivergenceError(_outcome(geom, col, run), col)
                if len(trace) == 1:
                    cols.insert(i, col)
                    exprs.insert(i, expr)
                    leads.insert(i, lead)
                    continue
                if rest:
                    cols.insert(i, rest)
                    exprs.insert(i, chain_sub(expr, combo))
                    leads.insert(i, rest_lead)
                break
            else:
                return
        raise RuntimeError("column saturation failed to stabilize")

    def cancel(self, v: Chain) -> ReductionOutcome:
        """Iterate the cancellation map on ``v`` against the saturated image."""
        v = chain_cleanup(v)
        geom = self.geom
        if geom is None and not v:  # no ring to read, and nothing to cancel
            return ReductionOutcome("fixed-point", {}, {}, (VALUE_INF,), {})
        if geom is None:
            geom = TermGeometry(next(iter(v.values())).ring, self.offsets)
        return _outcome(geom, v, _cancel(self, geom, v, chain_level(v, geom, self.order)))


def fixed_point(columns, v: Chain, order=None, cutoff=None, *,
                offsets: Mapping[str, tuple] | None = None) -> ReductionOutcome:
    """Iterate the canonical cancellation map until it fixes the vector.

    ``columns`` spans the image being cancelled against; ``cutoff`` bounds
    the valuation window used for divergence classification.  Without
    ``offsets`` the columns must be normalized (:class:`NormalizationError`
    otherwise); with them the valuation of each term is shifted per
    component, which turns the iteration into a filtration-level
    minimizer.  Each call saturates the image afresh;
    :func:`floer_divergence_check` saturates once and cancels every probe
    against that one image.
    """
    return _SaturatedImage(columns, order or LexOrder(), cutoff, offsets).cancel(v)


def _detect_stall(trace: list, top: int):
    """One-sided divergence over the trailing ``DEFAULT_STALL_WINDOW`` pairs.

    Classifies a trace whose coordinates move at incompatible speeds: one
    coordinate exceeds the int cutoff ``top`` while the other fails to
    grow over the whole trailing window (constant, or even decreasing).
    Balanced traces (both coordinates growing) are left to run into
    truncation.
    """
    window = DEFAULT_STALL_WINDOW
    if len(trace) < window:
        return None
    (f0, f1), (l0, l1) = trace[-window], trace[-1]
    if l1 > top and l0 <= f0:
        return (1, l0)
    if l0 > top and l1 <= f1:
        return (0, l1)
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

    _, raw = _as_columns(columns)
    cols = [chain_cleanup(c) for c in raw]
    cols = [c for c in cols if c]
    if not cols:
        return [], []
    norm_cols = normalize_columns(cols)

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
    trace whose valuation stalls
    in one coordinate while the other exits the cutoff window is returned
    as a witness; operators arising as boundary operators of legal
    filtered complexes must pass.  The normalized columns are saturated
    once per check, and every probe is cancelled against that one image.
    """
    norm_cols, probes = _divergence_probes(columns)
    if not norm_cols:
        return DivergenceCheck(True)
    try:  # a column that stalls while the image saturates is a witness too
        image = _SaturatedImage(norm_cols, LexOrder(), cutoff, None)
        for probe in filter(None, probes):
            outcome = image.cancel(probe)
            if outcome.kind == "diverges-second":
                raise FloerDivergenceError(outcome, probe)
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
