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
from typing import Mapping, Sequence

from .complexes import Chain, FilteredComplex, chain_cleanup, chain_sub
from .periods import Exponent, exponent_sub
from .series import (
    LexOrder,
    NovikovElement,
    Rank2Value,
    RingMode,
    VALUE_INF,
    monomial,
)

DEFAULT_STALL_WINDOW = 8
DEFAULT_MAX_STEPS = 5000
# Cap on the sweeps of _SaturatedImage._saturate.
SATURATION_PASSES = 256


class FloerDivergenceError(RuntimeError):
    """Raised when a best approximation does not exist at cutoff scale."""

    def __init__(self, outcome: "ReductionOutcome"):
        self.outcome = outcome
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
    """Valuation geometry of chain terms, with optional action offsets.

    A term is a (component, exponent) pair; its value pair is the
    exponent's period pair minus the component's offset pair.  Offsets
    turn the plain valuation into the filtration-aware one used by the
    spectral minimization: minimizing the filtration level is maximizing
    the offset valuation of the residual.
    """

    def __init__(self, system, offsets: Mapping[str, tuple[Fraction, Fraction]] | None = None):
        self.system = system
        self.offsets = dict(offsets or {})

    def pair(self, comp: str, exponent: Exponent) -> tuple[Fraction, Fraction]:
        g0, g1 = self.system.pair(exponent)
        off = self.offsets.get(comp)
        if off is None:
            return (g0, g1)
        return (g0 - off[0], g1 - off[1])


def chain_level(chain: Chain, geom: TermGeometry, order):
    """Order-minimal value pair of a chain and the attaining terms.

    Returns ``(Rank2Value, [(component, exponent), ...])``; the value is
    fully infinite exactly for the zero chain.
    """
    best_key = None
    for comp in chain:
        coeff = chain[comp]
        for a in coeff.terms:
            k = order.key(geom.pair(comp, a))
            if best_key is None or k < best_key:
                best_key = k
    if best_key is None:
        return VALUE_INF, []
    level = []
    best_pair = None
    for comp in sorted(chain):
        coeff = chain[comp]
        for a in sorted(coeff.terms):
            p = geom.pair(comp, a)
            if order.key(p) == best_key:
                level.append((comp, a))
                if best_pair is None or p < best_pair:
                    best_pair = p
    return Rank2Value(*best_pair), level


def normalize_columns(columns: Sequence[Chain], order=None) -> tuple[list[dict[str, NovikovElement]], list[Exponent]]:
    """Shift each column by a monomial so its valuation is the zero pair."""
    order = order or LexOrder()
    out = []
    shifts = []
    for col in columns:
        col = chain_cleanup(col)
        if not col:
            out.append(col)
            shifts.append(None)
            continue
        geom = TermGeometry(next(iter(col.values())).system)
        value, level = chain_level(col, geom, order)
        comp, a = level[0]
        neg = tuple(-c for c in a)
        out.append(chain_cleanup({k: v.shift(neg) for k, v in col.items()}))
        shifts.append(a)
    return out, shifts


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
    """One canonical cancellation: returns (new_v, used) or None at a fixed point.

    ``level`` is the attaining-term list of ``chain_level(v)`` and
    ``leads[i]`` is ``chain_level(columns[i])``.  ``used`` lists (column
    index, shift exponent, coefficient) with the subtracted combination
    sum(c * T^D * column).
    """
    level_set = set(level)
    # Candidate shifted columns whose leading part can touch the level.
    cands: list[tuple[int, Exponent]] = []
    seen = set()
    for i, (_, lead) in enumerate(leads):
        for (cu, b) in lead:
            for (cv, a) in level:
                if cu != cv:
                    continue
                d = exponent_sub(a, b)
                if (i, d) not in seen:
                    seen.add((i, d))
                    cands.append((i, d))
    if not cands:
        return None
    cands.sort(key=lambda t: (t[0], t[1]))
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
    used = [(i, d, c) for (i, d), c in zip(cands, sol) if not field.is_zero(c)]
    if not used:
        return None
    new_v = dict(v)
    for i, d, c in used:
        scaled = {k: col.shift(d).scale(c) for k, col in columns[i].items()}
        new_v = chain_sub(new_v, scaled)
    return chain_cleanup(new_v), used


def _cancel(image: "_SaturatedImage", v: Chain, lead: tuple):
    """The cancellation loop: iterate ``_phi_step`` on ``v`` against the image.

    ``lead`` is ``chain_level(v)``.  Stops at a fixed point, when both
    valuation coordinates exit the cutoff window, or at a stall.  Returns
    ``(kind, v, lead, trace, combo, stall)``: the final vector and its
    ``chain_level``, the valuation trace, the cancelled combination
    sum(c * T^D * expression) in the original column names, and the
    ``(axis, stabilized)`` pair of a ``diverges-second`` stall.
    """
    order, cutoff, ambient = image.order, image.cutoff, image.ambient
    value, level = lead
    trace: list[Rank2Value] = []
    combo: dict[str, NovikovElement] = {}
    while True:
        trace.append(value)
        if value.is_infinite:
            break
        if value.v0 > cutoff and value.v1 > cutoff:
            return "diverges-both", v, (value, level), trace, combo, None
        stall = _detect_stall(trace, cutoff)
        if stall is not None:
            return "diverges-second", v, (value, level), trace, combo, stall
        if not image.cols:
            break
        step = _phi_step(v, level, image.cols, image.leads, ambient.field)
        if step is None:
            break
        new_v, used = step
        new_value, level = chain_level(new_v, image.geom, order)
        if not new_value.is_infinite and order.compare(new_value, value) <= 0:
            raise RuntimeError("cancellation failed to raise the valuation")
        for i, d, c in used:
            mono = monomial(ambient.system, ambient.field, ambient.mode, ambient.cutoff, d, c)
            for name, mult in image.exprs[i].items():
                contrib = mono * mult
                combo[name] = combo[name] + contrib if name in combo else contrib
        v, value = new_v, new_value
        if len(trace) > DEFAULT_MAX_STEPS:
            raise RuntimeError(f"no termination within {DEFAULT_MAX_STEPS} steps")
    return "fixed-point", v, (value, level), trace, combo, None


class _SaturatedImage:
    """The image of a column set, saturated once for one order and cutoff.

    ``cols``, ``exprs`` and ``leads`` are kept in step: ``exprs[i]``
    writes ``cols[i]`` in the original columns, and ``leads[i]`` is
    ``chain_level(cols[i])``, computed once and recomputed only when that
    column changes.  None of it depends on the vector being cancelled, so
    one instance serves any number of :meth:`cancel` runs.  The ambient
    ring (system, field, mode, truncation) is read from the first column;
    without columns, each vector's period system gives its valuations.
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
        self.ambient = self.geom = None
        self.cols, self.exprs, self.leads = [], [], []
        if not cols:
            return
        ambient = self.ambient = next(iter(cols[0].values()))
        geom = self.geom = TermGeometry(ambient.system, offsets)
        one = ambient.like({(0,) * ambient.system.rank: ambient.field.one})
        self.leads = [chain_level(c, geom, order) for c in cols]
        if offsets is None:
            for value, _ in self.leads:
                if value.as_tuple() != (Fraction(0), Fraction(0)):
                    raise NormalizationError(
                        f"column valuation {value} is not the zero pair; normalize first"
                    )
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
        approximation.  A column whose trace stalls keeps its last iterate.
        """
        cols, exprs, leads = self.cols, self.exprs, self.leads
        for _ in range(SATURATION_PASSES):
            for i in range(len(cols)):
                # Take column i out, so that the image is the other columns.
                col, expr, lead = cols.pop(i), exprs.pop(i), leads.pop(i)
                _, rest, rest_lead, trace, combo, _ = _cancel(self, col, lead)
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
        if geom is None and v:
            geom = TermGeometry(next(iter(v.values())).system, self.offsets)
        kind, rest, _, trace, combo, stall = _cancel(self, v, chain_level(v, geom, self.order))
        combo = chain_cleanup(combo)
        outcome = ReductionOutcome(kind, chain_sub(v, rest), rest, tuple(trace), combo)
        if stall is not None:
            outcome.axis, outcome.stabilized = stall
        return outcome


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


def _detect_stall(trace: list[Rank2Value], cutoff: Fraction):
    """One-sided divergence over the trailing ``DEFAULT_STALL_WINDOW`` values.

    Classifies a trace whose coordinates move at incompatible speeds: one
    coordinate leaves the cutoff window while the other fails to grow over
    the whole trailing window (constant, or even decreasing).  Balanced
    traces (both coordinates growing) are left to run into truncation.
    """
    window = DEFAULT_STALL_WINDOW
    if len(trace) < window:
        return None
    tail = trace[-window:]
    if any(t.is_infinite for t in tail):
        return None
    first, last = tail[0], tail[-1]
    if last.v1 > cutoff and last.v0 <= first.v0:
        return (1, last.v0)
    if last.v0 > cutoff and last.v1 <= first.v1:
        return (0, last.v1)
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
    norm_cols, _ = normalize_columns(cols)

    probes: list[dict[str, NovikovElement]] = []
    for col in norm_cols:
        probes.append(dict(col))
        for comp in sorted(col):
            coeff = col[comp]
            for a in sorted(coeff.terms):
                probes.append({comp: coeff.like({a: coeff.terms[a]})})
    rng = _random.Random(0)
    ambient = next(iter(norm_cols[0].values()))
    support = sorted({(comp, a) for col in norm_cols for comp in col
                      for a in col[comp].terms})
    for _ in range(4):
        picks = [term for term in support if rng.random() < 0.5] or [support[0]]
        # Each component's terms are collected first and its element built
        # once; adding monomials one by one would rebuild it per term.
        terms: dict[str, dict] = {}
        for comp, a in picks:
            terms.setdefault(comp, {})[a] = ambient.field.sample_nonzero(rng)
        probes.append(chain_cleanup({comp: ambient.like(t) for comp, t in terms.items()}))
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
    image = _SaturatedImage(norm_cols, LexOrder(), cutoff, None)
    for probe in probes:
        if not probe:
            continue
        outcome = image.cancel(probe)
        if outcome.kind == "diverges-second":
            return DivergenceCheck(False, DivergenceWitness(
                probe=probe, trace=outcome.trace, axis=outcome.axis,
                stabilized=outcome.stabilized))
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
    from .series import convert_mode, try_invert

    work: dict[str, dict[str, NovikovElement]] = {}
    for c, col in columns.items():
        clean = {}
        for r, e in col.items():
            e2 = convert_mode(e, mode)
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
        pivcol = work.pop(c0)
        for c in sorted(work):
            col = work[c]
            if r0 not in col:
                continue
            factor = col[r0] * inv
            for r, e in pivcol.items():
                upd = col.get(r)
                upd = (upd - e * factor) if upd is not None else -(e * factor)
                if upd.is_zero():
                    col.pop(r, None)
                else:
                    col[r] = upd
            if not col:
                work.pop(c)
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
