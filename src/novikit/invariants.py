"""Spectral invariants, boundary depth, bottleneck distance, and the
semicontinuity scanner.

The spectral value of a cycle at parameter t is the minimal filtration
level over its coset modulo boundaries, minimized via the t-weighted best
approximation; since spectra are finite after truncation the infimum is
attained and a realizing chain is returned.  Upper semicontinuity of the
value at t = 0 is checked exactly on assembled piecewise-affine curves;
lower semicontinuity is only ever reported, never asserted.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from . import envelope as env
from .complexes import (
    Chain,
    FilteredComplex,
    NEG_INF,
    apply_matrix,
    chain_cleanup,
    chain_is_zero,
    chain_sub,
    ell,
    ell_curve,
)
from .fields import render_fraction
from .reduction import Bar, Barcode, persistence_barcode
from .series import INF, NovikovElement, TWeightedOrder


# Cap on the envelope refinement rounds of scan_semicontinuity.
REFINEMENT_ROUNDS = 64


class SpectralError(ValueError):
    pass


class SpectralResult:
    """A realized spectral value: the witness attains it exactly.

    ``boundary`` is the image element subtracted from the input cycle;
    witness = cycle - boundary.  ``degenerate`` marks the minus-infinity
    convention for cycles that bound at cutoff scale (or the zero cycle).
    """

    __slots__ = ("value", "witness", "boundary", "degenerate")

    def __init__(self, value, witness: dict[str, NovikovElement],
                 boundary: dict[str, NovikovElement], degenerate: bool = False):
        self.value = value
        self.witness = witness
        self.boundary = boundary
        self.degenerate = degenerate


def _degree_of_chain(cx: FilteredComplex, chain: Chain) -> int:
    degrees = {cx.generator(name).degree for name in chain}
    if len(degrees) != 1:
        raise SpectralError(f"chain mixes degrees {sorted(degrees)}")
    return degrees.pop()


def _action_offsets(cx: FilteredComplex) -> dict[str, tuple[Fraction, Fraction]]:
    return {g.name: g.action_endpoints for g in cx.generators}


def _boundary_columns_into_degree(cx: FilteredComplex, matrix, degree: int):
    """Columns of the boundary whose image lands in the given degree."""
    return {g.name: matrix[g.name] for g in cx.generators
            if g.degree == degree + 1 and g.name in matrix}


def _rho_against_matrix(cx: FilteredComplex, matrix, cycle: Chain, t: Fraction,
                        cutoff: Fraction) -> SpectralResult:
    from .cancellation import best_approximation

    cycle = chain_cleanup(cycle)
    if not cycle:
        return SpectralResult(NEG_INF, {}, {}, degenerate=True)
    closed = apply_matrix(cx, matrix, cycle)
    if closed:
        raise SpectralError("input chain is not a cycle at this parameter")
    degree = _degree_of_chain(cx, cycle)
    columns = _boundary_columns_into_degree(cx, matrix, degree)
    order = TWeightedOrder(t)
    offsets = _action_offsets(cx)
    u, achieved = best_approximation(columns, cycle, order, cutoff, offsets=offsets)
    witness = chain_sub(cycle, u)
    if chain_is_zero(witness):
        return SpectralResult(NEG_INF, {}, u, degenerate=True)
    value = -achieved.weight(t)
    assert ell(cx, witness, t) == value
    return SpectralResult(value, witness, u)


def rho(cx: FilteredComplex, cycle: Chain, t, cutoff=None) -> SpectralResult:
    """Minimal filtration level over the cycle's coset at parameter t.

    Minimization runs the t-weighted best approximation against the
    boundary columns one degree up; divergence (which brands the complex
    as failing the balanced-divergence requirement) propagates with its
    witness trace.
    """
    t = Fraction(t)
    cutoff = cx.cutoff if cutoff is None else Fraction(cutoff)
    matrix = cx.boundary_matrix(t)
    return _rho_against_matrix(cx, matrix, cycle, t, cutoff)


def _lattice_window(cx: FilteredComplex, cutoff: Fraction) -> list:
    """All lattice exponents with both period values in [0, cutoff]."""
    sys = cx.system
    k = sys.rank
    if k == 0:
        return [()]
    lo = [None] * k
    hi = [None] * k
    if k == 1:
        bounds = []
        for w in (sys.omega0[0], sys.omega1[0]):
            if w > 0:
                bounds.append((Fraction(0), cutoff / w))
            elif w < 0:
                bounds.append((cutoff / w, Fraction(0)))
        if not bounds:
            raise SpectralError("period forms vanish; window is unbounded")
        lo[0] = max(b[0] for b in bounds)
        hi[0] = min(b[1] for b in bounds)
    elif k == 2:
        a, b = sys.omega0
        c, d = sys.omega1
        det = a * d - b * c
        if det == 0:
            raise SpectralError("degenerate period matrix; window is unbounded")
        corners = []
        for v0 in (Fraction(0), cutoff):
            for v1 in (Fraction(0), cutoff):
                x = (d * v0 - b * v1) / det
                y = (-c * v0 + a * v1) / det
                corners.append((x, y))
        lo = [min(p[i] for p in corners) for i in range(2)]
        hi = [max(p[i] for p in corners) for i in range(2)]
    else:
        raise SpectralError("window enumeration supports lattice rank <= 2")
    import math

    ranges = [range(math.ceil(l), math.floor(h) + 1) for l, h in zip(lo, hi)]
    out = []

    def rec(prefix, idx):
        if idx == k:
            g0, g1 = sys.pair(tuple(prefix))
            if 0 <= g0 <= cutoff and 0 <= g1 <= cutoff:
                out.append(tuple(prefix))
            return
        for c in ranges[idx]:
            rec(prefix + [c], idx + 1)

    rec([], 0)
    return sorted(out)


def spectrum_against(cx: FilteredComplex, cutoff: Fraction, t: Fraction) -> list:
    window = _lattice_window(cx, cutoff)
    vals = set()
    for g in cx.generators:
        eta = g.action_at(t)
        for a in window:
            g0, g1 = cx.system.pair(a)
            vals.add(eta - ((1 - t) * g0 + t * g1))
    return sorted(vals)


def spectrum(cx: FilteredComplex, t, cutoff=None) -> list:
    """Action values reachable within the cutoff window: finite, sorted."""
    t = Fraction(t)
    cutoff = cx.cutoff if cutoff is None else Fraction(cutoff)
    return spectrum_against(cx, cutoff, t)


def boundary_depth(cx: FilteredComplex, t, *, prevalidated: bool = False) -> Fraction:
    """Longest finite bar of the slice's barcode; zero when none exist."""
    barcode = persistence_barcode(cx, t, prevalidated=prevalidated)
    return barcode.longest_finite_length()


# ---------------------------------------------------------------------------
# Bottleneck distance.
# ---------------------------------------------------------------------------


def _augment(root: int, adj: list, lim: list, look: list, match_l: list,
             match_r: list, seen: list, stamp: int) -> bool:
    """Flip an augmenting path from the free left vertex ``root``, if any.

    Depth-first search on an explicit stack: ``path`` holds the left
    vertices from the root down, ``via[k]`` the right vertex that leads from
    ``path[k]`` to ``path[k + 1]``, and ``nxt[k]`` the next neighbour of
    ``path[k]`` to try.  Left vertex ``u`` sees ``adj[u][:lim[u]]``.  A right
    vertex is entered at most once per ``stamp``; the marks outlive the
    search, so later searches under the same stamp skip it.  Before
    descending, a vertex looks for a free neighbour; matched vertices stay
    matched, so ``adj[u][:look[u]]`` are all matched and that scan never
    restarts.
    """
    path, via, nxt = [root], [], [0]
    entered = True
    while path:
        u = path[-1]
        rights, end = adj[u], lim[u]
        if entered:
            k = look[u]
            while k < end and match_r[rights[k]] >= 0:
                k += 1
            look[u] = k
            if k < end:
                via.append(rights[k])
                for left, right in zip(path, via):
                    match_l[left] = right
                    match_r[right] = left
                return True
        entered = False
        i = nxt[-1]
        while i < end:
            r = rights[i]
            i += 1
            if seen[r] != stamp:
                seen[r] = stamp
                nxt[-1] = i
                via.append(r)
                path.append(match_r[r])
                nxt.append(0)
                entered = True
                break
        else:
            path.pop()
            nxt.pop()
            if via:
                via.pop()
    return False


def _bottleneck_degree(bars_a: Sequence[Bar], bars_b: Sequence[Bar]):
    """Exact bottleneck distance of the bars of one degree: a Fraction, or INF.

    Unbounded bars match unbounded bars in birth order; ``base`` is the
    largest birth gap.  The finite bars A_1..A_n and B_1..B_m are matched by
    a binary search over the candidates delta (the costs, the half-lengths
    and base); delta is feasible when this bipartite graph has a perfect
    matching:

    * left vertices are the A_i and a diagonal copy of every B_j, right
      vertices the B_j and a diagonal copy of every A_i;
    * A_i - B_j when cost(A_i, B_j) <= delta, the cost being the L-infinity
      distance of (birth, death); A_i - diag(A_i) and diag(B_j) - B_j when
      half the bar's length is <= delta;
    * diag(B_j) - diag(A_i) only when cost(A_i, B_j) <= delta (the mirrored
      diagonal block), not for every pair.

    The mirrored block loses no perfect matching.  Take one of the graph in
    which every pair of diagonal copies is linked.  For each real pair
    (A_i, B_j) it uses, pair diag(B_j) with diag(A_i): that edge is present
    since cost(A_i, B_j) <= delta.  Every other A_i is matched to diag(A_i)
    and every other B_j to diag(B_j), as in the given matching.  This is a
    perfect matching of the pruned graph.

    Every birth and death is scaled once by 2*D, D the lcm of their
    denominators, so that costs and half-lengths are ints.  Each left
    vertex keeps its neighbours sorted by cost, and a probe at delta uses
    the prefix of cost <= delta.  Edges only appear as delta grows, so a
    probe starts from the matching of the last probe that failed, and it
    stops at the first free vertex that an unmarked search cannot augment.
    """
    inf_a = sorted(b.birth for b in bars_a if not b.is_finite)
    inf_b = sorted(b.birth for b in bars_b if not b.is_finite)
    if len(inf_a) != len(inf_b):
        return INF
    fin_a = [(b.birth, b.death) for b in bars_a if b.is_finite]
    fin_b = [(b.birth, b.death) for b in bars_b if b.is_finite]
    dens = {x.denominator for x in inf_a + inf_b}
    for birth, death in fin_a + fin_b:
        dens.add(birth.denominator)
        dens.add(death.denominator)
    scale = 2 * lcm(*dens)

    def scaled(x: Fraction) -> int:
        return x.numerator * (scale // x.denominator)

    base = max((abs(scaled(x) - scaled(y)) for x, y in zip(inf_a, inf_b)), default=0)
    pts_a = [(scaled(b), scaled(d)) for b, d in fin_a]
    pts_b = [(scaled(b), scaled(d)) for b, d in fin_b]
    n, m = len(pts_a), len(pts_b)
    costs = [[max(abs(ab - bb), abs(ad - bd)) for bb, bd in pts_b] for ab, ad in pts_a]
    del_a = [(d - b) // 2 for b, d in pts_a]
    del_b = [(d - b) // 2 for b, d in pts_b]

    # Left vertex u < n is A_u, u >= n is diag(B_{u-n}); right vertex
    # r < m is B_r, r >= m is diag(A_{r-m}).
    keys: list[list[int]] = []
    adj: list[list[int]] = []

    def add_vertex(row: list, targets: list) -> None:
        order = sorted(range(len(row)), key=row.__getitem__)
        keys.append(list(map(row.__getitem__, order)))
        adj.append(list(map(targets.__getitem__, order)))

    to_b = list(range(m))
    for i, row in enumerate(costs):
        add_vertex(row + [del_a[i]], to_b + [m + i])
    to_diag_a = list(range(m, m + n))
    for j in range(m):
        add_vertex([row[j] for row in costs] + [del_b[j]], to_diag_a + [j])

    # Every vertex needs a neighbour, so delta is at least the cheapest
    # edge of each (a right vertex has the costs of a left one).
    floor = max([base] + [k[0] for k in keys])
    cands = {base, *del_a, *del_b}
    for row in costs:
        cands.update(row)
    feas = sorted(c for c in cands if c >= floor)

    size = n + m
    warm_l, warm_r, warm_look = [-1] * size, [-1] * size, [0] * size
    seen = [0] * size
    stamp = 0
    # The largest candidate admits every deletion edge, so it is feasible.
    best = feas[-1]
    lo, hi = 0, len(feas) - 2
    while lo <= hi:
        mid = (lo + hi) // 2
        delta = feas[mid]
        lim = [bisect_right(k, delta) for k in keys]
        match_l, match_r, look = warm_l[:], warm_r[:], warm_look[:]
        free = [u for u in range(size) if match_l[u] < 0]
        while free:
            # One stamp per pass: a search that fails on marks left by
            # earlier ones is retried in the next pass.  The first search of
            # a pass sees no marks, so its failure is final.
            stamp += 1
            if not _augment(free[0], adj, lim, look, match_l, match_r, seen, stamp):
                break
            free = [u for u in free[1:]
                    if not _augment(u, adj, lim, look, match_l, match_r, seen, stamp)]
        if free:
            warm_l, warm_r, warm_look = match_l, match_r, look
            lo = mid + 1
        else:
            best = delta
            hi = mid - 1
    return Fraction(best, scale)


def bottleneck(b1: Barcode, b2: Barcode):
    """Exact bottleneck distance, maximized over degrees.

    Infinite bars only match infinite bars (cost: birth difference); a
    degree with mismatched infinite-bar counts reports distance +inf.
    """
    degrees = {b.degree for b in b1.bars} | {b.degree for b in b2.bars}
    best = Fraction(0)
    for d in sorted(degrees):
        val = _bottleneck_degree(b1.in_degree(d), b2.in_degree(d))
        if val is INF:
            return INF
        best = max(best, val)
    return best


# ---------------------------------------------------------------------------
# Semicontinuity scan.
# ---------------------------------------------------------------------------


class SemicontinuityReport:
    __slots__ = ("curve", "usc_at_zero", "lsc_at_zero", "right_limit",
                 "value_at_zero", "grid_values", "witness_levels")

    def __init__(self, curve: env.PiecewiseAffine, usc_at_zero: bool,
                 lsc_at_zero: bool, right_limit: Fraction, value_at_zero: Fraction,
                 grid_values: dict, witness_levels: dict):
        self.curve = curve
        self.usc_at_zero = usc_at_zero
        self.lsc_at_zero = lsc_at_zero
        self.right_limit = right_limit
        self.value_at_zero = value_at_zero
        self.grid_values = grid_values
        self.witness_levels = witness_levels

    def to_json(self) -> str:
        import json

        payload = {
            "usc_at_zero": self.usc_at_zero,
            "lsc_at_zero": self.lsc_at_zero,
            "right_limit": render_fraction(self.right_limit),
            "value_at_zero": render_fraction(self.value_at_zero),
            "curve": {
                "knots": [render_fraction(k) for k in self.curve.knots],
                "pieces": [[render_fraction(s), render_fraction(b)]
                           for s, b in self.curve.pieces],
            },
            "grid": {render_fraction(t): render_fraction(v)
                     for t, v in sorted(self.grid_values.items())},
            "pullback_levels": {
                render_fraction(t): (render_fraction(v) if v is not None else None)
                for t, v in sorted(self.witness_levels.items())
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


class MissingContinuation(ValueError):
    pass


def _continuation_from_zero(cx: FilteredComplex, t: Fraction):
    """The first continuation quadruple from 0 to t, or None."""
    return next((data for data in cx.continuations
                 if data.s_from == 0 and data.s_to == t), None)


def _pushforward(cx: FilteredComplex, t: Fraction, cycle: Chain,
                 base_matrix, slice_matrix) -> Chain:
    """The cycle carried into the t-slice: identity on equal slices, else
    the phi map of an explicit continuation quadruple from 0 to t."""
    if base_matrix is slice_matrix:
        return dict(cycle)
    data = _continuation_from_zero(cx, t)
    if data is None:
        raise MissingContinuation(
            f"no continuation data from 0 to {t} for a differing boundary slice"
        )
    return apply_matrix(cx, data.phi, cycle)


def _pullback_level(cx, columns, witness_t, witness_0, cutoff):
    """Filtration level at 0 of a chain filling witness_t - witness_0."""
    from .cancellation import fixed_point

    diff = chain_sub(witness_t, witness_0)
    if chain_is_zero(diff):
        return Fraction(0)
    outcome = fixed_point(columns, diff, None, cutoff, offsets=_action_offsets(cx))
    if outcome.is_fixed_point and chain_is_zero(outcome.residual):
        gamma = dict(outcome.combo)
        return ell(cx, gamma, 0) if gamma else Fraction(0)
    return None


def scan_semicontinuity(cx: FilteredComplex, cycle: Chain, grid: Iterable,
                        cutoff=None) -> SemicontinuityReport:
    """Spectral-value curve over the grid's span and one-sided verdicts at 0.

    When the boundary family is constant across the grid the cycle is a
    legal representative at every t and the exact piecewise-affine curve
    is assembled as the lower envelope of realized witness curves, refined
    at breakpoints and piece midpoints until stable; the right limit at 0
    is then exact.  Differing slices require explicit continuation
    pushforwards; values are computed at the sampled grid only and the
    curve interpolates them, with the segment left of the first positive
    sample held constant (its level is the reported right limit, which may
    sit below the value at 0: a drop is legal, a rise violates upper
    semicontinuity).
    """
    grid = sorted(Fraction(g) for g in grid)
    if not grid or grid[0] != 0:
        raise ValueError("grid must contain 0")
    cutoff = cx.cutoff if cutoff is None else Fraction(cutoff)
    matrices = {g: cx.boundary_matrix(g) for g in grid}
    base = matrices[grid[0]]
    constant = all(matrices[g] is base for g in grid[1:])

    witnesses: dict = {}
    grid_values: dict = {}
    witness_levels: dict = {}
    cycle = chain_cleanup(cycle)
    degree = _degree_of_chain(cx, cycle)

    if constant:
        def probe(t: Fraction) -> Fraction:
            res = _rho_against_matrix(cx, base, cycle, t, cutoff)
            if res.degenerate:
                raise SpectralError("cycle bounds at cutoff scale; curve undefined")
            witnesses[t] = res.witness
            grid_values.setdefault(t, res.value)
            return res.value

        for g in grid:
            probe(g)
        for _ in range(REFINEMENT_ROUNDS):
            curves = [ell_curve(cx, w) for w in witnesses.values()]
            curve = env.pointwise_min(curves)
            knots = list(curve.knots)
            mids = [(knots[i] + knots[i + 1]) / 2 for i in range(len(knots) - 1)]
            improved = False
            for t in sorted(set(knots[1:-1]) | set(mids)):
                if t in witnesses:
                    continue
                if probe(t) < curve(t):
                    improved = True
            if not improved:
                break
        else:
            raise RuntimeError("spectral curve failed to stabilize")
        value_at_zero = curve(0)
        right_limit = curve(0)  # the refined envelope is continuous
        columns = _boundary_columns_into_degree(cx, base, degree)
        w0 = witnesses[Fraction(0)]
        for t in grid[1:]:
            witness_levels[t] = _pullback_level(cx, columns, witnesses[t], w0, cutoff)
    else:
        for t in grid:
            pushed = _pushforward(cx, t, cycle, base, matrices[t])
            res = _rho_against_matrix(cx, matrices[t], pushed, t, cutoff)
            if res.degenerate:
                raise SpectralError("cycle bounds at cutoff scale; curve undefined")
            witnesses[t] = res.witness
            grid_values[t] = res.value
        ts = grid
        knots = [Fraction(0)]
        pieces = []
        first_pos = ts[1]
        pieces.append((Fraction(0), grid_values[first_pos]))
        knots.append(first_pos)
        for a, b in zip(ts[1:], ts[2:]):
            slope = (grid_values[b] - grid_values[a]) / (b - a)
            pieces.append((slope, grid_values[a] - slope * a))
            knots.append(b)
        if knots[-1] != 1:
            s, c = pieces[-1]
            pieces.append((Fraction(0), c + s * knots[-1]))
            knots.append(Fraction(1))
        curve = env.PiecewiseAffine(tuple(knots), tuple(pieces))
        value_at_zero = grid_values[Fraction(0)]
        right_limit = grid_values[first_pos]
        columns = _boundary_columns_into_degree(cx, base, degree)
        w0 = witnesses[Fraction(0)]
        for t in grid[1:]:
            data = _continuation_from_zero(cx, t)
            pulled = witnesses[t] if data is None else apply_matrix(cx, data.psi, witnesses[t])
            witness_levels[t] = _pullback_level(cx, columns, pulled, w0, cutoff)

    usc = right_limit <= value_at_zero
    lsc = right_limit >= value_at_zero
    return SemicontinuityReport(
        curve=curve,
        usc_at_zero=usc,
        lsc_at_zero=lsc,
        right_limit=right_limit,
        value_at_zero=value_at_zero,
        grid_values=grid_values,
        witness_levels=witness_levels,
    )


def rho_beta_csv(cx: FilteredComplex, cycle: Chain, ts: Iterable,
                 cutoff=None) -> str:
    """CSV with columns t, rho, boundary_depth at the requested samples."""
    rows = ["t,rho,boundary_depth"]
    for t in ts:
        t = Fraction(t)
        r = rho(cx, cycle, t, cutoff)
        beta = boundary_depth(cx, t)
        value = "-inf" if r.degenerate else render_fraction(r.value)
        rows.append(f"{render_fraction(t)},{value},{render_fraction(beta)}")
    return "\n".join(rows) + "\n"
