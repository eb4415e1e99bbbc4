"""Spectral invariants and boundary depth.

The spectral value of a cycle at parameter t is the minimal filtration
level over its coset modulo boundaries, minimized via the t-weighted best
approximation; since spectra are finite after truncation the infimum is
attained and a realizing chain is returned.  The bottleneck distance is
:mod:`novikit.matching` and the semicontinuity scan
:mod:`novikit.semicontinuity`; a command loads only the one it runs.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import (
    Chain,
    FilteredComplex,
    NEG_INF,
    apply_matrix,
    chain_cleanup,
    chain_is_zero,
    chain_sub,
    ell,
)
from .series import NovikovElement, TWeightedOrder

# ``bench/`` reads these two functions from this module by name.  The
# alias resolves them from their own modules on first access, so that a
# job that takes neither bottleneck distances nor scans never compiles
# them.  Like the one in ``reduction``, it is deleted when the spans move
# into the package (ROADMAP, Direction 5).
def __getattr__(name: str):
    if name == "bottleneck":
        from . import matching as module
    elif name == "scan_semicontinuity":
        from . import semicontinuity as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


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
    from .reduction import persistence_barcode

    barcode = persistence_barcode(cx, t, prevalidated=prevalidated)
    return barcode.longest_finite_length()

