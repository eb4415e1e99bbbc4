"""The semicontinuity scan: the spectral-value curve of a cycle over a
grid of parameters, and one-sided verdicts at t = 0.

Upper semicontinuity at 0 is checked exactly on assembled
piecewise-affine curves; lower semicontinuity is only ever reported,
never asserted.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from . import envelope as env
from .complexes import (
    Chain,
    FilteredComplex,
    apply_matrix,
    chain_cleanup,
    chain_is_zero,
    chain_sub,
    ell,
    ell_curve,
)
from .fields import render_fraction
from .invariants import (
    SpectralError,
    _action_offsets,
    _boundary_columns_into_degree,
    _degree_of_chain,
    _rho_against_matrix,
)


# Cap on the envelope refinement rounds of scan_semicontinuity.
REFINEMENT_ROUNDS = 64


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
    return apply_matrix(data.phi, cycle)


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
            pulled = witnesses[t] if data is None else apply_matrix(data.psi, witnesses[t])
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
