"""Generators of desk-scale instances with known invariants.

``gen_elementary`` emits direct sums of two-term complexes (each pair
contributes one finite bar of prescribed endpoints) plus closed
generators; ``gen_random`` conjugates the result by a random filtered
change of basis with unit diagonal and strictly filtration-decreasing
off-diagonal Novikov entries, which preserves square-zero exactly and
leaves every invariant unchanged.  ``line_family`` tilts the action
offsets affinely and packages identity continuation quadruples whose
shift constants are the max formulas over the tilt slopes.

Randomness: all draws come from CPython's ``random.Random`` (Mersenne
Twister) seeded with the configured integer seed, so byte-identical
output is reproducible across runs and platforms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping, Sequence

from .complexes import (
    CappedGenerator,
    ContinuationData,
    FilteredComplex,
    _matrix_combine,
    chain_add,
    compose_matrices,
    identity_matrix,
    validate,
)
from .fields import field_by_name
from .periods import PeriodSystem
from .series import INF, NovikovElement, NovikovRing, RingMode, monomial, unit

DEFAULT_SAMPLES = (Fraction(0), Fraction(1, 4), Fraction(1, 2),
                   Fraction(3, 4), Fraction(1))


class InfeasibleSpec(ValueError):
    pass


def _default_periods(rank: int) -> tuple[tuple, tuple]:
    if rank == 0:
        return ((), ())
    if rank == 1:
        return ((Fraction(1),), (Fraction(2),))
    base0 = [Fraction(0)] * rank
    base1 = [Fraction(0)] * rank
    base0[0] = Fraction(1)
    base1[1] = Fraction(1)
    for i in range(2, rank):
        base0[i] = Fraction(1)
        base1[i] = Fraction(1)
    return (tuple(base0), tuple(base1))


class ModelSpec:
    """Configuration for instance generation; all draws are seed-determined."""

    __slots__ = ("seed", "n_pairs", "n_closed", "lattice_rank", "cutoff",
                 "field_name", "density", "action_range", "length_range",
                 "slope_range", "samples")

    def __init__(self, seed: int = 0, n_pairs: int = 2, n_closed: int = 1,
                 lattice_rank: int = 2, cutoff=Fraction(10), field_name: str = "f2",
                 density=Fraction(1, 2), action_range: tuple = (Fraction(-2), Fraction(2)),
                 length_range: tuple = (Fraction(1), Fraction(3)),
                 slope_range: tuple = (Fraction(0), Fraction(0)),
                 samples: tuple = DEFAULT_SAMPLES):
        if n_pairs < 0 or n_closed < 0:
            raise InfeasibleSpec("generator counts must be nonnegative")
        if n_pairs + n_closed == 0:
            raise InfeasibleSpec("need at least one generator")
        if lattice_rank < 0:
            raise InfeasibleSpec("lattice rank must be nonnegative")
        for lo, hi in (action_range, length_range, slope_range):
            if Fraction(lo) > Fraction(hi):
                raise InfeasibleSpec("empty range in spec")
        samples = tuple(Fraction(s) for s in samples)
        for s in samples:
            if not 0 <= s <= 1:
                raise InfeasibleSpec(f"sample s={s} lies outside [0, 1]")
        cutoff = Fraction(cutoff)
        if cutoff <= 0:
            raise InfeasibleSpec(f"cutoff {cutoff} must be positive")
        density = Fraction(density)
        if not 0 <= density <= 1:
            raise InfeasibleSpec(f"density {density} lies outside [0, 1]")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "n_pairs", n_pairs)
        object.__setattr__(self, "n_closed", n_closed)
        object.__setattr__(self, "lattice_rank", lattice_rank)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "field_name", field_name)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "action_range", action_range)
        object.__setattr__(self, "length_range", length_range)
        object.__setattr__(self, "slope_range", slope_range)
        object.__setattr__(self, "samples", samples)

    def __setattr__(self, *args):
        raise AttributeError("ModelSpec is immutable")


def _rand_frac(rng: random.Random, lo, hi, denom: int = 4) -> Fraction:
    lo, hi = Fraction(lo), Fraction(hi)
    import math

    a = math.ceil(lo * denom)
    b = math.floor(hi * denom)
    if a > b:
        raise InfeasibleSpec(f"range [{lo}, {hi}] holds no multiple of 1/{denom}")
    return Fraction(rng.randint(a, b), denom)


def _rand_positive_exponent(rng: random.Random, ring: NovikovRing):
    """A lattice vector with strictly positive period pair (rank >= 1)."""
    k = ring.system.rank
    for _ in range(64):
        coords = tuple(rng.randint(0, 2) for _ in range(k))
        g0, g1 = ring.ipair(coords)
        if g0 > 0 and g1 > 0:
            return coords
    return tuple([1] * k)


def gen_elementary(spec: ModelSpec) -> FilteredComplex:
    """Direct sum of elementary pairs and closed generators.

    Each pair contributes a single boundary entry ``T^g`` from a degree-1
    generator onto a degree-0 generator with a strictly positive bar
    length at both parameter endpoints, so the barcode at every t is
    exactly the prescribed multiset.
    """
    rng = random.Random(spec.seed)
    if Fraction(spec.length_range[0]) <= 0:
        raise InfeasibleSpec("bars need strictly positive length")
    system = PeriodSystem(spec.lattice_rank, *_default_periods(spec.lattice_rank))
    coeff_field = field_by_name(spec.field_name)
    ring = NovikovRing(system, coeff_field, RingMode.INTERVAL, spec.cutoff)

    gens: list[CappedGenerator] = []
    matrix: dict[str, dict[str, NovikovElement]] = {}
    for j in range(spec.n_pairs):
        xn, yn = f"x{j}", f"y{j}"
        ax0 = _rand_frac(rng, *spec.action_range)
        sx = _rand_frac(rng, *spec.slope_range)
        if system.rank > 0 and rng.random() < Fraction(1, 2):
            g = _rand_positive_exponent(rng, ring)
        else:
            g = (0,) * system.rank
        g0, g1 = system.pair(g)
        len0 = _rand_frac(rng, *spec.length_range)
        len1 = _rand_frac(rng, *spec.length_range)
        ay0 = ax0 - g0 + len0
        ay1 = (ax0 + sx) - g1 + len1
        gens.append(CappedGenerator(xn, 0, ax0, sx))
        gens.append(CappedGenerator(yn, 1, ay0, ay1 - ay0))
        coeff = coeff_field.sample_nonzero(rng)
        matrix[yn] = {xn: monomial(ring, g, coeff)}
    for i in range(spec.n_closed):
        zn = f"z{i}"
        a0 = _rand_frac(rng, *spec.action_range)
        sl = _rand_frac(rng, *spec.slope_range)
        gens.append(CappedGenerator(zn, rng.randint(0, 1), a0, sl))

    return FilteredComplex(ring, tuple(gens), dict.fromkeys(spec.samples, matrix))


def elementary_bars(cx: FilteredComplex, t):
    """The prescribed ``reduction.Barcode`` of an elementary (unconjugated)
    output."""
    from .reduction import Bar, Barcode

    t = Fraction(t)
    matrix = cx.boundary_matrix(cx.samples[0])  # family is s-independent
    bars = []
    killed = set()
    for col, column in matrix.items():
        (row, entry), = column.items()
        (g, _), = entry.terms.items()
        g0, g1 = cx.system.pair(g)
        birth = cx.action_at(row, t) - ((1 - t) * g0 + t * g1)
        bars.append(Bar(birth, cx.action_at(col, t), cx.generator(row).degree))
        killed.add(row)
        killed.add(col)
    for g in cx.generators:
        if g.name not in killed:
            bars.append(Bar(g.action_at(t), INF, g.degree))
    return Barcode(bars)


def _conjugators(spec: ModelSpec, cx: FilteredComplex, basis_seed: int):
    """Per-degree unit-triangular change of basis P and its exact inverse."""
    rng = random.Random(basis_seed)
    names = list(cx.generator_names)
    degree = {g.name: g.degree for g in cx.generators}

    n_matrix: dict[str, dict[str, NovikovElement]] = {}
    for j, col in enumerate(names):
        for i, row in enumerate(names):
            if i <= j or degree[row] != degree[col]:
                continue
            if rng.random() >= spec.density:
                continue
            entry = _filtered_entry(rng, cx, row, col)
            if entry is None:
                continue
            n_matrix.setdefault(col, {})[row] = entry

    ident = identity_matrix(cx)
    p = _matrix_combine(ident, n_matrix, chain_add)
    # (I + N)^-1 = I - N + N^2 - ... ; N is strictly triangular within each
    # degree, so nilpotent, and the powers of -N reach zero.
    neg = {c: {r: -e for r, e in col.items()} for c, col in n_matrix.items()}
    inv, power = ident, neg
    while power:
        inv = _matrix_combine(inv, power, chain_add)
        power = compose_matrices(neg, power)
    return p, inv


def _filtered_entry(rng: random.Random, cx: FilteredComplex, row: str, col: str):
    """A strictly filtration-decreasing entry from col onto row, or None."""
    ar = cx.generator(row).action_endpoints
    ac = cx.generator(col).action_endpoints
    coeff = cx.ring.field.sample_nonzero(rng)
    if cx.system.rank == 0:
        if ar[0] < ac[0] and ar[1] < ac[1]:
            return monomial(cx.ring, (), coeff)
        return None
    h = _rand_positive_exponent(rng, cx.ring)
    h0, h1 = cx.system.pair(h)
    m = 1
    while not (ar[0] - m * h0 < ac[0] and ar[1] - m * h1 < ac[1]):
        m += 1
    scaled = tuple(m * c for c in h)
    return monomial(cx.ring, scaled, coeff)


def gen_random(spec: ModelSpec, basis_seed: int | None = None) -> FilteredComplex:
    """Elementary model conjugated by a random filtered change of basis.

    Square-zero is preserved exactly (the conjugator is invertible in
    truncated arithmetic: supports stay in the nonnegative period range),
    and the barcode is invariant under the conjugation.  ``basis_seed``
    varies the change of basis independently of the elementary content.
    """
    base = gen_elementary(spec)
    if spec.density == 0:
        return base
    if basis_seed is None:
        basis_seed = spec.seed + 1000003
    p, pinv = _conjugators(spec, base, basis_seed)
    d = base.boundary_matrix(base.samples[0])
    conj = compose_matrices(p, compose_matrices(d, pinv))
    return FilteredComplex(base.ring, base.generators, dict.fromkeys(base.samples, conj))


def pathological_system() -> PeriodSystem:
    return PeriodSystem(2, (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def pathological_columns(cutoff=Fraction(10), field=None) -> list[dict[str, NovikovElement]]:
    """The one-column operator 1 - T^B whose image diverges one-sidedly.

    B has period pair (0, 1): the valuation's first coordinate is blind to
    powers of B while the second marches off, which is the canonical
    violation of balanced divergence.
    """
    ring = NovikovRing(pathological_system(), field or field_by_name("f2"),
                       RingMode.INTERVAL, cutoff)
    return [{"e": unit(ring) - monomial(ring, (0, 1))}]


def gen_pathological(cutoff=Fraction(10), field_name: str = "f2",
                     samples: Sequence = DEFAULT_SAMPLES) -> FilteredComplex:
    """Two-term complex whose boundary is the one-sided operator.

    It validates (square zero, strict filtration decrease) yet fails the
    divergence check, exhibits mode-dependent homology ranks, and makes
    the best approximation diverge: the standard counterexample input.
    """
    entry = pathological_columns(cutoff, field_by_name(field_name))[0]["e"]
    gens = (CappedGenerator("x", 0, 0, 0), CappedGenerator("y", 1, 2, 0))
    return FilteredComplex(entry.ring, gens, dict.fromkeys(samples, {"y": {"x": entry}}))


def shift_constants(slopes: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
    """Filtration shift bounds of an affine tilt: (max -a_i, max a_i)."""
    slopes = [Fraction(a) for a in slopes]
    if not slopes:
        return (Fraction(0), Fraction(0))
    return (max(-a for a in slopes), max(slopes))


def line_family(base: FilteredComplex, slopes, alpha_norm=1) -> FilteredComplex:
    """Tilt the action offsets to eta_i(t) = eta_i(0) - t*a_i.

    The boundary family is unchanged (t-independent), so identity chain
    maps with zero homotopies form continuation quadruples; their shift
    bounds scale linearly with the parameter distance.  Output is
    validated: tilts that break strict filtration decrease are rejected.
    """
    alpha_norm = Fraction(alpha_norm)
    if isinstance(slopes, Mapping):
        a = {name: Fraction(slopes.get(name, 0)) * alpha_norm
             for name in base.generator_names}
    else:
        slopes = list(slopes)
        if len(slopes) != len(base.generators):
            raise ValueError("need one slope per generator")
        a = {g.name: Fraction(s) * alpha_norm
             for g, s in zip(base.generators, slopes)}
    gens = tuple(CappedGenerator(g.name, g.degree, g.action0, -a[g.name])
                 for g in base.generators)
    s1, s2 = shift_constants([a[g.name] for g in base.generators])

    cx = FilteredComplex(base.ring, gens, base.boundaries)
    report = validate(cx)
    if not report:
        raise InfeasibleSpec(
            f"tilt breaks strict filtration decrease: {report.violations[:3]}")
    ident = identity_matrix(base)
    conts = []
    for s in cx.samples:
        if s == 0:
            continue
        conts.append(ContinuationData(
            s_from=Fraction(0), s_to=s, phi=ident, psi=ident, k_s={}, k_t={},
            shift1=s * s1, shift2=s * s2))
    return FilteredComplex(base.ring, gens, base.boundaries, continuations=tuple(conts))
