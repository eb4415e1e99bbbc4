"""Independent cross-validations between modules.

Each test checks one implementation path against a different, simpler
computation: classic GF(2) linear algebra for slice homology, spectrum
membership for bar endpoints, ultrametric consequences for boundary
applications, and pointwise semantics for envelope combinations.
"""

import random
from fractions import Fraction

import pytest

from novikit import (
    PeriodSystem,
    basis_chain,
    ell,
    persistence_barcode,
    spectrum,
    validate,
)
from novikit.complexes import apply_boundary, chain_cleanup
from novikit.envelope import pointwise_min
from novikit.fields import GF2
from novikit.models import ModelSpec, gen_elementary, gen_random
from oracles import pointwise_max, valuation_curve

F = Fraction


def gf2_rank(rows):
    """Plain Gaussian elimination rank over GF(2), rows as int bitmasks."""
    basis = []
    for row in rows:
        cur = row
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
    return len(basis)


def test_infinite_bar_counts_match_classic_betti_numbers_rank0():
    # rank-0 lattice: the slice complex is a plain GF(2) complex, so the
    # number of unbounded bars per degree must equal the Betti number
    for seed in range(10):
        spec = ModelSpec(seed=seed, lattice_rank=0, n_pairs=2, n_closed=2,
                         density=F(1, 2))
        cx = gen_random(spec)
        matrix = cx.boundary_matrix(0)
        names = list(cx.generator_names)
        index = {n: i for i, n in enumerate(names)}
        degrees = sorted({g.degree for g in cx.generators})
        rank_from = {}
        for d in degrees:
            rows = []
            for g in cx.generators:
                if g.degree != d:
                    continue
                col = chain_cleanup(matrix.get(g.name, {}))
                mask = 0
                for r in col:
                    mask |= 1 << index[r]
                if mask:
                    rows.append(mask)
            rank_from[d] = gf2_rank(rows)
        bc = persistence_barcode(cx, F(1, 2), prevalidated=True)
        for d in degrees:
            dim = sum(1 for g in cx.generators if g.degree == d)
            betti = dim - rank_from.get(d, 0) - rank_from.get(d + 1, 0)
            got = sum(1 for b in bc.infinite() if b.degree == d)
            assert got == betti, (seed, d, got, betti)


def test_bar_endpoints_lie_in_spectrum():
    for seed in range(8):
        spec = ModelSpec(seed=seed, n_pairs=2, n_closed=1, density=F(1, 2),
                         cutoff=F(6))
        cx = gen_random(spec)
        for t in (F(0), F(1, 2), F(1)):
            spec_vals = set(spectrum(cx, t, cx.cutoff))
            for bar in persistence_barcode(cx, t, prevalidated=True).bars:
                assert bar.birth in spec_vals, (seed, t, bar)
                if bar.is_finite:
                    assert bar.death in spec_vals, (seed, t, bar)


def test_boundary_strictly_drops_filtration_on_random_chains():
    rng = random.Random(8)
    for seed in range(8):
        spec = ModelSpec(seed=seed, n_pairs=2, n_closed=1, density=F(1, 2))
        cx = gen_random(spec)
        assert validate(cx)
        deg1 = [g.name for g in cx.generators if g.degree == 1]
        for _ in range(20):
            chain = {}
            for name in deg1:
                if rng.random() < 0.6:
                    exp = (rng.randint(0, 2), rng.randint(0, 2))
                    coeff = cx.zero_coeff().like({exp: 1})
                    chain[name] = coeff
            chain = chain_cleanup(chain)
            if not chain:
                continue
            for s in cx.samples:
                image = apply_boundary(cx, s, chain)
                if image:
                    assert ell(cx, image, s) < ell(cx, chain, s)


def test_pointwise_envelopes_agree_with_direct_min_max():
    rng = random.Random(31)
    for _ in range(40):
        curves = []
        for _ in range(rng.randint(1, 4)):
            pts = [(F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
                   for _ in range(rng.randint(1, 6))]
            curves.append(valuation_curve(pts))
        lo = pointwise_min(curves)
        hi = pointwise_max(curves)
        for i in range(0, 101, 3):
            t = F(i, 100)
            vals = [c(t) for c in curves]
            assert lo(t) == min(vals)
            assert hi(t) == max(vals)


def test_round_trip_fuzz_across_ranks_and_fields():
    from novikit.fileformat import emit, parse

    for seed in range(20):
        spec = ModelSpec(seed=seed, lattice_rank=seed % 3,
                         n_pairs=1 + seed % 3, n_closed=seed % 2,
                         density=F(seed % 4, 4),
                         field_name="q" if seed % 2 else "f2")
        cx = gen_random(spec)
        text = emit(cx)
        assert emit(parse(text)) == text
