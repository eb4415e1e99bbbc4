import itertools
import random
import time
from fractions import Fraction

import pytest

from novikit import (
    Bar,
    Barcode,
    CappedGenerator,
    FilteredComplex,
    FloerDivergenceError,
    INF,
    NEG_INF,
    RingMode,
    basis_chain,
    bottleneck,
    boundary_depth,
    ell,
    rho,
    scan_semicontinuity,
    spectrum,
)
from novikit.complexes import ContinuationData
from novikit.fields import GF2, QQ
from novikit.invariants import SpectralError
from novikit.models import line_family, gen_elementary, ModelSpec
from novikit.periods import PeriodSystem
from novikit.semicontinuity import MissingContinuation

F = Fraction
SAMPLES = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))


def closed_complex(axes, gens, field=GF2, cutoff=F(10)):
    return FilteredComplex(axes, field, RingMode.INTERVAL, cutoff, gens,
                           {s: {} for s in SAMPLES})


class TestRho:
    def test_single_closed_generator(self, axes):
        gens = (CappedGenerator("x", 0, 3, -1),)
        cx = closed_complex(axes, gens)
        res = rho(cx, basis_chain(cx, "x"), F(1, 2))
        assert res.value == F(5, 2)
        assert res.witness == basis_chain(cx, "x")
        assert not res.degenerate

    def test_coset_minimum_via_boundary(self, axes, ring):
        t = F(1, 2)
        g = (1, 1)
        gens = (CappedGenerator("x", 0, 5, 0), CappedGenerator("xp", 0, 3, 0),
                CappedGenerator("y", 1, 6, 0))
        matrix = {"y": {"x": ring.one(), "xp": -ring.mono(g)}}
        cx = FilteredComplex(axes, GF2, RingMode.INTERVAL, F(10), gens,
                             {s: matrix for s in SAMPLES})
        assert ell(cx, basis_chain(cx, "x"), t) == 5
        res = rho(cx, basis_chain(cx, "x"), t)
        assert res.value == 2
        assert set(res.witness) == {"xp"}
        assert ell(cx, res.witness, t) == 2

    def test_zero_cycle_degenerate(self, axes):
        cx = closed_complex(axes, (CappedGenerator("x", 0, 0, 0),))
        res = rho(cx, {}, 0)
        assert res.degenerate and res.value == NEG_INF

    def test_non_cycle_rejected(self, axes, ring):
        gens = (CappedGenerator("x", 0, 1, 0), CappedGenerator("y", 1, 3, 0))
        matrix = {"y": {"x": ring.one()}}
        cx = FilteredComplex(axes, GF2, RingMode.INTERVAL, F(10), gens,
                             {s: matrix for s in SAMPLES})
        with pytest.raises(SpectralError):
            rho(cx, basis_chain(cx, "y"), 0)

    def test_realization_and_spectrality(self, axes, ring):
        gens = (CappedGenerator("x", 0, 5, 1), CappedGenerator("xp", 0, 3, -2),
                CappedGenerator("y", 1, 9, 0))
        matrix = {"y": {"x": ring.one(), "xp": -ring.mono((1, 1))}}
        cx = FilteredComplex(axes, GF2, RingMode.INTERVAL, F(10), gens,
                             {s: matrix for s in SAMPLES})
        for t in SAMPLES:
            res = rho(cx, basis_chain(cx, "x"), t)
            assert ell(cx, res.witness, t) == res.value
            assert res.value in spectrum(cx, t)
            # the witness differs from the cycle by the stored boundary part
            from novikit.complexes import apply_matrix, chain_add
            recon = chain_add(res.witness, res.boundary)
            assert recon == basis_chain(cx, "x")
            assert apply_matrix(cx, matrix, res.witness) == {}

    def test_divergence_propagates(self):
        from novikit.models import gen_pathological

        cx = gen_pathological()
        with pytest.raises(FloerDivergenceError):
            rho(cx, basis_chain(cx, "x"), 1)


class TestSpectrum:
    def test_rank0_single_generator(self):
        sys0 = PeriodSystem(0, (), ())
        cx = FilteredComplex(sys0, GF2, RingMode.INTERVAL, F(2),
                             (CappedGenerator("x", 0, F(7, 2), -1),),
                             {F(0): {}, F(1): {}})
        assert spectrum(cx, 0) == [F(7, 2)]
        assert spectrum(cx, 1) == [F(5, 2)]

    def test_rank1_ray_direction(self):
        sys1 = PeriodSystem(1, (1,), (1,))
        cx = FilteredComplex(sys1, GF2, RingMode.INTERVAL, F(2),
                             (CappedGenerator("x", 0, 4, 0),),
                             {F(0): {}})
        assert spectrum(cx, 0, 2) == [2, 3, 4]

    def test_two_generators_rank0(self):
        sys0 = PeriodSystem(0, (), ())
        cx = FilteredComplex(sys0, GF2, RingMode.INTERVAL, F(2),
                             (CappedGenerator("x", 0, 1, 0),
                              CappedGenerator("z", 0, 2, 0)),
                             {F(0): {}})
        assert spectrum(cx, 0) == [1, 2]


class TestBoundaryDepth:
    def test_zero_differential(self, axes):
        cx = closed_complex(axes, (CappedGenerator("x", 0, 1, 0),))
        assert boundary_depth(cx, 0) == 0

    def test_elementary_pair(self, axes, ring):
        gens = (CappedGenerator("x", 0, 1, 0), CappedGenerator("y", 1, 3, 0))
        cx = FilteredComplex(axes, GF2, RingMode.INTERVAL, F(10), gens,
                             {s: {"y": {"x": ring.one()}} for s in SAMPLES})
        assert boundary_depth(cx, 0) == 2

    def test_direct_sum_takes_max(self, axes, ring):
        gens = (CappedGenerator("x0", 0, 1, 0), CappedGenerator("y0", 1, 3, 0),
                CappedGenerator("x1", 0, 0, 0), CappedGenerator("y1", 1, 5, 0))
        matrix = {"y0": {"x0": ring.one()}, "y1": {"x1": ring.one()}}
        cx = FilteredComplex(axes, GF2, RingMode.INTERVAL, F(10), gens,
                             {s: matrix for s in SAMPLES})
        assert boundary_depth(cx, 0) == 5


class TestBottleneck:
    def test_identical_barcodes(self):
        bc = Barcode([Bar(0, 2, 0), Bar(1, INF, 1)])
        assert bottleneck(bc, bc) == 0

    def test_single_bars(self):
        assert bottleneck(Barcode([Bar(0, 2, 0)]), Barcode([Bar(0, 3, 0)])) == 1

    def test_bar_versus_empty(self):
        assert bottleneck(Barcode([Bar(0, 1, 0)]), Barcode([])) == F(1, 2)

    def test_deletion_beats_bad_match(self):
        # matching costs 10, deleting both costs max(1/2, 1/2)
        a = Barcode([Bar(0, 1, 0)])
        b = Barcode([Bar(10, 11, 0)])
        assert bottleneck(a, b) == F(1, 2)

    def test_infinite_bars_match_by_birth(self):
        a = Barcode([Bar(0, INF, 0), Bar(5, INF, 0)])
        b = Barcode([Bar(1, INF, 0), Bar(5, INF, 0)])
        assert bottleneck(a, b) == 1

    def test_infinite_count_mismatch(self):
        a = Barcode([Bar(0, INF, 0)])
        b = Barcode([])
        assert bottleneck(a, b) == INF

    def test_max_over_degrees(self):
        a = Barcode([Bar(0, 2, 0), Bar(0, 8, 1)])
        b = Barcode([Bar(0, 2, 0), Bar(1, 8, 1)])
        assert bottleneck(a, b) == 1

    def test_finite_results_are_fractions(self):
        bc = Barcode([Bar(0, 2, 0), Bar(1, INF, 1)])
        assert type(bottleneck(bc, bc)) is Fraction
        assert type(bottleneck(Barcode([]), Barcode([]))) is Fraction
        assert type(bottleneck(Barcode([Bar(0, 2, 0)]), Barcode([Bar(0, 3, 0)]))) is Fraction

    def test_matches_brute_force_oracle(self):
        rng = random.Random(20161)
        seen = {"inf": 0, "ties": 0, "unequal": 0, "empty_side": 0, "degrees": 0}
        for _ in range(400):
            degrees = rng.choice([(0,), (0, 1), (0, 1, 2)])
            a = _random_barcode(rng, degrees)
            b = _random_barcode(rng, degrees)
            expected = _brute_force_bottleneck(a, b)
            got = bottleneck(a, b)
            assert got == expected, (a, b)
            if got == INF:
                seen["inf"] += 1
                continue
            assert type(got) is Fraction
            fin = [x for x in a.bars + b.bars if x.is_finite]
            costs = [max(abs(x.birth - y.birth), abs(x.death - y.death))
                     for x in fin for y in fin if x is not y]
            seen["ties"] += len(costs) != len(set(costs))
            seen["unequal"] += len(a.bars) != len(b.bars)
            seen["empty_side"] += not a.bars or not b.bars
            seen["degrees"] += len({x.degree for x in a.bars + b.bars}) > 1
        assert min(seen.values()) >= 10, seen

    def test_thousand_bars_per_side(self):
        rng = random.Random(1000)

        def bars(n):
            out = []
            for _ in range(n):
                birth = F(rng.randint(0, 1000), rng.choice([1, 2, 3, 4]))
                out.append(Bar(birth, birth + F(rng.randint(1, 200), rng.choice([1, 2, 3])), 0))
            return Barcode(out)

        a, b = bars(1000), bars(1000)
        start = time.perf_counter()
        d = bottleneck(a, b)
        elapsed = time.perf_counter() - start
        assert type(d) is Fraction
        # deleting every bar is a matching, so half the longest bar bounds d
        assert 0 < d <= max(x.length for x in a.bars + b.bars) / 2
        assert elapsed < 5.0, elapsed


def _random_barcode(rng, degrees):
    """At most four bars on a coarse grid, so that equal costs are common;
    about one in eight is unbounded."""
    bars = []
    for _ in range(rng.randint(0, 4)):
        birth = F(rng.randint(0, 6), 2)
        if rng.random() < 0.125:
            bars.append(Bar(birth, INF, rng.choice(degrees)))
        else:
            bars.append(Bar(birth, birth + F(rng.randint(1, 4), 2), rng.choice(degrees)))
    return Barcode(bars)


def _brute_force_bottleneck(a, b):
    """Bottleneck distance by enumerating, in every degree, each bijection of
    the unbounded bars and each partial matching of the finite bars, the
    unmatched ones going to the diagonal at half their length."""
    best = F(0)
    for degree in {x.degree for x in a.bars + b.bars}:
        inf_a = [x.birth for x in a.in_degree(degree) if not x.is_finite]
        inf_b = [x.birth for x in b.in_degree(degree) if not x.is_finite]
        if len(inf_a) != len(inf_b):
            return INF
        fin_a = [x for x in a.in_degree(degree) if x.is_finite]
        fin_b = [x for x in b.in_degree(degree) if x.is_finite]
        inf_cost = min(max((abs(x - y) for x, y in zip(inf_a, perm)), default=F(0))
                       for perm in itertools.permutations(inf_b))
        best = max(best, inf_cost, _partial_matching_cost(fin_a, fin_b))
    return best


def _partial_matching_cost(fin_a, fin_b):
    """Least bottleneck cost over every partial matching of fin_a to fin_b."""
    if not fin_a:
        return max((y.length / 2 for y in fin_b), default=F(0))
    x, rest = fin_a[0], fin_a[1:]
    best = max(x.length / 2, _partial_matching_cost(rest, fin_b))
    for j, y in enumerate(fin_b):
        pair = max(abs(x.birth - y.birth), abs(x.death - y.death))
        best = min(best, max(pair, _partial_matching_cost(rest, fin_b[:j] + fin_b[j + 1:])))
    return best


class TestScan:
    def test_constant_family(self, axes):
        cx = closed_complex(axes, (CappedGenerator("x", 0, 2, 0),))
        report = scan_semicontinuity(cx, basis_chain(cx, "x"), SAMPLES)
        assert report.usc_at_zero and report.lsc_at_zero
        assert report.curve(0) == 2 and report.curve(1) == 2
        assert report.right_limit == 2

    def test_envelope_of_tilted_offsets(self, axes):
        # two closed generators; the class of their sum follows the max line
        sys0 = PeriodSystem(0, (), ())
        gens = (CappedGenerator("x", 0, 2, -2), CappedGenerator("z", 0, 0, 1))
        cx = FilteredComplex(sys0, GF2, RingMode.INTERVAL, F(10), gens,
                             {s: {} for s in SAMPLES})
        one = cx.zero_coeff().like({(): 1})
        cycle = {"x": one, "z": one}
        report = scan_semicontinuity(cx, cycle, SAMPLES)
        assert report.curve(0) == 2
        assert report.curve(1) == 1
        assert report.curve(F(2, 3)) == F(2, 3)
        assert report.usc_at_zero

    def test_grid_must_contain_zero(self, axes):
        cx = closed_complex(axes, (CappedGenerator("x", 0, 2, 0),))
        with pytest.raises(ValueError):
            scan_semicontinuity(cx, basis_chain(cx, "x"), (F(1, 2), F(1)))

    def test_sampled_family_reports_lsc_failure(self, axes, ring):
        # the slice at 0 has no useful boundary; later slices acquire one
        # killing the peak, so the value drops for t > 0 (usc holds).
        gens = (CappedGenerator("x", 0, 5, 0), CappedGenerator("xp", 0, 1, 0),
                CappedGenerator("y", 1, 6, 0))
        m0 = {}
        mt = {"y": {"x": ring.one(), "xp": -ring.mono((1, 1))}}
        boundaries = {F(0): m0, F(1, 2): mt, F(1): mt}
        one = ring.one()
        ident = {n: {n: one} for n in ("x", "xp", "y")}
        conts = tuple(
            ContinuationData(0, s, ident, ident, {}, {}, 10, 10)
            for s in (F(1, 2), F(1)))
        cx = FilteredComplex(axes, GF2, RingMode.INTERVAL, F(10), gens,
                             boundaries, continuations=conts)
        report = scan_semicontinuity(cx, basis_chain(cx, "x"),
                                     (F(0), F(1, 2), F(1)))
        assert report.value_at_zero == 5
        assert report.right_limit < 5
        assert report.usc_at_zero
        assert not report.lsc_at_zero

    def test_missing_continuation_errors(self, axes, ring):
        gens = (CappedGenerator("x", 0, 5, 0), CappedGenerator("xp", 0, 1, 0),
                CappedGenerator("y", 1, 6, 0))
        mt = {"y": {"x": ring.one(), "xp": -ring.mono((1, 1))}}
        boundaries = {F(0): {}, F(1): mt}
        cx = FilteredComplex(axes, GF2, RingMode.INTERVAL, F(10), gens,
                             boundaries)
        with pytest.raises(MissingContinuation):
            scan_semicontinuity(cx, basis_chain(cx, "x"), (F(0), F(1)))


def test_rho_matches_exhaustive_coset_search_rank0():
    # Rank-0 lattice over GF(2): the coset of a cycle modulo boundaries is
    # a finite set, so the spectral value has a fully exhaustive oracle.
    import itertools
    from novikit.complexes import apply_matrix, chain_add, chain_cleanup
    from novikit.models import ModelSpec, gen_random

    for seed in range(12):
        spec = ModelSpec(seed=seed, lattice_rank=0, n_pairs=2, n_closed=2,
                         density=F(1, 2))
        cx = gen_random(spec)
        matrix = cx.boundary_matrix(0)
        t = F(1, 2)
        deg1 = [g.name for g in cx.generators if g.degree == 1
                and chain_cleanup(matrix.get(g.name, {}))]
        closed = [g.name for g in cx.generators
                  if g.degree == 0 and g.name.startswith("z")]
        one = cx.zero_coeff().like({(): 1})
        for name in closed:
            cycle = {name: one}
            best = ell(cx, cycle, t)
            for picks in itertools.product((0, 1), repeat=len(deg1)):
                chain = {n: one for n, p in zip(deg1, picks) if p}
                if not chain:
                    continue
                rep = chain_add(cycle, apply_matrix(cx, matrix, chain))
                if rep:
                    best = min(best, ell(cx, rep, t))
            got = rho(cx, cycle, t)
            assert got.value == best, (seed, name, got.value, best)
