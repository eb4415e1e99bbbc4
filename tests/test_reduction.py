import itertools
import random
from fractions import Fraction

import pytest

from novikit import (
    Bar,
    Barcode,
    CappedGenerator,
    FilteredComplex,
    FloerDivergenceError,
    INF,
    LexOrder,
    NovikovElement,
    NovikovRing,
    Rank2Value,
    RingMode,
    TWeightedOrder,
    VALUE_INF,
    best_approximation,
    fixed_point,
    floer_divergence_check,
    homology_ranks_at_cutoff,
    matrix_rank_at_cutoff,
    monomial,
    persistence_barcode,
    unit,
)
from novikit import cancellation
from novikit.fields import GF2, QQ
from novikit.periods import PeriodSystem
from novikit.models import (
    ModelSpec,
    gen_elementary,
    gen_pathological,
    gen_random,
    line_family,
    pathological_columns,
)
from novikit.cancellation import (
    DivergenceWitness,
    NormalizationError,
    TermGeometry,
    _divergence_probes,
)
from novikit.complexes import chain_cleanup, chain_is_zero, chain_sub

F = Fraction
B = (0, 1)


class TestFixedPoint:
    def test_zero_operator(self, ring):
        v = {"e": ring.mono(B)}
        out = fixed_point([], v, LexOrder(), 10)
        assert out.is_fixed_point
        assert out.approximant == {}
        assert len(out.trace) == 1
        assert out.trace[0] == Rank2Value(0, 1)

    def test_zero_vector_on_an_empty_image(self):
        out = cancellation.fixed_point([], {}, cutoff=5)
        assert out.is_fixed_point
        assert out.trace == (VALUE_INF,)
        assert out.approximant == {} and out.residual == {} and out.combo == {}

    def test_one_sided_divergence_trace(self, ring):
        cols = pathological_columns(cutoff=F(10))
        v = {"e": ring.mono(B)}
        out = fixed_point(cols, v, LexOrder(), 10)
        assert out.kind == "diverges-second"
        assert out.axis == 1
        assert out.stabilized == 0
        # the stall waits for eight pairs past the cutoff 10
        expected = tuple(Rank2Value(0, j) for j in range(1, 19))
        assert out.trace == expected

    def test_balanced_column_collapses(self, ring):
        bp = (1, 1)
        col = {"e": ring.one() - ring.mono(bp)}
        v = {"e": ring.mono(bp)}
        out = fixed_point([col], v, LexOrder(), 10)
        assert out.is_fixed_point
        assert chain_is_zero(out.residual)
        assert out.approximant == v

    def test_trace_strictly_increasing(self, ring):
        col = {"e": ring.one() - ring.mono((1, 1))}
        v = {"e": ring.mono((1, 1)) + ring.mono((2, 3))}
        out = fixed_point([col], v, LexOrder(), 10)
        finite = [t for t in out.trace if not t.is_infinite]
        for a, b in zip(finite, finite[1:]):
            assert a.as_tuple() < b.as_tuple()

    def test_fixed_point_is_rechecked_by_one_more_step(self, ring):
        col = {"e": ring.one() - ring.mono((1, 1))}
        v = {"e": ring.mono((1, 1)) + ring.mono((0, 1))}
        out = fixed_point([col], v, LexOrder(), 10)
        assert out.is_fixed_point
        again = fixed_point([col], out.residual, LexOrder(), 10)
        assert again.is_fixed_point
        assert again.approximant == {}

    def test_u_zero_or_valuation_matches(self, ring):
        rng = random.Random(21)
        col = {"e": ring.one() - ring.mono((1, 1))}
        geom = TermGeometry(ring.base, LexOrder())
        for _ in range(40):
            terms = {(rng.randint(0, 2), rng.randint(0, 2)): 1
                     for _ in range(rng.randint(1, 3))}
            v = {"e": NovikovElement(ring.base, terms)}
            if chain_is_zero(v):
                continue
            out = fixed_point([col], v, LexOrder(), 10)
            if not out.is_fixed_point or chain_is_zero(out.approximant):
                continue
            assert min(geom.vector(out.approximant))[2:4] == min(geom.vector(v))[2:4]

    def test_peak_point_is_an_int_point(self, ring):
        # at t = 1 the key ignores g0: (2, 1) and (0, 1) tie, and the peak
        # is the point of the lesser g0; each point holds its exponents
        geom = TermGeometry(ring.base, TWeightedOrder(1))
        k = geom.scale
        x = {"f": ring.mono((2, 1)), "e": ring.mono((0, 1)) + ring.mono((0, 2))}
        vec = geom.vector(x)
        assert sorted(vec) == [(k, k, 0, k, "e"), (k, k, 2 * k, k, "f"),
                               (2 * k, 2 * k, 0, 2 * k, "e")]
        assert all(type(g) is int for g in min(vec)[:4])
        assert vec[min(vec)] == {(0, 1): 1}
        assert geom.chain(vec) == x
        assert geom.vector({}) == {}

    def test_rejects_nonnormalized_columns(self, ring):
        col = {"e": ring.mono((1, 1)) - ring.mono((2, 2))}
        with pytest.raises(NormalizationError):
            fixed_point([col], {"e": ring.one()}, LexOrder(), 10)

    def test_rejects_bad_cutoff(self, ring):
        with pytest.raises(ValueError):
            fixed_point([], {"e": ring.one()}, LexOrder(), 0)


class TestBestApproximation:
    def test_membership_gives_infinite_value(self, ring):
        col = {"e": ring.one() - ring.mono((1, 1))}
        w = {"e": ring.mono((1, 1))}
        u, achieved = best_approximation([col], w, LexOrder(), 10)
        assert achieved == VALUE_INF
        assert u == w

    def test_disjoint_support_returns_zero(self, ring):
        col = {"e": ring.one() - ring.mono((1, 1))}
        w = {"f": ring.mono((2, 0))}
        u, achieved = best_approximation([col], w, LexOrder(), 10)
        assert u == {}
        assert achieved == Rank2Value(2, 0)

    def test_pathological_input_diverges(self, ring):
        cols = pathological_columns(cutoff=F(10))
        w = {"e": ring.mono(B)}
        with pytest.raises(FloerDivergenceError) as err:
            best_approximation(cols, w, LexOrder(), 10)
        assert err.value.outcome.kind == "diverges-second"

    def test_balanced_column_absorbs_any_reachable_term(self, ring):
        # truncation makes the balanced geometric series finite, so single
        # terms on the column's component are image members at cutoff scale
        col = {"e": ring.one() - ring.mono((1, 1))}
        w = {"e": ring.mono((1, 2)) + ring.mono((2, 1))}
        _, achieved = best_approximation([col], w, TWeightedOrder(F(1, 2)), 10)
        assert achieved == VALUE_INF

    def test_t_weighted_achieved_weight_stable(self, ring):
        col = {"e": ring.one() - ring.mono((1, 1))}
        w = {"e": ring.mono((1, 2)), "f": ring.mono((2, 1))}
        t = F(1, 2)
        u_w, achieved_w = best_approximation([col], w, TWeightedOrder(t), 10)
        u_l, achieved_l = best_approximation([col], w, LexOrder(), 10)
        assert achieved_w.weight(t) == F(3, 2)
        assert achieved_l.weight(t) == F(3, 2)


class TestDivergenceCheck:
    def test_pathological_operator_fails_with_witness(self):
        check = floer_divergence_check(pathological_columns(F(10)), 10)
        assert not check
        w = check.witness
        assert w.axis == 1 and w.stabilized == 0
        finite = [t for t in w.trace if not t.is_infinite]
        assert len(finite) >= 8
        assert all(t.v0 == 0 for t in finite)
        assert finite[-1].v1 > 10

    def test_zero_operator_passes(self):
        assert floer_divergence_check([], 10)

    def test_balanced_operator_passes(self, ring):
        col = {"e": ring.one() - ring.mono((1, 1))}
        assert floer_divergence_check([col], 10)

    def test_saturation_stall_is_a_witness(self):
        # the one-sided y = 1 - T^B, reduced against the pivot w = 1 +
        # T^(1,0), stalls on axis 0 while the image saturates: a divergence
        # with y as the probe, once eight levels past the cutoff open at 0
        (y,) = pathological_columns(F(10))
        ring = y["e"].ring
        w = {"e": unit(ring) + monomial(ring, (1, 0))}
        columns = {"w": w, "y": y}
        check = floer_divergence_check(columns, 10)
        assert not check
        assert check.witness.probe == y
        assert (check.witness.axis, check.witness.stabilized) == (0, 0)
        assert [v.as_tuple() for v in check.witness.trace] == \
            [(j, b) for j in range(18) for b in (0, 1)] + [(18, 0)]
        with pytest.raises(FloerDivergenceError) as err:
            best_approximation(columns, {"e": unit(ring)}, LexOrder(), 10)
        assert err.value.outcome.kind == "diverges-second"

    def test_anti_diagonal_divergence_detected(self, ring):
        # image marches off in the first coordinate while the second sinks
        col = {"e": ring.one() + ring.mono((1, -1))}
        check = floer_divergence_check([col], 10)
        assert not check
        assert check.witness.axis == 0

    @pytest.mark.parametrize("seed, pairs, closed, field, rank", [
        (13, 8, 2, "f2", 2), (167, 8, 2, "q", 2), (188, 8, 1, "q", 2), (137, 7, 2, "q", 2),
    ], ids=["13-f2", "167-q", "188-q", "137-q"])
    def test_balanced_climb_past_the_cutoff_passes(self, seed, pairs, closed, field, rank):
        # Legal models whose probes climb past the cutoff in g0 while g1
        # restarts low at each new g0 level, then end (a probe of 167-q
        # reaches (12, 9)).  A stall window reaching back across the exit
        # read that climb as a stall on axis 0.
        cx = gen_random(ModelSpec(seed=seed, n_pairs=pairs, n_closed=closed,
                                  density=F(1, 2), field_name=field, lattice_rank=rank))
        assert floer_divergence_check(cx.boundary_matrix(0), cx.cutoff)


def _random_operator(seed, pairs, field_name="f2"):
    cx = gen_random(ModelSpec(seed=seed, n_pairs=pairs, n_closed=2,
                              density=F(1, 2), field_name=field_name))
    return cx.boundary_matrix(0), cx.cutoff


def _line_operator():
    base = gen_elementary(ModelSpec(seed=2, n_pairs=6, n_closed=2, lattice_rank=0))
    cx = line_family(base, [F(i % 3 - 1, 8) for i in range(len(base.generators))])
    return cx.boundary_matrix(F(1, 2)), cx.cutoff


def _per_probe_check(columns, cutoff):
    """Verdict and witness from one public fixed_point call per probe."""
    order = LexOrder()
    norm_cols, probes = _divergence_probes(columns)
    for probe in probes:
        out = fixed_point(norm_cols, probe, order, cutoff)
        if out.kind == "diverges-second":
            return False, DivergenceWitness(probe, out.trace, out.axis, out.stabilized)
    return True, None


class TestSaturatedOncePerCheck:
    @staticmethod
    def _count_images(monkeypatch):
        """The argument tuples of every ``_SaturatedImage`` built."""
        calls = []

        class Counting(cancellation._SaturatedImage):
            def __init__(self, *args):
                calls.append(args)
                super().__init__(*args)

        monkeypatch.setattr(cancellation, "_SaturatedImage", Counting)
        return calls

    @pytest.mark.parametrize("operator, passed", [
        (lambda: (pathological_columns(F(10)), F(10)), False),
        (lambda: _random_operator(1, 3), True),
        (lambda: _random_operator(4, 4, "q"), True),
        (_line_operator, True),
        # ``gen --model random --seed 3 --pairs 12 --closed 2 --density 1/2``:
        # a legal complex the check wrongly failed while its stall window
        # reached back across g0 levels.
        (lambda: _random_operator(3, 12), True),
        # ``gen --model random --seed 5 --pairs 12 --closed 2 --density 1/2``:
        # a legal complex the check still wrongly fails (a known defect, kept
        # visible).
        (lambda: _random_operator(5, 12), False),
    ], ids=["pathological", "random-1", "random-4-q", "line", "random-3-defect",
            "random-5-defect"])
    def test_matches_per_probe_fixed_point(self, monkeypatch, operator, passed):
        columns, cutoff = operator()
        calls = self._count_images(monkeypatch)
        check = floer_divergence_check(columns, cutoff)
        assert len(calls) == 1
        monkeypatch.undo()
        assert (check.passed, check.witness) == _per_probe_check(columns, cutoff)
        assert check.passed is passed

    def test_empty_operator_never_saturates(self, monkeypatch):
        calls = self._count_images(monkeypatch)
        assert floer_divergence_check([], 10)
        assert calls == []


def _added_random_probes(norm_cols):
    """The four random probes of a divergence check, each built from
    monomials one ``+`` at a time, in the draw order of ``random.Random(0)``."""
    rng = random.Random(0)
    ambient = next(iter(norm_cols[0].values()))
    support = sorted({(comp, a) for col in norm_cols for comp in col
                      for a in col[comp].terms})
    probes = []
    for _ in range(4):
        picks = [term for term in support if rng.random() < 0.5] or [support[0]]
        probe = {}
        for comp, a in picks:
            mono = monomial(ambient.ring, a, ambient.ring.field.sample_nonzero(rng))
            probe[comp] = probe[comp] + mono if comp in probe else mono
        probes.append(chain_cleanup(probe))
    return probes


@pytest.mark.parametrize("operator", [
    lambda: _random_operator(1, 3),
    lambda: _random_operator(4, 4, "q"),
    lambda: _random_operator(6, 6, "q"),
    lambda: _random_operator(3, 12),
    _line_operator,
], ids=["random-1", "random-4-q", "random-6-q", "random-3-12", "line"])
def test_random_probes_equal_added_reference(operator):
    columns, _ = operator()
    norm_cols, probes = _divergence_probes(columns)
    want = _added_random_probes(norm_cols)
    assert probes[-4:] == want

    def layout(probe):
        return [(comp, list(e.terms.items())) for comp, e in probe.items()]

    assert [layout(p) for p in probes[-4:]] == [layout(p) for p in want]


class TestModeRanks:
    def test_pathological_rank_differs_between_modes(self):
        cols = {"y": pathological_columns(F(10))[0]}
        r1, stuck1 = matrix_rank_at_cutoff(cols, RingMode.OMEGA1)
        r0, stuck0 = matrix_rank_at_cutoff(cols, RingMode.OMEGA0)
        assert (r1, stuck1) == (1, False)
        assert (r0, stuck0) == (0, True)

    def test_one_ring_per_call(self, monkeypatch):
        cx = gen_random(ModelSpec(seed=3, n_pairs=6, n_closed=2, density=F(1, 2)))
        cols = cx.boundary_matrix(0)
        assert sum(len(col) for col in cols.values()) > 1
        built = []
        init = NovikovRing.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(NovikovRing, "__init__", counting)
        for mode in RingMode:
            built.clear()
            matrix_rank_at_cutoff(cols, mode)
            assert len(built) == 1

    def test_pathological_complex_homology_ranks(self):
        cx = gen_pathological()
        ranks1, _ = homology_ranks_at_cutoff(cx, 0, RingMode.OMEGA1)
        ranks0, stuck0 = homology_ranks_at_cutoff(cx, 0, RingMode.OMEGA0)
        assert ranks1[0] == 0
        assert ranks0[0] == 1
        assert stuck0


def two_term_complex(axes, field, eta_x, eta_y, entry, cutoff=F(10)):
    gens = (CappedGenerator("x", 0, eta_x, 0), CappedGenerator("y", 1, eta_y, 0))
    boundaries = {s: {"y": {"x": entry}} for s in (F(0), F(1, 2), F(1))}
    return FilteredComplex(NovikovRing(axes, field, RingMode.INTERVAL, cutoff), gens, boundaries)


class TestBarcode:
    def test_zero_differential_gives_infinite_bars(self, axes):
        gens = (CappedGenerator("a", 0, 1, 0), CappedGenerator("b", 0, 2, -1),
                CappedGenerator("c", 1, 5, 0))
        cx = FilteredComplex(NovikovRing(axes, GF2, RingMode.INTERVAL, F(10)), gens,
                             {F(0): {}, F(1, 2): {}})
        bc = persistence_barcode(cx, F(1, 2))
        assert len(bc.bars) == 3
        assert all(not b.is_finite for b in bc.bars)
        births = sorted(b.birth for b in bc.bars)
        assert births == [1, F(3, 2), 5]

    def test_elementary_pair_single_bar(self, axes, ring):
        cx = two_term_complex(axes, GF2, 1, 3, ring.one())
        bc = persistence_barcode(cx, 0)
        assert len(bc.bars) == 1
        bar = bc.bars[0]
        assert (bar.birth, bar.death, bar.degree) == (1, 3, 0)

    def test_direct_sum_is_multiset_union(self, axes, ring):
        gens = (CappedGenerator("x0", 0, 1, 0), CappedGenerator("y0", 1, 3, 0),
                CappedGenerator("x1", 0, 0, 0), CappedGenerator("y1", 1, 5, 0))
        matrix = {"y0": {"x0": ring.one()}, "y1": {"x1": ring.one()}}
        cx = FilteredComplex(NovikovRing(axes, GF2, RingMode.INTERVAL, F(10)), gens,
                             {s: matrix for s in (F(0), F(1))})
        bc = persistence_barcode(cx, 0)
        pairs = sorted((b.birth, b.death) for b in bc.bars)
        assert pairs == [(0, 5), (1, 3)]

    def test_monomial_entry_shifts_birth(self, axes, ring):
        cx = two_term_complex(axes, GF2, 1, 3, ring.mono((1, 1)))
        bc = persistence_barcode(cx, F(1, 2))
        bar = bc.bars[0]
        assert (bar.birth, bar.death) == (0, 3)

    def test_barcode_csv(self, axes, ring):
        cx = two_term_complex(axes, GF2, 1, 3, ring.one())
        got = persistence_barcode(cx, 0).to_csv()
        assert got == "degree,birth,death\n0,1/1,3/1\n"

    def test_three_degrees_with_cleared_cycles(self):
        # Degree 2 kills the degree-1 cycles y1 - y0 and u + z at their
        # peak rows y1 and z, so clearing skips the cycles named y1 and z;
        # u survives, as x0 does in degree 0.
        ring = NovikovRing(PeriodSystem(0, (), ()), QQ, RingMode.INTERVAL, F(10))
        one, minus = NovikovElement(ring, {(): 1}), NovikovElement(ring, {(): -1})
        gens = [CappedGenerator(n, d, a, 0) for n, d, a in (
            ("x0", 0, 0), ("x1", 0, F(1, 2)), ("y0", 1, 2), ("y1", 1, F(5, 2)),
            ("u", 1, 1), ("z", 1, 3), ("w2", 2, F(7, 2)), ("w", 2, 4), ("c", 2, 5))]
        matrix = {"y0": {"x0": one, "x1": one}, "y1": {"x0": one, "x1": one},
                  "w2": {"y1": one, "y0": minus}, "w": {"u": one, "z": one}}
        got = persistence_barcode(FilteredComplex(ring, gens, {F(0): matrix}), 0)
        assert got.bars == (Bar(0, INF, 0), Bar(F(1, 2), 2, 0), Bar(1, INF, 1),
                            Bar(F(5, 2), F(7, 2), 1), Bar(3, 4, 1), Bar(5, INF, 2))
        assert all(type(x) is Fraction for b in got.bars for x in (b.birth, b.death)
                   if x is not INF)

    def test_unvalidated_complex_rejected(self, axes, ring):
        cx = two_term_complex(axes, GF2, 3, 1, ring.one())  # filtration broken
        with pytest.raises(ValueError):
            persistence_barcode(cx, 0)

    def test_bar_requires_birth_below_death(self):
        with pytest.raises(ValueError):
            Bar(2, 1, 0)
        assert Bar(1, INF, 3).length == INF
        # any float infinity is stored as the INF singleton
        assert not Bar(1, float("inf"), 3).is_finite
        assert Bar(1, float("inf"), 3) == Bar(1, INF, 3)

    def test_entry_cancelling_at_special_slice(self, axes, ring):
        # over GF(2) the exponents (0,1) and (1,0) share the value 1/2 at
        # t = 1/2, so the collapsed entry vanishes on that slice only: the
        # pair contributes a finite bar off the slice and two unbounded
        # bars on it
        entry = ring.mono((0, 1)) + ring.mono((1, 0))
        cx = two_term_complex(axes, GF2, 1, 3, entry)
        assert len(persistence_barcode(cx, 0).finite()) == 1
        assert len(persistence_barcode(cx, 1).finite()) == 1
        half = persistence_barcode(cx, F(1, 2))
        assert len(half.finite()) == 0
        assert len(half.infinite()) == 2
