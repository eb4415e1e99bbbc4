import time
from fractions import Fraction

import pytest

from novikit import (
    RingMode,
    basis_chain,
    bottleneck,
    boundary_depth,
    ell,
    floer_divergence_check,
    homology_ranks_at_cutoff,
    persistence_barcode,
    rho,
    scan_semicontinuity,
    validate,
    verify_continuation,
)
from novikit.models import (
    InfeasibleSpec,
    ModelSpec,
    elementary_bars,
    gen_elementary,
    gen_pathological,
    gen_random,
    line_family,
    pathological_columns,
    shift_constants,
)

F = Fraction


def bars_key(bc):
    return sorted((b.degree, b.birth, not b.is_finite,
                   b.death if b.is_finite else F(0)) for b in bc.bars)


class TestGenElementary:
    def test_validates_and_matches_prescription(self):
        for seed in range(6):
            spec = ModelSpec(seed=seed, n_pairs=2, n_closed=1)
            cx = gen_elementary(spec)
            assert validate(cx)
            for t in cx.samples:
                got = persistence_barcode(cx, t, prevalidated=True)
                assert bars_key(got) == bars_key(elementary_bars(cx, t))

    def test_zero_pairs_gives_infinite_bars_only(self):
        spec = ModelSpec(seed=3, n_pairs=0, n_closed=2)
        cx = gen_elementary(spec)
        bc = persistence_barcode(cx, 0)
        assert len(bc.bars) == 2
        assert all(not b.is_finite for b in bc.bars)

    def test_beta_equals_max_prescribed_length(self):
        spec = ModelSpec(seed=9, n_pairs=3, n_closed=0)
        cx = gen_elementary(spec)
        for t in (F(0), F(1, 2), F(1)):
            expected = max(b.length for b in elementary_bars(cx, t).finite())
            assert boundary_depth(cx, t) == expected

    def test_infeasible_length_range_rejected(self):
        with pytest.raises(InfeasibleSpec):
            gen_elementary(ModelSpec(seed=0, length_range=(F(-1), F(0))))

    def test_counts_validated(self):
        with pytest.raises(InfeasibleSpec):
            ModelSpec(n_pairs=-1)
        with pytest.raises(InfeasibleSpec):
            ModelSpec(n_pairs=0, n_closed=0)


    @pytest.mark.parametrize("kwargs", [
        {"samples": (F(0), F(3, 2))}, {"samples": (F(-1, 2), F(0))},
        {"cutoff": F(0)}, {"cutoff": F(-1)},
    ], ids=["sample-above-1", "sample-below-0", "cutoff-0", "cutoff-negative"])
    def test_spec_rejects_what_parse_rejects(self, kwargs):
        with pytest.raises(InfeasibleSpec):
            ModelSpec(**kwargs)


class TestGenRandom:
    def test_density_zero_is_elementary(self):
        spec = ModelSpec(seed=4, density=0)
        a = gen_elementary(spec)
        b = gen_random(spec)
        assert a.boundaries == b.boundaries

    # (pairs, field, density) -> seed.  Each seed is the first one (from 0)
    # where the reduction without the swap rule got a slice wrong; seed 0
    # where none of seeds 0-39 did.
    SWEEP_SEEDS = {
        (2, "f2", F(1, 2)): 0, (2, "f2", F(1, 4)): 0,
        (2, "q", F(1, 2)): 14, (2, "q", F(1, 4)): 14,
        (3, "f2", F(1, 2)): 1, (3, "f2", F(1, 4)): 1,
        (3, "q", F(1, 2)): 21, (3, "q", F(1, 4)): 18,
        (4, "f2", F(1, 2)): 7, (4, "f2", F(1, 4)): 2,
        (4, "q", F(1, 2)): 19, (4, "q", F(1, 4)): 0,
        (5, "f2", F(1, 2)): 2, (5, "f2", F(1, 4)): 8,
        (5, "q", F(1, 2)): 0, (5, "q", F(1, 4)): 1,
        (6, "f2", F(1, 2)): 2, (6, "f2", F(1, 4)): 0,
        (6, "q", F(1, 2)): 1, (6, "q", F(1, 4)): 0,
        (7, "f2", F(1, 2)): 0, (7, "f2", F(1, 4)): 1,
        (7, "q", F(1, 2)): 1, (7, "q", F(1, 4)): 2,
        (8, "f2", F(1, 2)): 0, (8, "f2", F(1, 4)): 3,
        (8, "q", F(1, 2)): 0, (8, "q", F(1, 4)): 3,
    }

    def test_barcode_invariant_under_conjugation(self):
        for seed in range(8):
            spec = ModelSpec(seed=seed, n_pairs=2, n_closed=1, density=F(3, 4))
            base = gen_elementary(spec)
            twisted = gen_random(spec)
            assert validate(twisted)
            for t in (F(0), F(1, 2), F(1)):
                assert bars_key(persistence_barcode(twisted, t, prevalidated=True)) \
                    == bars_key(elementary_bars(base, t))
        # The oracle sweep: every sample of a model per (pairs, field,
        # density), on seeds that include the conjugated models whose
        # finite bars came out wrong before the swap rule.
        wrong = []
        for (pairs, field, density), seed in self.SWEEP_SEEDS.items():
            spec = ModelSpec(seed=seed, n_pairs=pairs, n_closed=2,
                             field_name=field, density=density)
            base = gen_elementary(spec)
            twisted = gen_random(spec)
            for t in twisted.samples:
                if bars_key(persistence_barcode(twisted, t, prevalidated=True)) \
                        != bars_key(elementary_bars(base, t)):
                    wrong.append((pairs, field, density, seed, t))
        assert wrong == []

    def test_barcode_ceiling_82_generators(self):
        spec = ModelSpec(seed=3, n_pairs=40, n_closed=2, cutoff=10, density=F(1, 4))
        base = gen_elementary(spec)
        twisted = gen_random(spec)
        assert len(twisted.generators) == 82
        start = time.perf_counter()
        got = persistence_barcode(twisted, F(1, 2), prevalidated=True)
        elapsed = time.perf_counter() - start
        assert bars_key(got) == bars_key(elementary_bars(base, F(1, 2)))
        assert elapsed < 2.0, f"82-generator barcode took {elapsed:.2f} s"

    def test_barcode_ceiling_162_generators(self):
        spec = ModelSpec(seed=3, n_pairs=80, n_closed=2, cutoff=10, density=F(1, 4))
        twisted = gen_random(spec)
        assert len(twisted.generators) == 162
        start = time.perf_counter()
        got = persistence_barcode(twisted, F(1, 2), prevalidated=True)
        elapsed = time.perf_counter() - start
        assert bars_key(got) == bars_key(elementary_bars(gen_elementary(spec), F(1, 2)))
        assert elapsed < 0.2, f"162-generator barcode took {elapsed:.2f} s"

    def test_rho_ceiling_82_generators(self):
        spec = ModelSpec(seed=3, n_pairs=40, n_closed=2, cutoff=10, density=F(1, 4))
        base = gen_elementary(spec)
        twisted = gen_random(spec)
        assert len(twisted.generators) == 82
        start = time.perf_counter()
        got = rho(twisted, basis_chain(twisted, "z0"), F(1, 2))
        elapsed = time.perf_counter() - start
        # The closed generator's prescribed action.
        assert got.value == base.action_at("z0", F(1, 2)) == F(5, 4)
        assert elapsed < 5.0, f"82-generator rho took {elapsed:.2f} s"

    def test_two_basis_seeds_same_bars_different_matrices(self):
        spec = ModelSpec(seed=5, n_pairs=2, n_closed=0, density=1)
        c1 = gen_random(spec, basis_seed=1)
        c2 = gen_random(spec, basis_seed=2)
        assert bars_key(persistence_barcode(c1, 0)) == bars_key(
            persistence_barcode(c2, 0))
        assert c1.boundaries != c2.boundaries

    def test_divergence_check_passes_on_models(self):
        for seed in range(5):
            spec = ModelSpec(seed=seed, density=F(1, 2))
            cx = gen_random(spec)
            matrix = cx.boundary_matrix(0)
            assert floer_divergence_check(matrix, cx.cutoff)

    def test_rho_and_beta_invariant_under_conjugation(self):
        spec = ModelSpec(seed=11, n_pairs=1, n_closed=1, density=1,
                         slope_range=(F(-1, 4), F(1, 4)))
        base = gen_elementary(spec)
        twisted = gen_random(spec)
        closed = [g.name for g in base.generators if g.name.startswith("z")
                  and g.degree == 0]
        t = F(1, 2)
        assert boundary_depth(base, t) == boundary_depth(twisted, t)
        for name in closed:
            assert rho(base, basis_chain(base, name), t).value == \
                rho(twisted, basis_chain(twisted, name), t).value


class TestPathological:
    def test_complex_validates_but_fails_divergence(self):
        cx = gen_pathological()
        assert validate(cx)
        check = floer_divergence_check(cx.boundary_matrix(0), cx.cutoff)
        assert not check

    def test_mode_rank_mismatch(self):
        cx = gen_pathological()
        r0, _ = homology_ranks_at_cutoff(cx, 0, RingMode.OMEGA0)
        r1, _ = homology_ranks_at_cutoff(cx, 0, RingMode.OMEGA1)
        assert (r0[0], r1[0]) == (1, 0)

    def test_models_have_mode_independent_ranks(self):
        for seed in range(5):
            spec = ModelSpec(seed=seed, density=F(1, 2))
            cx = gen_random(spec)
            p0, s0 = homology_ranks_at_cutoff(cx, 0, RingMode.OMEGA0)
            p1, s1 = homology_ranks_at_cutoff(cx, 0, RingMode.OMEGA1)
            assert not s0 and not s1
            assert p0 == p1


class TestLineFamily:
    def test_shift_constants_formulas(self):
        assert shift_constants([0, 0]) == (0, 0)
        assert shift_constants([1, -2]) == (2, 1)

    def test_constant_family(self):
        spec = ModelSpec(seed=2, lattice_rank=0, n_pairs=1, n_closed=1)
        base = gen_elementary(spec)
        fam = line_family(base, [0] * len(base.generators))
        assert validate(fam)
        for data in fam.continuations:
            assert data.shift1 == 0 and data.shift2 == 0
            assert verify_continuation(fam, fam, data)

    def test_tilted_family_continuations_pass(self):
        spec = ModelSpec(seed=7, lattice_rank=0, n_pairs=1, n_closed=2,
                         length_range=(F(2), F(3)))
        base = gen_elementary(spec)
        slopes = [F(1, 4), F(-1, 4), F(1, 8), F(0)][: len(base.generators)]
        fam = line_family(base, slopes)
        s1, s2 = shift_constants(slopes)
        for data in fam.continuations:
            assert data.shift1 == data.s_to * s1
            assert data.shift2 == data.s_to * s2
            assert verify_continuation(fam, fam, data)

    def test_rho_curve_within_one_sided_shift_bounds(self):
        # the sharp statement: -t*s2 <= rho(t) - rho(0) <= t*s1, slopes of
        # arbitrary sign (the symmetric sum bound needs s1, s2 >= 0)
        for seed in range(6):
            spec = ModelSpec(seed=seed, lattice_rank=0, n_pairs=1, n_closed=2,
                             length_range=(F(2), F(3)))
            base = gen_elementary(spec)
            rng_slopes = [F(seed % 3, 8) - F(1, 8), F(1, 4), F(-1, 8)]
            slopes = (rng_slopes * 3)[: len(base.generators)]
            fam = line_family(base, slopes)
            s1, s2 = shift_constants(slopes)
            closed = [g.name for g in fam.generators if g.name.startswith("z")]
            if not closed:
                continue
            cycle = basis_chain(fam, closed[0])
            report = scan_semicontinuity(fam, cycle, fam.samples)
            r0 = report.value_at_zero
            for t in sorted(set(report.curve.knots) | set(fam.samples)):
                diff = report.curve(t) - r0
                assert -t * s2 <= diff <= t * s1

    def test_bottleneck_stability_chain(self):
        for seed in range(6):
            spec = ModelSpec(seed=seed, lattice_rank=0, n_pairs=2, n_closed=1,
                             length_range=(F(2), F(3)))
            base = gen_elementary(spec)
            slopes = [F(1, 4), F(-1, 4), F(1, 8), F(0), F(-1, 8), F(1, 4)]
            slopes = (slopes * 2)[: len(base.generators)]
            fam = line_family(base, slopes)
            s = sum(shift_constants(slopes))
            b0 = persistence_barcode(fam, 0)
            for t in fam.samples:
                bt = persistence_barcode(fam, t)
                assert bottleneck(b0, bt) <= t * s

    def test_infeasible_tilt_rejected(self):
        spec = ModelSpec(seed=1, lattice_rank=0, n_pairs=1, n_closed=0,
                         length_range=(F(1, 2), F(1, 2)))
        base = gen_elementary(spec)
        with pytest.raises(InfeasibleSpec):
            line_family(base, [F(-5), F(5)])

    def test_mapping_slopes_and_alpha_scaling(self):
        spec = ModelSpec(seed=2, lattice_rank=0, n_pairs=1, n_closed=1,
                         length_range=(F(2), F(3)))
        base = gen_elementary(spec)
        fam = line_family(base, {"z0": F(1, 8)}, alpha_norm=2)
        tilted = fam.generator("z0")
        assert tilted.action_slope == -F(1, 4)
        assert all(fam.generator(g.name).action_slope == 0
                   for g in base.generators if g.name != "z0")

    def test_scan_consistent_with_rho_on_novikov_coefficients(self):
        # constant family over a rank-2 lattice: the spectral curve varies
        # through the coefficients' interpolated valuations only
        spec = ModelSpec(seed=6, lattice_rank=2, n_pairs=2, n_closed=1,
                         density=F(1, 2))
        cx = gen_random(spec)
        closed = next(g.name for g in cx.generators if g.name.startswith("z")
                      and g.degree == 0)
        cycle = basis_chain(cx, closed)
        report = scan_semicontinuity(cx, cycle, cx.samples)
        for t in cx.samples:
            assert report.curve(t) == rho(cx, cycle, t).value
        assert report.usc_at_zero and report.lsc_at_zero


def test_value_classes_refuse_assignment():
    from novikit import PiecewiseAffine, PointCloud, RaySupport, Rank2Value

    spec = ModelSpec(seed=1, n_pairs=2, lattice_rank=0)
    base = gen_elementary(spec)
    cx = line_family(base, [F(0)] * len(base.generators))
    barcode = elementary_bars(cx, 0)
    for value, name in [
        (spec, "seed"), (cx, "cutoff"), (cx.system, "rank"),
        (cx.generators[0], "action0"), (cx.continuations[0], "shift1"),
        (barcode, "bars"), (barcode.bars[0], "death"), (Rank2Value(0, 1), "v0"),
        (PiecewiseAffine((0, 1), ((0, 1),)), "knots"), (PointCloud([(0, 1)]), "points"),
        (RaySupport((0,), (1,)), "base"),
    ]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
