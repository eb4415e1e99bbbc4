from fractions import Fraction

import pytest

from novikit import (
    CappedGenerator,
    ContinuationData,
    FilteredComplex,
    NEG_INF,
    RingMode,
    apply_boundary,
    basis_chain,
    ell,
    ell_curve,
    validate,
    verify_continuation,
)
from novikit.complexes import StructureError
from novikit.fields import GF2, QQ

F = Fraction
SAMPLES = (F(0), F(1, 2), F(1))


def make_complex(axes, gens, matrix, field=GF2, cutoff=F(10)):
    boundaries = {s: {c: dict(col) for c, col in matrix.items()} for s in SAMPLES}
    return FilteredComplex(axes, field, RingMode.INTERVAL, cutoff, gens, boundaries)


@pytest.fixture
def elementary(axes, ring):
    gens = (CappedGenerator("x", 0, 1, 0), CappedGenerator("y", 1, 3, 0))
    return make_complex(axes, gens, {"y": {"x": ring.mono((1, 1))}})


class TestValidate:
    def test_elementary_pair_passes(self, elementary):
        assert validate(elementary)

    def test_zero_differential_passes(self, axes):
        gens = (CappedGenerator("a", 0, 0, 0), CappedGenerator("b", 1, 1, 0))
        assert validate(make_complex(axes, gens, {}))

    def test_filtration_violation_with_witness(self, axes, ring):
        gens = (CappedGenerator("x", 0, 3, 0), CappedGenerator("y", 1, 1, 0))
        cx = make_complex(axes, gens, {"y": {"x": ring.one()}})
        report = validate(cx)
        assert not report
        kinds = {v[0] for v in report.violations}
        assert "filtration" in kinds
        witness = next(v for v in report.violations if v[0] == "filtration")
        s, col, level, own = witness[1]
        assert col == "y" and level >= own

    def test_square_nonzero_detected(self, axes, ring):
        gens = (CappedGenerator("a", 0, 0, 0), CappedGenerator("b", 1, 2, 0),
                CappedGenerator("c", 2, 4, 0))
        cx = make_complex(axes, gens, {
            "b": {"a": ring.mono((1, 1))},
            "c": {"b": ring.mono((1, 1))},
        })
        report = validate(cx)
        assert any(v[0] == "square-nonzero" for v in report.violations)

    def test_grading_violation(self, axes, ring):
        gens = (CappedGenerator("a", 0, 0, 0), CappedGenerator("b", 2, 3, 0))
        cx = make_complex(axes, gens, {"b": {"a": ring.mono((1, 1))}})
        report = validate(cx)
        assert any(v[0] == "grading" for v in report.violations)

    def test_dangling_names_detected(self, axes, ring):
        gens = (CappedGenerator("a", 0, 0, 0),)
        cx = make_complex(axes, gens, {"ghost": {"a": ring.mono((1, 1))}})
        report = validate(cx)
        assert any(v[0] == "dangling-column" for v in report.violations)


    def test_matrix_checks_once_per_distinct_matrix(self, monkeypatch, axes, ring):
        # Identical samples carry a grading and two square-zero violations;
        # the tilted w fails filtration at s = 1 only.  The expected list is
        # what a full check at every sample reports.
        from novikit import complexes

        gens = (CappedGenerator("c", 0, 0, 0), CappedGenerator("b", 1, 1, 0),
                CappedGenerator("a", 2, 2, 0), CappedGenerator("w", 1, 5, -5))
        one = ring.one()
        cx = make_complex(axes, gens, {"a": {"b": one}, "b": {"c": one},
                                       "w": {"b": one}})
        calls = []
        inner = complexes._matrix_violations
        monkeypatch.setattr(complexes, "_matrix_violations",
                            lambda *a: calls.append(1) or inner(*a))
        expected = []
        for s in SAMPLES:
            expected += [("grading", (s, "w", "b")),
                         ("square-nonzero", (s, "a", ["c"])),
                         ("square-nonzero", (s, "w", ["c"]))]
        expected.append(("filtration", (F(1), "w", F(1), F(0))))
        assert validate(cx).violations == expected
        assert len(calls) == 1

        # a second, distinct matrix at s = 1/2 is checked on its own
        boundaries = dict(cx.boundaries)
        boundaries[F(1, 2)] = {"b": {"c": one}}
        other = FilteredComplex(axes, GF2, RingMode.INTERVAL, F(10), gens, boundaries)
        calls.clear()
        assert validate(other).violations == (
            expected[:3] + expected[6:])
        assert len(calls) == 2


class TestEll:
    def test_zero_chain(self, elementary):
        assert ell(elementary, {}, F(1, 2)) == NEG_INF

    def test_pure_generator_with_slope(self, axes, ring):
        gens = (CappedGenerator("x", 0, 2, -1),)
        cx = make_complex(axes, gens, {})
        assert ell(cx, basis_chain(cx, "x"), F(1, 2)) == F(3, 2)

    def test_coefficient_shifts_level(self, axes, ring):
        gens = (CappedGenerator("x", 0, 0, 0),)
        cx = make_complex(axes, gens, {})
        chain = {"x": ring.mono((0, 1))}
        assert ell(cx, chain, 1) == -1

    def test_curve_matches_pointwise(self, elementary, ring):
        chain = {"x": ring.one() + ring.mono((0, 2)), "y": ring.mono((1, 0))}
        curve = ell_curve(elementary, chain)
        for i in range(0, 101, 9):
            t = F(i, 100)
            assert curve(t) == ell(elementary, chain, t)

    def test_triangle_property(self, elementary, ring):
        a = {"x": ring.one()}
        b = {"x": ring.mono((0, 1)), "y": ring.one()}
        t = F(1, 2)
        la, lb = ell(elementary, a, t), ell(elementary, b, t)
        lab = ell(elementary, {**{"x": a["x"] + b["x"]}, "y": b["y"]}, t)
        assert lab <= max(la, lb)
        if la != lb:
            assert lab == max(la, lb)

    def test_rejects_out_of_range(self, elementary):
        with pytest.raises(ValueError):
            ell(elementary, {}, 2)


class TestApplyBoundary:
    def test_bottom_generator_closed(self, elementary):
        assert apply_boundary(elementary, 0, basis_chain(elementary, "x")) == {}

    def test_elementary_pair(self, elementary, ring):
        out = apply_boundary(elementary, 0, basis_chain(elementary, "y"))
        assert out == {"x": ring.mono((1, 1))}

    def test_square_zero_on_chains(self, elementary):
        chain = basis_chain(elementary, "y")
        once = apply_boundary(elementary, F(1, 2), chain)
        assert apply_boundary(elementary, F(1, 2), once) == {}

    def test_missing_sample_rejected(self, elementary):
        with pytest.raises(StructureError):
            apply_boundary(elementary, F(1, 3), basis_chain(elementary, "y"))


class TestContinuation:
    def test_identity_quadruple(self, elementary, ring):
        ident = {n: {n: ring.one()} for n in elementary.generator_names}
        data = ContinuationData(0, 1, ident, ident, {}, {}, 0, 0)
        assert verify_continuation(elementary, elementary, data)

    def test_monomial_scaling_with_period_shifts(self, axes, ring):
        gens = (CappedGenerator("x", 0, 0, 0),)
        cx = make_complex(axes, gens, {})
        phi = {"x": {"x": ring.mono((1, 1))}}
        psi = {"x": {"x": ring.mono((-1, -1))}}
        data = ContinuationData(0, 1, phi, psi, {}, {}, -1, 1)
        assert verify_continuation(cx, cx, data)

    def test_broken_homotopy_fails_with_witness(self, elementary, ring):
        ident = {n: {n: ring.one()} for n in elementary.generator_names}
        bad_k = {"x": {"y": ring.mono((2, 2))}}
        data = ContinuationData(0, 1, ident, ident, bad_k, {}, 0, 0)
        report = verify_continuation(elementary, elementary, data)
        assert not report
        assert any(v[0] == "homotopy-s" for v in report.violations)

    def test_shift_violation_detected(self, axes, ring):
        gens = (CappedGenerator("x", 0, 0, 0),)
        cx = make_complex(axes, gens, {})
        phi = {"x": {"x": ring.mono((-1, -1))}}  # raises filtration by 1
        psi = {"x": {"x": ring.mono((1, 1))}}
        data = ContinuationData(0, 1, phi, psi, {}, {}, 0, 0)
        report = verify_continuation(cx, cx, data)
        assert any(v[0] == "shift-phi" for v in report.violations)
