import random
from fractions import Fraction

import pytest

from novikit import (
    CappedGenerator,
    ContinuationData,
    FilteredComplex,
    NEG_INF,
    NovikovRing,
    RingMode,
    apply_boundary,
    basis_chain,
    ell,
    ell_curve,
    validate,
    verify_continuation,
)
from novikit.complexes import StructureError, apply_matrix, compose_matrices
from novikit.fields import GF2, QQ, field_by_name
from novikit.models import ModelSpec, gen_elementary, gen_random, line_family
from novikit.series import ModeMismatch, NovikovElement
from oracles import reference_product

F = Fraction
SAMPLES = (F(0), F(1, 2), F(1))


def make_complex(axes, gens, matrix, field=GF2, cutoff=F(10)):
    boundaries = {s: {c: dict(col) for c, col in matrix.items()} for s in SAMPLES}
    return FilteredComplex(NovikovRing(axes, field, RingMode.INTERVAL, cutoff), gens, boundaries)


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
        other = FilteredComplex(NovikovRing(axes, GF2, RingMode.INTERVAL, F(10)), gens, boundaries)
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


def _reference_filtration(cx, samples):
    """The filtration violations of ``validate``, sample by sample from the
    public ``ell`` and ``action_at``."""
    found = []
    for s in samples:
        for col, column in cx.boundaries[s].items():
            image = {row: e for row, e in column.items() if not e.is_zero()}
            if image:
                level, own = ell(cx, image, s), cx.action_at(col, s)
                if not level < own:
                    found.append(("filtration", (s, col, level, own)))
    return found


def _with_gens(cx, gens, boundaries=None):
    return FilteredComplex(cx.ring, gens,
                           cx.boundaries if boundaries is None else boundaries)


def _tilted(cx, rng):
    """cx with three generators' actions moved, so that columns fail the
    filtration check at some samples and pass at others."""
    gens = list(cx.generators)
    for i in rng.sample(range(len(gens)), 3):
        g = gens[i]
        gens[i] = CappedGenerator(g.name, g.degree, g.action0 + F(rng.randint(-8, 8), 2),
                                  g.action_slope + F(rng.randint(-16, 16), 3))
    return _with_gens(cx, gens)


def _copied(matrix, reverse=False):
    """An equal matrix with no entry object in common, columns optionally
    in reverse order."""
    cols = list(matrix.items())
    return {col: {row: NovikovElement(e.ring, dict(e.terms)) for row, e in column.items()}
            for col, column in (cols[::-1] if reverse else cols)}


def _oracle_models():
    for seed, pairs, field, density in ((1, 3, "f2", F(1, 2)), (2, 4, "q", F(1, 2)),
                                        (5, 5, "q", F(1, 4)), (7, 6, "f2", F(1, 4))):
        yield gen_random(ModelSpec(seed=seed, n_pairs=pairs, n_closed=2,
                                   field_name=field, density=density))
    for seed, field in ((2, "f2"), (3, "q")):
        base = gen_elementary(ModelSpec(seed=seed, n_pairs=3, n_closed=2,
                                        lattice_rank=0, field_name=field))
        yield line_family(base, [F(i % 5 - 2, 8) for i in range(len(base.generators))])


class TestFiltrationOracle:
    """``validate``'s integer filtration check against ``ell`` per sample."""

    @pytest.mark.parametrize("k", range(6))
    def test_models_and_injected_violations(self, k):
        cx = list(_oracle_models())[k]
        assert validate(cx).violations == _reference_filtration(cx, cx.samples) == []
        rng = random.Random(k)
        hits = 0
        for _ in range(6):
            bad = _tilted(cx, rng)
            want = _reference_filtration(bad, bad.samples)
            got = validate(bad).violations
            assert got == want
            assert all(type(v) is F for _, (_, _, *levels) in got for v in levels)
            hits += bool(want) and len({w[1][0] for w in want}) < len(bad.samples)
        assert hits  # some tilt fails at some samples only

    def test_new_denominators_and_copied_matrices(self):
        cx = next(_oracle_models())
        m = cx.boundaries[F(0)]
        boundaries = {F(0): m, F(1, 3): m, F(5, 7): _copied(m),
                      F(11, 12): _copied(m, reverse=True), F(1): _copied(m)}
        rng = random.Random(3)
        for _ in range(4):
            bad = _tilted(_with_gens(cx, cx.generators, boundaries), rng)
            assert bad.boundaries[F(5, 7)] == m
            want = _reference_filtration(bad, bad.samples)
            assert validate(bad).violations == want
            grid = [F(11, 12), F(1, 3), F(1, 2)]
            assert validate(bad, grid).violations == (
                [("missing-sample", F(1, 2))] + _reference_filtration(bad, grid[:2]))

    def test_sample_outside_unit_interval_raises_as_ell_does(self, axes, ring):
        gens = (CappedGenerator("a", 0, 0, 0), CappedGenerator("b", 1, 1, 0))
        cx = FilteredComplex(NovikovRing(axes, GF2, RingMode.INTERVAL, F(10)), gens,
                             {F(2): {"b": {"a": ring.one()}}})
        with pytest.raises(ValueError, match=r"t=2 outside \[0, 1\]"):
            validate(cx)
        empty = FilteredComplex(NovikovRing(axes, GF2, RingMode.INTERVAL, F(10)), gens, {F(2): {}})
        assert validate(empty)

    def test_dangling_row_is_reported(self, axes, ring):
        # A nonzero entry in a row that names no generator is reported, and
        # the column's filtration is taken over its other rows.
        gens = (CappedGenerator("a", 0, 0, 0), CappedGenerator("b", 1, 1, 0),
                CappedGenerator("c", 1, 1, 0), CappedGenerator("w", 1, 0, 0))
        one = ring.one()
        matrix = {"b": {"a": one, "ghost": one}, "c": {"ghost": one},
                  "w": {"ghost": one, "a": one}}
        cx = make_complex(axes, gens, matrix)
        expected = []
        for s in SAMPLES:
            expected += [("dangling-row", (s, col, "ghost")) for col in "bcw"]
            expected.append(("filtration", (s, "w", F(0), F(0))))
        assert validate(cx).violations == expected
        known = make_complex(axes, gens, {c: {r: e for r, e in col.items() if r != "ghost"}
                                          for c, col in matrix.items()})
        assert _reference_filtration(known, SAMPLES) == expected[3::4]


def _reference_square(cx, s):
    """The square-zero violations of ``validate`` at s, from the element
    product applied twice to each generator."""
    matrix, names = cx.boundaries[s], set(cx.generator_names)
    found = []
    for col in matrix:
        if col in names:
            second = reference_product(matrix, reference_product(matrix, basis_chain(cx, col)))
            if second:
                found.append(("square-nonzero", (s, col, sorted(second))))
    return found


class TestSquareZeroOracle:
    """``validate``'s square-zero check, which sums raw products and
    truncates once, against element products."""

    @pytest.mark.parametrize("field", [GF2, QQ], ids=["f2", "q"])
    def test_random_matrices(self, axes, field):
        # Exponents (x, x) or (x, x + 1) with x <= 2 against cutoff 3: on
        # these 240 columns, 19 have a row whose products are nonzero
        # before truncation and zero after.
        rng = random.Random(7)
        ring3 = NovikovRing(axes, field, RingMode.INTERVAL, F(3))
        gens = [CappedGenerator(f"g{i}", i % 3, 0, 0) for i in range(6)]
        names = [g.name for g in gens]
        hits = 0
        for _ in range(40):
            matrix = {}
            for col in names:
                column = {}
                for row in rng.sample(names, rng.randint(0, 3)):
                    terms = {}
                    for _ in range(rng.randint(0, 2)):
                        x = rng.randint(0, 2)
                        terms[(x, x + rng.randint(0, 1))] = rng.choice((1, -1))
                    column[row] = NovikovElement(ring3, terms)
                matrix[col] = column
            cx = FilteredComplex(ring3, gens, {F(0): matrix})
            want = _reference_square(cx, F(0))
            got = [v for v in validate(cx).violations if v[0] == "square-nonzero"]
            assert got == want
            hits += len(want)
        assert 0 < hits < 40 * len(gens) / 2

    def test_models_are_square_zero(self):
        for cx in _oracle_models():
            for s in cx.samples:
                assert _reference_square(cx, s) == []
            assert not [v for v in validate(cx).violations if v[0] == "square-nonzero"]


class TestProductOracle:
    """``apply_matrix`` and ``compose_matrices``, which sum raw products and
    build one element per row, against ``NovikovElement`` ``*`` and ``+``."""

    NAMES = ("a", "b", "c", "d")

    @staticmethod
    def _element(rng, axes, field, mode):
        # Coordinates in [-1, 3] against cutoff 2: every mode keeps some
        # products and drops others.
        terms = {(rng.randint(-1, 3), rng.randint(-1, 3)): field.sample_nonzero(rng)
                 for _ in range(rng.randint(0, 3))}
        return NovikovElement(NovikovRing(axes, field, mode, F(2)), terms)

    def _matrix(self, rng, axes, field, mode):
        return {c: {r: self._element(rng, axes, field, mode)
                    for r in rng.sample(self.NAMES, rng.randint(0, 3))}
                for c in rng.sample(self.NAMES, rng.randint(0, 4))}

    @pytest.mark.parametrize("field", [GF2, field_by_name("f3"), QQ], ids=["f2", "f3", "q"])
    @pytest.mark.parametrize("mode", list(RingMode), ids=[m.value for m in RingMode])
    def test_random_products(self, axes, field, mode):
        rng = random.Random(11)
        ring2 = NovikovRing(axes, field, mode, F(2))
        kept = dropped = cancelled = 0
        for _ in range(80):
            matrix, inner = (self._matrix(rng, axes, field, mode) for _ in range(2))
            chain = {c: e for c in rng.sample(self.NAMES, rng.randint(0, 4))
                     if not (e := self._element(rng, axes, field, mode)).is_zero()}
            got, want = apply_matrix(matrix, chain), reference_product(matrix, chain)
            assert list(got.items()) == list(want.items())  # rows in the same order
            assert apply_matrix(matrix, [(c, x.terms) for c, x in chain.items()]) == want
            composed = {c: p for c, col in inner.items() if (p := reference_product(matrix, col))}
            assert compose_matrices(matrix, inner) == composed
            for c, x in chain.items():
                for entry in matrix.get(c, {}).values():
                    for a in entry.terms:
                        for b in x.terms:
                            if ring2.keeps((a[0] + b[0], a[1] + b[1])):
                                kept += 1
                            else:
                                dropped += 1
            rows = {r for c in chain for r in matrix.get(c, {})}
            cancelled += len(rows) - len(want)
        assert kept and dropped and cancelled

    def test_empty_chains_and_columns(self, ring):
        one = ring.one()
        assert apply_matrix({"a": {"b": one}}, {}) == {}
        assert apply_matrix({}, {"a": one}) == {}
        assert apply_matrix({"a": {}}, {"a": one}) == {}
        assert apply_matrix({"a": {"b": one}}, {"a": ring.zero()}) == {}
        assert compose_matrices({"a": {"b": one}}, {"x": {}, "y": {"c": one}}) == {}

    def test_raw_coefficient_truncates_only_the_products(self, ring):
        # T^(12,12) lies above the cutoff 10; its product with T^(-5,-5)
        # does not, its product with T^(1,1) does.
        entry = ring.mono((-5, -5)) + ring.mono((1, 1))
        got = apply_matrix({"a": {"b": entry}}, [("a", {(12, 12): 1})])
        assert got == {"b": entry.shift((12, 12))} == {"b": ring.mono((7, 7))}

    @pytest.mark.parametrize("other", [
        {"mode": RingMode.OMEGA0}, {"field": QQ}, {"cutoff": F(9)},
    ], ids=["mode", "field", "cutoff"])
    def test_mixed_rings_raise(self, ring, other):
        one, alien = ring.one(), ring.one(**other)
        for matrix, chain in (({"a": {"b": one}}, {"a": alien}),
                              ({"a": {"b": one}, "c": {"b": alien}}, {"a": one, "c": one})):
            for product in (apply_matrix, reference_product):
                with pytest.raises(ModeMismatch):
                    product(matrix, chain)

    @pytest.mark.parametrize("where", ["row", "dangling-row", "reached-dangling-column"])
    def test_validate_rejects_an_entry_of_another_ring(self, axes, ring, where):
        gens = (CappedGenerator("a", 0, 0, 0), CappedGenerator("b", 1, 1, 0))
        one, alien = ring.one(), ring.one(mode=RingMode.OMEGA1)
        matrix = {"row": {"b": {"a": alien}},
                  "dangling-row": {"b": {"a": one, "ghost": alien}},
                  "reached-dangling-column": {"b": {"a": one, "ghost": one},
                                              "ghost": {"a": alien}}}[where]
        with pytest.raises(ModeMismatch):
            validate(make_complex(axes, gens, matrix))
