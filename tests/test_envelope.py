import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from novikit.envelope import PiecewiseAffine, filtration_curve, pointwise_min
from oracles import constant_curve, pointwise_max, valuation_curve

F = Fraction


class TestValuationCurve:
    def test_single_point_constant(self):
        curve = valuation_curve([(0, 0)])
        assert curve == constant_curve(0)

    def test_two_line_crossing(self):
        curve = valuation_curve([(0, 1), (1, 0)])
        assert curve.knots == (0, F(1, 2), 1)
        assert curve(0) == 0 and curve(F(1, 2)) == F(1, 2) and curve(1) == 0

    def test_crossing_at_two_fifths(self):
        curve = valuation_curve([(0, 3), (2, 0)])
        assert F(2, 5) in curve.knots
        assert curve(F(2, 5)) == F(6, 5)
        assert curve(0) == 0 and curve(1) == 0

    def test_matches_direct_min_on_random_clouds(self):
        rng = random.Random(12)
        for _ in range(200):
            pts = [(F(rng.randint(-8, 8), rng.randint(1, 3)),
                    F(rng.randint(-8, 8), rng.randint(1, 3)))
                   for _ in range(rng.randint(1, 20))]
            curve = valuation_curve(pts)
            for i in range(0, 101, 4):
                t = F(i, 100)
                direct = min((1 - t) * g0 + t * g1 for g0, g1 in pts)
                assert curve(t) == direct

    def test_concavity_slopes_decrease(self):
        rng = random.Random(99)
        for _ in range(50):
            pts = [(F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))
                   for _ in range(rng.randint(2, 10))]
            curve = valuation_curve(pts)
            slopes = [s for s, _ in curve.pieces]
            assert all(a > b for a, b in zip(slopes, slopes[1:])) or len(slopes) == 1

    def test_continuity_at_breakpoints(self):
        curve = valuation_curve([(0, 3), (2, 0), (1, 1), (-1, 4)])
        for i in range(len(curve.pieces) - 1):
            k = curve.knots[i + 1]
            s0, b0 = curve.pieces[i]
            s1, b1 = curve.pieces[i + 1]
            assert b0 + s0 * k == b1 + s1 * k


class TestFiltrationCurve:
    def test_single_trivial_generator(self):
        curve = filtration_curve([((1, -2), [(0, 0)])])
        assert curve == PiecewiseAffine((0, 1), ((-2, 1),))

    def test_max_of_constants(self):
        curve = filtration_curve([((0, 0), [(0, 0)]), ((1, 0), [(0, 0)])])
        assert curve == constant_curve(1)

    def test_offset_minus_ray_term(self):
        curve = filtration_curve([((0, 0), [(0, 0), (0, 1)])])
        assert curve == constant_curve(0)


def test_pointwise_min_max():
    a = valuation_curve([(0, 2)])
    b = valuation_curve([(1, 0)])
    lo = pointwise_min([a, b])
    hi = pointwise_max([a, b])
    for i in range(0, 11):
        t = F(i, 10)
        assert lo(t) == min(a(t), b(t))
        assert hi(t) == max(a(t), b(t))


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                min_size=1, max_size=12))
def test_envelope_is_pointwise_min(pts):
    curve = valuation_curve(pts)
    for i in (0, 13, 50, 87, 100):
        t = F(i, 100)
        assert curve(t) == min((1 - t) * g0 + t * g1 for g0, g1 in set(pts))
