import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novikit import (
    INF,
    LexOrder,
    ModeMismatch,
    Rank2Value,
    RingMode,
    TWeightedOrder,
    VALUE_INF,
    compare_lex,
    compare_t_weighted,
    render_element,
    valuation,
    valuation_at,
)
from novikit.fields import GF2, QQ
from novikit.series import (
    convert_mode,
    min_support_level,
    mode_min_value,
    try_invert,
)
from oracles import valuation_curve

B = (0, 1)


def geometric_sum(ring, direction, n, mode):
    acc = ring.zero(mode=mode)
    for k in range(n + 1):
        acc = acc + ring.mono(tuple(k * c for c in direction), mode=mode)
    return acc


class TestTruncatedArithmetic:
    def test_telescoping_product_inverts_at_one_endpoint(self, ring):
        # (1 - T^B) * sum_{n<=N} T^{nB} telescopes; the tail term has
        # second-period value N+1 > cutoff and is truncated away in
        # omega1 mode, leaving exactly 1.
        n = 12
        assert n + 1 > ring.cutoff
        one = ring.one(mode=RingMode.OMEGA1)
        factor = one - ring.mono(B, mode=RingMode.OMEGA1)
        series = geometric_sum(ring, B, n, RingMode.OMEGA1)
        assert factor * series == one

    def test_telescoping_product_keeps_tail_over_interval(self, ring):
        n = 12
        one = ring.one()
        factor = one - ring.mono(B)
        series = geometric_sum(ring, B, n, RingMode.INTERVAL)
        tail = ring.mono(tuple((n + 1) * c for c in B))
        assert factor * series == one - tail

    def test_absorbing_and_identity(self, ring):
        x = ring.one() + ring.mono((1, 2))
        assert x * ring.zero() == ring.zero()
        assert x * ring.one() == x

    def test_mode_mismatch_rejected(self, ring):
        with pytest.raises(ModeMismatch):
            ring.one() + ring.one(mode=RingMode.OMEGA0)
        with pytest.raises(ModeMismatch):
            ring.one() * ring.one(cutoff=5)
        with pytest.raises(ModeMismatch):
            ring.one() + ring.one(field=QQ)


class TestValuation:
    def test_zero_element(self, ring):
        assert valuation(ring.zero()) == VALUE_INF
        assert valuation_at(ring.zero(), Fraction(1, 3)) == INF

    def test_difference_of_ray_powers(self, ring):
        for j in range(4):
            x = ring.mono((0, j)) - ring.mono((0, j + 1))
            assert valuation(x) == Rank2Value(0, j)

    def test_lex_minimum_over_support(self, ring):
        x = ring.mono((1, 5), field=QQ) + ring.mono((2, 0), field=QQ)
        assert valuation(x) == Rank2Value(1, 5)

    def test_order_ties_ignore_insertion_order(self, ring):
        # at t = 1 the key is (g1, g1): (2, 1) and (0, 1) tie, and the
        # lexicographically least tied pair is the valuation either way
        order = TWeightedOrder(1)
        x = ring.mono((2, 1)) + ring.mono((0, 1))
        y = ring.mono((0, 1)) + ring.mono((2, 1))
        assert x == y and list(x.terms) != list(y.terms)
        assert valuation(x, order) == valuation(y, order) == Rank2Value(0, 1)

    def test_valuation_at_examples(self, ring):
        assert valuation_at(ring.mono(B), Fraction(1, 2)) == Fraction(1, 2)
        x = ring.one() + ring.mono(B)
        for t in (0, Fraction(2, 7), 1):
            assert valuation_at(x, t) == 0

    def test_partially_infinite_pair_forbidden(self):
        with pytest.raises(ValueError):
            Rank2Value(INF, 3)


class TestOrders:
    def test_lex_first_coordinate_dominates(self):
        assert compare_lex(Rank2Value(1, -5), Rank2Value(0, 100)) > 0

    def test_t_weighted_weights(self):
        p, q = Rank2Value(0, 2), Rank2Value(1, 0)
        # weights at t=1/2: 1 vs 1/2
        assert compare_t_weighted(p, q, Fraction(1, 2)) > 0

    def test_t_weighted_tie_broken_by_second(self):
        p, q = Rank2Value(0, 2), Rank2Value(2, 0)
        assert compare_t_weighted(p, q, Fraction(1, 2)) > 0

    def test_zero_weight_refines_lex(self):
        pairs = [Rank2Value(0, 1), Rank2Value(0, 2), Rank2Value(1, 0),
                 Rank2Value(-1, 7)]
        for p in pairs:
            for q in pairs:
                assert (compare_t_weighted(p, q, 0) > 0) == (compare_lex(p, q) > 0)

    def test_infinite_pairs_compare(self):
        assert compare_lex(VALUE_INF, Rank2Value(3, 3)) > 0
        assert compare_t_weighted(VALUE_INF, VALUE_INF, Fraction(1, 2)) == 0

    def test_lex_max_over_product_sets_projects(self):
        # the first coordinate of the lex-max over A1 x A2 is max(A1)
        rng = random.Random(17)
        for _ in range(100):
            a1 = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(rng.randint(1, 6))]
            a2 = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                  for _ in range(rng.randint(1, 6))]
            best = max((x, y) for x in a1 for y in a2)
            assert best[0] == max(a1)
            assert best[1] == max(a2)


def _random_element(ring, rng, field, n_terms=3):
    terms = {}
    for _ in range(n_terms):
        a = (rng.randint(0, 2), rng.randint(0, 2))
        terms[a] = field.sample(rng)
    return ring.zero(field=field).like(terms)


@pytest.mark.parametrize("field", [GF2, QQ], ids=["f2", "q"])
def test_ring_axioms_randomized(ring, field):
    rng = random.Random(7)
    for _ in range(120):
        x = _random_element(ring, rng, field)
        y = _random_element(ring, rng, field)
        z = _random_element(ring, rng, field)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("field", [GF2, QQ], ids=["f2", "q"])
def test_valuation_laws_randomized(ring, field):
    rng = random.Random(11)
    for _ in range(150):
        x = _random_element(ring, rng, field)
        y = _random_element(ring, rng, field)
        vx, vy = valuation(x), valuation(y)
        # multiplicativity on lex-leading terms (support stays under cutoff)
        if not x.is_zero() and not y.is_zero():
            assert valuation(x * y) == vx.add(vy)
        # ultrametric bound, equality when valuations differ
        vsum = valuation(x + y)
        lo = vx if compare_lex(vx, vy) <= 0 else vy
        assert compare_lex(vsum, lo) >= 0
        if compare_lex(vx, vy) != 0:
            assert vsum == lo


def test_min_support_level_and_normalization(ring):
    x = ring.mono((1, 1), field=QQ) + ring.mono((1, 2), field=QQ) \
        + ring.mono((2, 0), field=QQ)
    value, level = min_support_level(x, LexOrder())
    assert value == Rank2Value(1, 1)
    assert level == [(1, 1)]


def test_valuation_at_matches_envelope_curve(ring):
    rng = random.Random(3)
    for _ in range(25):
        x = _random_element(ring, rng, QQ, n_terms=4)
        if x.is_zero():
            continue
        curve = valuation_curve([ring.system.pair(a) for a in x.terms])
        for i in range(101):
            t = Fraction(i, 100)
            assert curve(t) == valuation_at(x, t)
        slopes = [s for s, _ in curve.pieces]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))


class TestInversion:
    def test_one_sided_unit(self, ring):
        x = ring.one(mode=RingMode.OMEGA1) - ring.mono(B, mode=RingMode.OMEGA1)
        inv = try_invert(x)
        assert inv is not None
        assert x * inv == ring.one(mode=RingMode.OMEGA1)
        assert try_invert(convert_mode(x, RingMode.OMEGA0)) is None
        assert try_invert(convert_mode(x, RingMode.INTERVAL)) is None

    def test_monomials_always_invert(self, ring):
        x = ring.mono((2, 1), field=QQ, coeff=Fraction(3, 2))
        inv = try_invert(x)
        assert inv is not None and x * inv == ring.one(field=QQ)

    def test_mode_min_value(self, ring):
        x = ring.mono((2, 1)) + ring.mono((0, 3))
        assert mode_min_value(x, RingMode.OMEGA0) == 0
        assert mode_min_value(x, RingMode.OMEGA1) == 1
        assert mode_min_value(x, RingMode.INTERVAL) == 0


def test_canonical_rendering(ring):
    x = ring.mono((2, 0), field=QQ, coeff=Fraction(-1, 2)) \
        + ring.mono((0, 1), field=QQ) + ring.one(field=QQ)
    assert render_element(x) == "1/1*T^(0,0) + 1/1*T^(0,1) + -1/2*T^(2,0)"
    assert render_element(ring.zero()) == "0"
