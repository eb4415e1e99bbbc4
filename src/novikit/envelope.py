"""Exact lower/upper envelopes of affine functions on [0, 1].

A point (g0, g1) of the period plane induces the affine function
``t -> (1-t)*g0 + t*g1``; the minimum over a finite point cloud is the
interpolated valuation, a concave piecewise-affine function of t.  With
per-generator affine action offsets the corresponding upper envelope is
the filtration level.  All pivots and breakpoints are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Point = tuple[Fraction, Fraction]
Line = tuple[Fraction, Fraction]  # (slope, intercept): f(t) = intercept + slope*t


class EmptyCloud(ValueError):
    pass


class PointCloud:
    """A finite nonempty set of distinct rational points (g0, g1)."""

    __slots__ = ("points",)

    def __init__(self, points: Iterable):
        pts = sorted({(Fraction(a), Fraction(b)) for a, b in points})
        if not pts:
            raise EmptyCloud("point cloud must be nonempty")
        object.__setattr__(self, "points", tuple(pts))

    def __setattr__(self, *args):
        raise AttributeError("PointCloud is immutable")


def _cloud_points(cloud) -> tuple[Point, ...]:
    if isinstance(cloud, PointCloud):
        return cloud.points
    return PointCloud(cloud).points


class PiecewiseAffine:
    """Continuous piecewise-affine function on [0, 1].

    ``knots`` are the breakpoints including both endpoints 0 and 1;
    ``pieces[i]`` is the (slope, intercept) of the affine piece on
    [knots[i], knots[i+1]].  Adjacent pieces agree at the shared knot.
    """

    __slots__ = ("knots", "pieces")

    def __init__(self, knots: Iterable, pieces: Iterable):
        ks = tuple(Fraction(k) for k in knots)
        ps = tuple((Fraction(s), Fraction(b)) for s, b in pieces)
        object.__setattr__(self, "knots", ks)
        object.__setattr__(self, "pieces", ps)
        if len(ks) < 2 or ks[0] != 0 or ks[-1] != 1:
            raise ValueError("knots must start at 0 and end at 1")
        if any(ks[i] >= ks[i + 1] for i in range(len(ks) - 1)):
            raise ValueError("knots must be strictly increasing")
        if len(ps) != len(ks) - 1:
            raise ValueError("need one piece per knot interval")
        for i in range(len(ps) - 1):
            s0, b0 = ps[i]
            s1, b1 = ps[i + 1]
            k = ks[i + 1]
            if b0 + s0 * k != b1 + s1 * k:
                raise ValueError(f"discontinuity at knot {k}")

    def __setattr__(self, *args):
        raise AttributeError("PiecewiseAffine is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not PiecewiseAffine:
            return NotImplemented
        return self.knots == other.knots and self.pieces == other.pieces

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        if not (0 <= t <= 1):
            raise ValueError(f"t={t} outside [0, 1]")
        for i in range(len(self.pieces)):
            if t <= self.knots[i + 1]:
                s, b = self.pieces[i]
                return b + s * t
        raise AssertionError("unreachable")

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return self.knots

    def negate(self) -> "PiecewiseAffine":
        return PiecewiseAffine(self.knots, tuple((-s, -b) for s, b in self.pieces))

    def piece_at(self, t) -> Line:
        """The affine piece governing t (right piece at interior knots)."""
        t = Fraction(t)
        for i in range(len(self.pieces)):
            if t < self.knots[i + 1]:
                return self.pieces[i]
        return self.pieces[-1]


def _merge_collinear(knots: list[Fraction], pieces: list[Line]) -> PiecewiseAffine:
    mk = [knots[0]]
    mp: list[Line] = []
    for k, p in zip(knots[1:], pieces):
        if mp and mp[-1] == p:
            mk[-1] = k
        else:
            mp.append(p)
            mk.append(k)
    return PiecewiseAffine(tuple(mk), tuple(mp))


def lower_envelope(lines: Sequence[Line]) -> PiecewiseAffine:
    """Exact pointwise minimum of affine functions, restricted to [0, 1]."""
    if not lines:
        raise ValueError("need at least one line")
    best: dict[Fraction, Fraction] = {}
    for s, b in lines:
        s, b = Fraction(s), Fraction(b)
        if s not in best or b < best[s]:
            best[s] = b
    # Slopes descending: the minimum sweeps from steepest to shallowest.
    cands = sorted(best.items(), reverse=True)
    hull: list[Line] = []

    def crossing(p: Line, q: Line) -> Fraction:
        # first t where q (smaller slope) goes below p
        return (q[1] - p[1]) / (p[0] - q[0])

    for line in cands:
        while hull:
            if len(hull) == 1:
                if crossing(hull[-1], line) <= 0:
                    hull.pop()
                    continue
                break
            if crossing(hull[-1], line) <= crossing(hull[-2], hull[-1]):
                hull.pop()
                continue
            break
        hull.append(line)
    # Drop lines that only win beyond t = 1.
    while len(hull) > 1 and crossing(hull[-2], hull[-1]) >= 1:
        hull.pop()

    knots = [Fraction(0)]
    for i in range(len(hull) - 1):
        knots.append(crossing(hull[i], hull[i + 1]))
    knots.append(Fraction(1))
    pieces = [(s, b) for s, b in hull]
    return _merge_collinear(knots, pieces)


def upper_envelope(lines: Sequence[Line]) -> PiecewiseAffine:
    """Exact pointwise maximum of affine functions on [0, 1]."""
    return lower_envelope([(-s, -b) for s, b in lines]).negate()


def _curve_lines_on_grid(curves: Sequence[PiecewiseAffine]):
    knots = sorted({k for c in curves for k in c.knots})
    segments = []
    for i in range(len(knots) - 1):
        mid = (knots[i] + knots[i + 1]) / 2
        segments.append((knots[i], knots[i + 1], [c.piece_at(mid) for c in curves]))
    return knots, segments


def pointwise_min(curves: Sequence[PiecewiseAffine]) -> PiecewiseAffine:
    """Exact pointwise minimum of piecewise-affine curves on [0, 1]."""
    if not curves:
        raise ValueError("need at least one curve")
    _, segments = _curve_lines_on_grid(curves)
    out_knots = [Fraction(0)]
    out_pieces: list[Line] = []

    def value(line: Line, t: Fraction) -> Fraction:
        return line[1] + line[0] * t

    for lo, hi, lines in segments:
        cur = lo
        while cur < hi:
            # The winner immediately to the right of cur: least value, ties
            # by the smaller slope, which keeps it winning.
            best = min(lines, key=lambda ln: (value(ln, cur), ln[0]))
            nxt = hi
            for ln in lines:
                ds = ln[0] - best[0]
                if ds == 0:
                    continue
                tx = (best[1] - ln[1]) / ds
                if cur < tx < nxt and ds < 0:
                    nxt = tx
            out_pieces.append(best)
            out_knots.append(nxt)
            cur = nxt
    return _merge_collinear(out_knots, out_pieces)


def min_intercept(cloud, lam) -> tuple[Fraction, Point]:
    """Minimal value of lam*g0 + g1 over the cloud and an attaining point.

    This is the minimal y-intercept over the lines of slope -lam through
    the cloud's points.  Ties go to the lexicographically least point.
    """
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("slope parameter must be nonnegative")
    pts = _cloud_points(cloud)
    best_val = None
    best_pt = None
    for p in pts:
        v = lam * p[0] + p[1]
        if best_val is None or v < best_val or (v == best_val and p < best_pt):
            best_val, best_pt = v, p
    return best_val, best_pt


def stable_point(cloud) -> Point:
    """The point optimal for every sufficiently steep slope: the lex-min."""
    return min(_cloud_points(cloud))


def stability_threshold(cloud) -> Fraction:
    """A slope bound beyond which min_intercept's optimizer is the stable point."""
    pts = _cloud_points(cloud)
    p0, p1 = min(pts)
    thr = Fraction(0)
    for q0, q1 in pts:
        if q0 > p0:
            thr = max(thr, (p1 - q1) / (q0 - p0))
    return thr


def filtration_curve(actions: Sequence[tuple[tuple, Iterable]]) -> PiecewiseAffine:
    """Upper envelope of action offsets minus period values.

    Each item is ``((intercept, slope), cloud)``: the generator's affine
    action offset eta(t) = intercept + slope*t and the period pairs of its
    coefficient's support.  The result is the filtration level, i.e.
    max over terms of eta_i(t) - ((1-t)*g0 + t*g1).
    """
    if not actions:
        raise ValueError("need at least one term")
    lines: list[Line] = []
    for (intercept, slope), cloud in actions:
        intercept, slope = Fraction(intercept), Fraction(slope)
        for g0, g1 in _cloud_points(cloud):
            lines.append((slope - (g1 - g0), intercept - g0))
    return upper_envelope(lines)
