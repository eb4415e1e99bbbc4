"""Reference curves the tests compare novikit's envelopes against.

Nothing in the package needs these; each is a one-line composition of
what it does keep, so a test can state a curve without a second
envelope algorithm.
"""

from novikit.envelope import PiecewiseAffine, PointCloud, lower_envelope, pointwise_min


def constant_curve(value) -> PiecewiseAffine:
    return PiecewiseAffine((0, 1), ((0, value),))


def valuation_curve(cloud) -> PiecewiseAffine:
    """Lower envelope of t -> (1-t)*g0 + t*g1 over a finite point cloud."""
    return lower_envelope([(g1 - g0, g0) for g0, g1 in PointCloud(cloud).points])


def pointwise_max(curves) -> PiecewiseAffine:
    """max(f, g, ...) as -min(-f, -g, ...)."""
    return pointwise_min([c.negate() for c in curves]).negate()
