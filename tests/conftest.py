from fractions import Fraction

import pytest

from novikit import NovikovRing, PeriodSystem, RingMode, monomial, unit, zero
from novikit.fields import GF2, QQ


@pytest.fixture
def axes():
    """Rank-2 lattice whose period pairs are just the coordinates."""
    return PeriodSystem(2, (1, 0), (0, 1))


@pytest.fixture
def ring(axes):
    """Convenience constructors over the axes system, interval mode, cutoff 10."""

    class Ring:
        system = axes
        field = GF2
        mode = RingMode.INTERVAL
        cutoff = Fraction(10)
        base = NovikovRing(axes, GF2, RingMode.INTERVAL, Fraction(10))

        def of(self, mode=None, field=None, cutoff=None):
            """The base ring, or one with the given parts replaced."""
            if mode is None and field is None and cutoff is None:
                return self.base
            return NovikovRing(self.system, field or self.field, mode or self.mode,
                               cutoff if cutoff is not None else self.cutoff)

        def mono(self, exponent, coeff=1, mode=None, field=None, cutoff=None):
            return monomial(self.of(mode, field, cutoff), exponent, coeff)

        def one(self, mode=None, field=None, cutoff=None):
            return unit(self.of(mode, field, cutoff))

        def zero(self, mode=None, field=None, cutoff=None):
            return zero(self.of(mode, field, cutoff))

    return Ring()


@pytest.fixture(scope="session")
def zero_entry_texts():
    """A generated random model's file, and a copy whose s=1/2 section adds
    the entry ``x0 x1 : 1 9,9 ; 1 9,9``, whose terms cancel over f2."""
    from novikit.fileformat import emit
    from novikit.models import ModelSpec, gen_random

    plain = emit(gen_random(ModelSpec(seed=4)))
    head = "[boundary s=1/2]\n"
    zeroed = plain.replace(head, head + "x0 x1 : 1 9,9 ; 1 9,9\n")
    assert zeroed != plain
    return plain, zeroed
