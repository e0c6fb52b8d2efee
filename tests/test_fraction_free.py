"""The disk kernels run on integers: ``exactgeom.circle_of`` and
``delaunay.witness_disk`` make no ``Fraction`` arithmetic or comparison.

A lift used to cost about ten ``Fraction`` operations on 100-400-bit
numbers, each with a gcd normalisation. The guard patches ``Fraction``'s
arithmetic and comparison operators with counters and runs both kernels on
every edge of a few point sets; only the constructor, which builds the
three ``Fraction``s of a returned ``Disk``, may run.
"""

from fractions import Fraction

import pytest

from dtough import build
from dtough.delaunay import witness_disk
from dtough.exactgeom import circle_of
from dtough.generate import convex_points

import helpers

OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__abs__",
    "__lt__", "__le__", "__gt__", "__ge__",
)


@pytest.fixture
def fraction_ops(monkeypatch):
    """A list that records the name of every ``Fraction`` operator called."""
    calls: list[str] = []
    for name in OPERATORS:
        real = getattr(Fraction, name)

        def counting(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(Fraction, name, counting)
    return calls


def _triangulations():
    tris = [helpers.random_tri(n, seed)[1] for n in (3, 8, 14) for seed in range(2)]
    tris += [build(convex_points(9, 1)), helpers.fan_tri(6)]
    fan = helpers.fan(5)
    tris.append(build(fan.points + fan.blockers))
    return tris


def test_the_counters_see_fraction_arithmetic(fraction_ops):
    # the patch is live: the Fraction oracles of both kernels trip it
    t = helpers.random_tri(8, 0)[1]
    u, v = t.edges[0]
    helpers.circle_of_fraction(helpers.witness_disk_fraction(t, u, v), t.scale)
    assert {"__add__", "__mul__", "__truediv__", "__lt__"} <= set(fraction_ops)


def test_disk_kernels_make_no_fraction_arithmetic(fraction_ops):
    tris = _triangulations()  # built before counting: build is not a disk kernel
    fraction_ops.clear()
    for t in tris:
        for u, v in t.edges:
            d = witness_disk(t, u, v)
            circle_of(d, t.scale)
            circle_of(d, 3 * 2**20)
    assert fraction_ops == []
