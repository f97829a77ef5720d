"""Eventually periodic rational streams: canonical form, values, and the
tests' level-set reference."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chargemdp.periodic_sets import density, member
from chargemdp.streams import RationalStream, _canonical, stream

from conftest import (cycle_mean, indicator, periodic_sets, pointwise_leq, rational_streams,
                      ref_level_sets, stream_values, superlevel_set)


def test_stream_canonical_cycle():
    f = stream([], [1, 0, 1, 0])
    assert f.cycle == (Fraction(1), Fraction(0))
    assert f.preperiod == ()


def test_stream_absorbs_preperiod():
    # a head value matching the cycle tail rotates into the cycle
    f = stream([1], [0, 1])
    assert f == stream([], [1, 0])


def test_stream_requires_cycle():
    with pytest.raises(ValueError):
        stream([1, 2], [])


def test_stream_values_are_plain_fractions():
    class Quarter(Fraction):
        pass

    f = stream([1, "1/3"], [Fraction(1, 2), Quarter(1, 4)])
    assert all(type(v) is Fraction for v in f.preperiod + f.cycle)
    assert f == stream([Fraction(1), Fraction(1, 3)], ["1/2", 0.25])


def test_values():
    assert stream_values(stream([5], [1, 2, 3]), 7) == [5, 1, 2, 3, 1, 2, 3]
    assert stream_values(stream([7, 0], [2, -1]), 7) == [7, 0, 2, -1, 2, -1, 2]


def test_values_rejects_a_negative_count():
    # a negative n used to slice from the end: [1, 2] for n = -1
    f = stream([1, 2, 3], [4, 5])
    assert stream_values(f, 0) == []
    with pytest.raises(ValueError, match="got -1$"):
        stream_values(f, -1)


def test_cycle_mean():
    assert cycle_mean(stream([9], [1, 2, 3, 6])) == 3
    assert cycle_mean(stream([], [Fraction(2, 7)])) == Fraction(2, 7)


def ref_canonical(pre, cyc):
    """Smallest dividing cycle length first, then one rotation per
    absorbed preperiod item."""
    q = len(cyc)
    for d in range(1, q + 1):
        if q % d == 0 and all(cyc[j] == cyc[j % d] for j in range(q)):
            cyc = list(cyc[:d])
            break
    pre = list(pre)
    while pre and pre[-1] == cyc[-1]:
        cyc = [cyc[-1]] + cyc[:-1]
        pre.pop()
    return tuple(pre), tuple(cyc)


@given(st.lists(st.integers(0, 1), max_size=12),
       st.sampled_from([1, 2, 3, 4, 6, 8, 12]).flatmap(
           lambda q: st.lists(st.integers(0, 1), min_size=q, max_size=q)),
       st.integers(1, 4))
def test_canonical_matches_reference(pre, block, repeat):
    # 0/1 items make repeated blocks and absorbable preperiods common
    cyc = block * repeat
    assert _canonical(pre, cyc) == ref_canonical(pre, cyc)
    assert _canonical(tuple(pre), tuple(cyc)) == ref_canonical(pre, cyc)


@given(rational_streams())
def test_canonical_idempotence(f):
    assert stream(f.preperiod, f.cycle) == f


@given(rational_streams())
def test_level_sets_partition(f):
    levels = ref_level_sets(f)
    assert sum(density(m) for _, m in levels) == 1
    for t, v in enumerate(stream_values(f, 39), 1):
        hits = [c for c, m in levels if member(m, t)]
        assert hits == [v]


@given(periodic_sets())
def test_indicator_round_trip(s):
    f = indicator(s)
    assert superlevel_set(f, 0) == s
    for t, v in enumerate(stream_values(f, 39), 1):
        assert v == (1 if member(s, t) else 0)


@given(rational_streams(), rational_streams())
def test_pointwise_leq_exhaustive(f, g):
    expected = all(a <= b for a, b in zip(stream_values(f, 79), stream_values(g, 79)))
    assert pointwise_leq(f, g) == expected


@given(rational_streams(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_superlevel_membership(f, thr):
    w = superlevel_set(f, thr)
    for t, v in enumerate(stream_values(f, 39), 1):
        assert member(w, t) == (v > thr)
