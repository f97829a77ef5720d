"""Value semantics of the library's immutable records.

Each class is listed with its fields in declaration order.  A record
equals exactly the records of its own class with equal fields, hashes as
the tuple of its fields, prints as ``Name(field=value, ...)`` (the set
class keeps its own form), refuses assignment and deletion, and survives
keyword construction, ``copy``, ``deepcopy`` and ``pickle``.
"""

import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargemdp.blackwell import Poly, RationalFunction
from chargemdp.charges import (CValue, DyadicLimit, Frequency, Geometric, Mix,
                               PointMass, Restrict)
from chargemdp.mdp import Mdp, Problem, random_mdp
from chargemdp.periodic_sets import EventuallyPeriodicSet, multiples, odds
from chargemdp.streams import RationalStream

from conftest import periodic_sets, rational_of, rational_streams

FIELDS = {
    EventuallyPeriodicSet: ("pre_len", "pre_mask", "period", "res_mask"),
    RationalStream: ("preperiod", "cycle"),
    Frequency: (),
    Geometric: ("beta",),
    PointMass: ("stage",),
    Restrict: ("base", "window"),
    DyadicLimit: (),
    Mix: ("parts",),
    CValue: ("exact_value",),
    Poly: ("coeffs",),
    RationalFunction: ("ints_num", "ints_den"),
    Problem: ("kind", "where"),
    Mdp: ("states", "initial", "actions", "rows"),
}

_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=5)
_betas = st.builds(lambda n, d: Fraction(n, n + d), st.integers(1, 9), st.integers(1, 9))
_simple_charges = st.one_of(
    st.just(Frequency()), st.just(DyadicLimit()),
    _betas.map(Geometric), st.integers(1, 40).map(PointMass))


@st.composite
def _mixes(draw):
    parts = draw(st.lists(st.tuples(st.integers(1, 5), _simple_charges), min_size=1, max_size=3))
    total = sum(w for w, _ in parts)
    return Mix(tuple((Fraction(w, total), c) for w, c in parts))


@st.composite
def _rational_functions(draw):
    num = draw(st.lists(_fractions, max_size=3))
    den = draw(st.lists(_fractions, min_size=1, max_size=3).filter(any))
    return rational_of(Poly.of(*num), Poly.of(*den))


VALUES = {
    EventuallyPeriodicSet: periodic_sets(max_preperiod=4, max_period=6),
    RationalStream: rational_streams(),
    Frequency: st.just(Frequency()),
    Geometric: _betas.map(Geometric),
    PointMass: st.integers(1, 40).map(PointMass),
    Restrict: st.builds(Restrict, _simple_charges, periodic_sets(max_preperiod=3, max_period=4)),
    DyadicLimit: st.just(DyadicLimit()),
    Mix: _mixes(),
    CValue: _fractions.map(CValue.exact),
    Poly: st.lists(_fractions, max_size=4).map(lambda cs: Poly.of(*cs)),
    RationalFunction: _rational_functions(),
    Problem: st.builds(Problem, st.sampled_from(["RowSumError", "UnknownState"]),
                       st.text("ab (')", max_size=8)),
    Mdp: st.builds(lambda seed, n, k: random_mdp(random.Random(seed), n, k),
                   st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 2)),
}
values = st.sampled_from(list(VALUES)).flatmap(VALUES.__getitem__)


def fields(v) -> tuple:
    return tuple(getattr(v, name) for name in FIELDS[type(v)])


def expected_repr(v) -> str:
    if type(v) is EventuallyPeriodicSet:
        head = [n for n in range(1, v.pre_len + 1) if (v.pre_mask >> (n - 1)) & 1]
        return (f"EventuallyPeriodicSet(pre={head}, m={v.pre_len}, "
                f"p={v.period}, residues={sorted(v.residues)})")
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(FIELDS[type(v)], fields(v)))
    return f"{type(v).__qualname__}({shown})"


def test_every_class_is_drawn():
    assert set(VALUES) == set(FIELDS) and len(FIELDS) == 13


@settings(max_examples=200)
@given(values)
def test_record_semantics(v):
    names, got = FIELDS[type(v)], fields(v)
    assert hash(v) == hash(got)
    assert repr(v) == expected_repr(v)
    rebuilt = [type(v)(*got), type(v)(**dict(zip(names, got))),
               copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))]
    for w in rebuilt:
        assert type(w) is type(v) and fields(w) == got
        assert w == v and not w != v and hash(w) == hash(v)
    assert v != got and v.__eq__(got) is NotImplemented
    for name in names + ("extra",):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(v, name, 0)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(v, name)
    assert fields(v) == got


@settings(max_examples=200)
@given(values, values)
def test_equal_exactly_when_same_class_and_fields(a, b):
    same = type(a) is type(b) and fields(a) == fields(b)
    assert (a == b) is same and (a != b) is not same


def test_equal_fields_of_another_class_differ():
    assert Frequency() != DyadicLimit() and hash(Frequency()) == hash(DyadicLimit()) == hash(())
    assert CValue.exact(1) != (1,) and CValue.exact(1) != Fraction(1)
    half = Fraction(1, 2)
    assert CValue(half) != Geometric(half) and hash(CValue(half)) == hash(Geometric(half))
    assert Poly((half,)) != CValue(half)
    assert {Frequency(): 1, DyadicLimit(): 2}[Frequency()] == 1


def test_keyword_construction_converts_as_positional():
    assert Geometric(beta="1/3") == Geometric(Fraction(1, 3))
    assert type(Geometric(beta=0.5).beta) is Fraction
    mix = Mix(parts=((1, Frequency()),))
    assert mix.parts == ((Fraction(1), Frequency()),) and type(mix.parts[0][0]) is Fraction
    assert Restrict(window=odds(), base=Frequency()) == Restrict(Frequency(), odds())
    assert EventuallyPeriodicSet(res_mask=1, period=3, pre_mask=0, pre_len=0) == multiples(3)


@pytest.mark.parametrize("build, message", [
    (lambda: Geometric(Fraction(1)), "geometric factor must lie in (0,1), got 1"),
    (lambda: Geometric(0), "geometric factor must lie in (0,1), got 0"),
    (lambda: PointMass(0), "point mass stage must be >= 1, got 0"),
    (lambda: Mix(()), "mixture needs at least one component"),
    (lambda: Mix(((Fraction(-1), Frequency()), (Fraction(1, 2), Frequency()))),
     "mixture weights must be strictly positive"),
    (lambda: Mix(((Fraction(1, 2), Frequency()),)), "mixture weights must sum to 1"),
])
def test_constructor_checks(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_bad_factor_fails_in_the_conversion():
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        Geometric("x")
    with pytest.raises(TypeError):
        Mix(((None, Frequency()),))


def test_cached_properties_on_mdp_and_rational_function():
    m = random_mdp(random.Random(3), 2, 2)
    fresh = random_mdp(random.Random(3), 2, 2)
    h = hash(m)
    assert m.rewards is m.rewards and m.transitions is m.transitions
    assert hash(m) == h and m == fresh and repr(m) == repr(fresh)
    for w in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert w == m and w.rewards == m.rewards and w.transitions == m.transitions

    f = rational_of(Poly.of(1, 2), Poly.of(3, 0, 6))
    g = rational_of(Poly.of(1, 2), Poly.of(3, 0, 6))
    h = hash(f)
    assert f.num is f.num and f.den is f.den
    assert f.num == Poly.of(Fraction(1, 6), Fraction(1, 3))
    assert f.den == Poly.of(Fraction(1, 2), 0, 1)
    assert hash(f) == h and f == g and repr(f) == repr(g)
    for w in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert w == f and w.num == f.num and w.den == f.den
