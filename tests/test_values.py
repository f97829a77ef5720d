"""Value semantics of the library's immutable records, and of the
numbers that charge queries return.

Each record class is listed with its fields in declaration order.  A
record equals exactly the records of its own class with equal fields,
hashes as the tuple of its fields, prints as ``Name(field=value, ...)``
(the set class keeps its own form), refuses assignment and deletion, and
survives keyword construction, ``copy``, ``deepcopy`` and ``pickle``.
A charge value is a ``Fraction``, not a record.
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
from chargemdp.charges import (DyadicLimit, Frequency, Geometric, Mix, PointMass, Restrict,
                               integrate, value)
from chargemdp.mdp import (Mdp, Problem, best_periodic, expected_reward_stream, payoff,
                           random_mdp)
from chargemdp.periodic_sets import EventuallyPeriodicSet, evens, multiples, odds, union
from chargemdp.streams import RationalStream

from conftest import (periodic_sets, poly_of, random_deterministic_mdp, rational_of,
                      rational_streams, ref_level_sets, ref_value)

FIELDS = {
    EventuallyPeriodicSet: ("pre_len", "pre_mask", "period", "res_mask"),
    RationalStream: ("preperiod", "cycle"),
    Frequency: (),
    Geometric: ("beta",),
    PointMass: ("stage",),
    Restrict: ("base", "window"),
    DyadicLimit: (),
    Mix: ("parts",),
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
    return rational_of(poly_of(*num), poly_of(*den))


VALUES = {
    EventuallyPeriodicSet: periodic_sets(max_preperiod=4, max_period=6),
    RationalStream: rational_streams(),
    Frequency: st.just(Frequency()),
    Geometric: _betas.map(Geometric),
    PointMass: st.integers(1, 40).map(PointMass),
    Restrict: st.builds(Restrict, _simple_charges, periodic_sets(max_preperiod=3, max_period=4)),
    DyadicLimit: st.just(DyadicLimit()),
    Mix: _mixes(),
    Poly: st.lists(_fractions, max_size=4).map(lambda cs: poly_of(*cs)),
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
    assert set(VALUES) == set(FIELDS) and len(FIELDS) == 12


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
    assert {Frequency(): 1, DyadicLimit(): 2}[Frequency()] == 1


def test_keyword_construction_converts_as_positional():
    assert Geometric(beta="1/3") == Geometric(Fraction(1, 3))
    assert type(Geometric(beta=0.5).beta) is Fraction
    mix = Mix(parts=((1, Frequency()),))
    assert mix.parts == ((Fraction(1), Frequency()),) and type(mix.parts[0][0]) is Fraction
    assert Restrict(window=odds(), base=Frequency()) == Restrict(Frequency(), odds())
    assert EventuallyPeriodicSet(res_mask=1, period=3, pre_mask=0, pre_len=0) == multiples(3)


# ---- charge values are Fractions ----------------------------------------------

# one Hypothesis strategy per charge kind; a Restrict's window holds the
# evens, and no base drawn for it (a point mass at an even stage among
# them) measures such a window as 0
CHARGE_KINDS = {
    "frequency": st.just(Frequency()),
    "geometric": _betas.map(Geometric),
    "pointmass": st.integers(1, 40).map(PointMass),
    "dyadiclimit": st.just(DyadicLimit()),
    "restrict": st.builds(
        Restrict,
        st.one_of(st.just(Frequency()), st.just(DyadicLimit()), _betas.map(Geometric),
                  st.integers(1, 20).map(lambda k: PointMass(2 * k))),
        periodic_sets(max_preperiod=3, max_period=4).map(lambda w: union(w, evens()))),
    "mix": _mixes(),
}


def ref_integral(mu, f) -> Fraction:
    """The integral of f as a plain Fraction, summed over the level sets
    from the reference evaluator."""
    return sum((c * ref_value(mu, m) for c, m in ref_level_sets(f)), Fraction(0))


def assert_is_the_number(v, ref: Fraction) -> None:
    """v is the Fraction ref: equal and hash-equal, printed alike, plain
    Fraction arithmetic, and unchanged by copy, deepcopy and pickle."""
    assert isinstance(v, Fraction) and type(ref) is Fraction
    assert v == ref and hash(v) == hash(ref) and str(v) == f"{v}" == str(ref)
    shifted = v + Fraction(1, 7)
    assert type(shifted) is Fraction and shifted == ref + Fraction(1, 7)
    for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(w) is type(v) and w == ref and hash(w) == hash(ref) and str(w) == str(ref)


@pytest.mark.parametrize("kind", list(CHARGE_KINDS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_charge_values_are_fractions(kind, data):
    mu = data.draw(CHARGE_KINDS[kind])
    s = data.draw(periodic_sets(max_preperiod=4, max_period=6))
    assert_is_the_number(value(mu, s), ref_value(mu, s))
    f = data.draw(rational_streams())
    assert_is_the_number(integrate(mu, f), ref_integral(mu, f))
    m = random_deterministic_mdp(random.Random(data.draw(st.integers(0, 10**6))), 2, 2)
    result = best_periodic(m, mu, 2, 1)
    assert result.best_value is result.ranking[0][1]
    for sigma, v in result.ranking:
        ref = ref_integral(mu, expected_reward_stream(m, sigma))
        assert_is_the_number(v, ref)
        assert_is_the_number(payoff(m, sigma, mu), ref)


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

    f = rational_of(poly_of(1, 2), poly_of(3, 0, 6))
    g = rational_of(poly_of(1, 2), poly_of(3, 0, 6))
    h = hash(f)
    assert f.num is f.num and f.den is f.den
    assert f.num == poly_of(Fraction(1, 6), Fraction(1, 3))
    assert f.den == poly_of(Fraction(1, 2), 0, 1)
    assert hash(f) == h and f == g and repr(f) == repr(g)
    for w in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert w == f and w.num == f.num and w.den == f.den
