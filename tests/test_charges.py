"""Charge evaluation and exact integration."""

import random
import time
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chargemdp import charges, periodic_sets as periodic_sets_module
from chargemdp.charges import (CValue, DyadicLimit, Frequency, Geometric,
                               IllFormedRestrict, Mix, PointMass, Restrict,
                               _bit_sum, _stage_weights,
                               dyadic_value_sequence, integrate, value)
from chargemdp.mdp import BudgetExceeded
from chargemdp.parsing import parse_set
from chargemdp.periodic_sets import (_build, arithmetic, complement, density,
                                     difference, empty, evens, intersect, make,
                                     multiples, naturals, odds, shift,
                                     union)
from chargemdp.streams import RationalStream, stream

from conftest import (cycle_mean, indicator, periodic_sets, pointwise_leq, rational_streams,
                      ref_bit_sum, ref_geometric_value, ref_integrate, ref_level_sets,
                      ref_pair_eval, ref_value, sandwich_check, stream_values)

EXACT_CHARGES = st.sampled_from([
    Frequency(),
    Geometric(Fraction(1, 2)),
    Geometric(Fraction(2, 3)),
    PointMass(3),
    Mix(((Fraction(1, 3), Frequency()), (Fraction(2, 3), Geometric(Fraction(1, 4))))),
])


# ---- CValue --------------------------------------------------------------

def test_cvalue_exact():
    x = Fraction(3, 4)
    v = CValue.exact(x)
    assert type(v) is CValue and v == x
    assert v.is_exact and v.candidates == {x} and v.low == x


# ---- constructor validation ----------------------------------------------

def test_geometric_validation():
    with pytest.raises(ValueError):
        Geometric(Fraction(1))
    with pytest.raises(ValueError):
        Geometric(Fraction(0))


def test_pointmass_validation():
    with pytest.raises(ValueError):
        PointMass(0)


def test_value_rejects_a_non_charge():
    with pytest.raises(TypeError, match="^not a charge expression: <object object at "):
        value(object(), odds())


def test_mix_validation():
    with pytest.raises(ValueError):
        Mix(())
    with pytest.raises(ValueError):
        Mix(((Fraction(1, 2), Frequency()),))
    with pytest.raises(ValueError):
        Mix(((Fraction(3, 2), Frequency()), (Fraction(-1, 2), Frequency())))


# The constructors' checks in Fraction arithmetic, as they read before
# they moved to numerators and denominators: the reference that the
# integer checks must accept and reject like, with the same messages.

def ref_geometric_beta(beta) -> Fraction:
    beta = Fraction(beta)
    if not 0 < beta < 1:
        raise ValueError(f"geometric factor must lie in (0,1), got {beta}")
    return beta


def ref_mix_parts(parts) -> tuple:
    parts = tuple((Fraction(w), c) for w, c in parts)
    if not parts:
        raise ValueError("mixture needs at least one component")
    if any(w <= 0 for w, _ in parts):
        raise ValueError("mixture weights must be strictly positive")
    if sum(w for w, _ in parts) != 1:
        raise ValueError("mixture weights must sum to 1")
    return parts


def constructed(make, *args):
    """The stored field with the exact type of each number, or the
    exception's type and text."""
    try:
        out = make(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(out, Geometric):
        out = out.beta
    elif isinstance(out, Mix):
        out = out.parts
    if isinstance(out, tuple):
        return tuple((type(w), w, c) for w, c in out)
    return type(out), out


BETAS = [0, 1, Fraction(-1, 2), Fraction(3, 2), Fraction(2, 4), "1/3", 0.25, CValue(1, 3),
         "x", float("nan"), float("inf")]
WEIGHTS = [(Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 2), Fraction(1, 2), 0),
           (Fraction(-1, 2), Fraction(3, 2)), (Fraction(1, 3), Fraction(1, 3)),
           (Fraction(2, 4), Fraction(1, 2)), ("2/4", 0.5), (1,), (), (CValue(1, 2), "1/2")]


@pytest.mark.parametrize("beta", BETAS, ids=repr)
def test_geometric_checks_as_the_fraction_reference(beta):
    assert constructed(Geometric, beta) == constructed(ref_geometric_beta, beta)


@pytest.mark.parametrize("weights", WEIGHTS, ids=repr)
def test_mix_checks_as_the_fraction_reference(weights):
    parts = tuple((w, Frequency()) for w in weights)
    assert constructed(Mix, parts) == constructed(ref_mix_parts, parts)


NUMBERS = st.one_of(st.fractions(-2, 2, max_denominator=30), st.integers(-2, 2),
                    st.floats(-2, 2), st.builds("{}/{}".format, st.integers(-3, 9),
                                                st.integers(1, 9)))


@given(NUMBERS)
def test_geometric_checks_as_the_fraction_reference_on_any_number(beta):
    assert constructed(Geometric, beta) == constructed(ref_geometric_beta, beta)


@st.composite
def weight_lists(draw):
    """Weights that sum to 1 about half the time."""
    weights = draw(st.lists(NUMBERS, max_size=4))
    if weights and draw(st.booleans()):
        weights[-1] = 1 - sum(Fraction(w) for w in weights[:-1])
    return weights


@given(weight_lists())
def test_mix_checks_as_the_fraction_reference_on_any_weights(weights):
    parts = tuple((w, Frequency()) for w in weights)
    assert constructed(Mix, parts) == constructed(ref_mix_parts, parts)


# ---- frequency -----------------------------------------------------------

@given(periodic_sets())
def test_frequency_is_density(s):
    assert value(Frequency(), s) == density(s)


@given(periodic_sets(), st.integers(-6, 6))
def test_frequency_translation_invariant(s, k):
    assert value(Frequency(), shift(s, k)) == value(Frequency(), s)


# ---- geometric -----------------------------------------------------------

def test_geometric_examples():
    half = Geometric(Fraction(1, 2))
    assert value(half, naturals()) == 1
    # stage weights are (1-b) * b**(t-1)
    assert value(half, make([1], 1, set())) == Fraction(1, 2)
    assert value(half, make([0, 0, 1], 1, set())) == Fraction(1, 8)
    # odds: (1-b) * 1/(1-b^2) = 1/(1+b)
    assert value(half, odds()) == Fraction(2, 3)
    assert value(half, evens()) == Fraction(1, 3)


@given(st.fractions(min_value="1/10", max_value="9/10", max_denominator=10),
       st.integers(1, 12))
def test_geometric_singleton_weight(beta, t):
    mu = Geometric(beta)
    singleton = make([0] * (t - 1) + [1], 1, set())
    assert value(mu, singleton) == (1 - beta) * beta ** (t - 1)


# ---- point mass ----------------------------------------------------------

@given(periodic_sets(), st.integers(1, 30))
def test_pointmass_membership(s, t):
    from chargemdp.periodic_sets import member
    assert value(PointMass(t), s) == (1 if member(s, t) else 0)


# ---- shared charge axioms ------------------------------------------------

@given(EXACT_CHARGES, periodic_sets(), periodic_sets())
def test_charge_modular(mu, s, t):
    assert (value(mu, union(s, t)) + value(mu, intersect(s, t))
            == value(mu, s) + value(mu, t))


@given(EXACT_CHARGES, periodic_sets())
def test_charge_normalized(mu, s):
    assert value(mu, naturals()) == 1
    assert value(mu, empty()) == 0
    assert value(mu, s) + value(mu, complement(s)) == 1
    assert 0 <= value(mu, s) <= 1


@given(EXACT_CHARGES, periodic_sets(), periodic_sets())
def test_charge_monotone(mu, s, t):
    assert value(mu, intersect(s, t)) <= value(mu, s)
    assert value(mu, difference(s, t)) == value(mu, s) - value(mu, intersect(s, t))


@given(st.sampled_from([Frequency(), DyadicLimit()]), st.integers(1, 100))
def test_diffuse_charges_kill_singletons(mu, t):
    singleton = make([0] * (t - 1) + [1], 1, set())
    assert value(mu, singleton) == 0


# ---- restriction ---------------------------------------------------------

def test_restrict_examples():
    odd_freq = Restrict(Frequency(), odds())
    assert value(odd_freq, odds()) == 1
    assert value(odd_freq, evens()) == 0
    assert value(odd_freq, arithmetic(1, 4)) == Fraction(1, 2)
    assert value(odd_freq, multiples(3)) == Fraction(1, 3)


def test_restrict_rejects_null_window():
    with pytest.raises(IllFormedRestrict):
        value(Restrict(Frequency(), empty()), odds())
    singleton = make([1], 1, set())  # density zero
    with pytest.raises(IllFormedRestrict):
        value(Restrict(Frequency(), singleton), odds())


def test_restrict_of_dyadic_base():
    mu = Restrict(DyadicLimit(), evens())
    assert value(mu, multiples(4)) == 1
    assert value(mu, odds()) == 0


@given(periodic_sets(), periodic_sets())
def test_restrict_is_conditional_density(s, w):
    if density(w) == 0:
        return
    assert value(Restrict(Frequency(), w), s) == \
        density(intersect(s, w)) / density(w)


# ---- dyadic limit --------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 11))
def test_dyadic_concentrates_on_powers_of_two(n):
    assert value(DyadicLimit(), multiples(2 ** n)) == 1


def test_dyadic_kills_odds():
    assert value(DyadicLimit(), odds()) == 0
    assert integrate(DyadicLimit(), indicator(odds())) == 0


def test_dyadic_value_sequence_example():
    vals, cyc = dyadic_value_sequence(multiples(4))
    assert vals == [Fraction(1, 2), Fraction(1)]
    assert cyc == (Fraction(1),)


@given(periodic_sets())
def test_dyadic_value_sequence_matches_contractions(s):
    from chargemdp.periodic_sets import contract
    vals, cyc = dyadic_value_sequence(s)
    c = s
    for v in vals:
        c = contract(c, 2)
        assert density(c) == v
    assert set(cyc) <= set(vals)


def dyadic_closed_form(s) -> Fraction:
    """2**a * #{r in R : 2**a | r} / p, with 2**a the 2-part of the period
    p and R the residues, read from the residue mask."""
    p = s.period
    step = p & -p
    divisible = sum(1 << r for r in range(0, p, step))
    return Fraction(step * (s.res_mask & divisible).bit_count(), p)


@given(st.one_of(periodic_sets(), periodic_sets(max_preperiod=20, max_period=48)))
def test_dyadic_cycle_is_one_value_in_closed_form(s):
    _, cyc = dyadic_value_sequence(s)
    assert set(cyc) == {dyadic_closed_form(s)}
    assert value(DyadicLimit(), s) == dyadic_closed_form(s)


def test_dyadic_cycle_of_a_residue_mod_11():
    # halving walks the residue 3 through all ten nonzero residues mod 11
    _, cyc = dyadic_value_sequence(arithmetic(3, 11))
    assert cyc == (Fraction(1, 11),) * 10
    assert value(DyadicLimit(), arithmetic(3, 11)) == Fraction(1, 11)


@given(periodic_sets())
def test_dyadic_candidates_come_from_the_sequence(s):
    vals, cyc = dyadic_value_sequence(s)
    assert {value(DyadicLimit(), s)} == set(cyc)


def test_sandwich_check():
    assert sandwich_check(Frequency(), multiples(4))
    for n in range(1, 11):
        assert not sandwich_check(DyadicLimit(), multiples(2 ** n))
    assert sandwich_check(DyadicLimit(), odds()) is False  # density 1/2, value 0


@given(periodic_sets())
def test_sandwich_check_frequency_always(s):
    assert sandwich_check(Frequency(), s)


# ---- mixtures ------------------------------------------------------------

@given(periodic_sets())
def test_mix_is_convex_combination(s):
    parts = ((Fraction(1, 4), Frequency()),
             (Fraction(3, 4), Geometric(Fraction(1, 3))))
    mu = Mix(parts)
    assert value(mu, s) == sum(w * value(c, s) for w, c in parts)


def test_mix_with_dyadic_component():
    mu = Mix(((Fraction(1, 2), Frequency()), (Fraction(1, 2), DyadicLimit())))
    assert value(mu, multiples(2)) == Fraction(3, 4)
    assert value(mu, odds()) == Fraction(1, 4)


# ---- integration ---------------------------------------------------------

@given(EXACT_CHARGES, rational_streams(), rational_streams())
def test_integrate_linear(mu, f, g):
    L, q = max(len(f.preperiod), len(g.preperiod)), lcm(len(f.cycle), len(g.cycle))
    sums = [a + b for a, b in zip(stream_values(f, L + q), stream_values(g, L + q))]
    total = stream(sums[:L], sums[L:])
    assert integrate(mu, total) == integrate(mu, f) + integrate(mu, g)


@given(EXACT_CHARGES, rational_streams(),
       st.fractions(min_value=-2, max_value=2, max_denominator=3))
def test_integrate_homogeneous(mu, f, a):
    scaled = stream([a * v for v in f.preperiod], [a * v for v in f.cycle])
    assert integrate(mu, scaled) == a * integrate(mu, f)


@given(EXACT_CHARGES, rational_streams(), rational_streams())
def test_integrate_monotone(mu, f, g):
    if pointwise_leq(f, g):
        assert integrate(mu, f) <= integrate(mu, g)


@given(EXACT_CHARGES, periodic_sets())
def test_integrate_indicator_is_value(mu, s):
    assert integrate(mu, indicator(s)) == value(mu, s)


@given(rational_streams())
def test_integrate_frequency_is_cycle_mean(f):
    assert integrate(Frequency(), f) == cycle_mean(f)


def test_integrate_geometric_series():
    # stream 1,0,1,0,... under factor b: (1-b)/(1-b^2) = 1/(1+b)
    f = stream([], [1, 0])
    got = integrate(Geometric(Fraction(1, 2)), f)
    assert got == Fraction(2, 3)


def test_integrate_ignores_zero_level():
    f = stream([0, 0, 5], [0])
    got = integrate(Geometric(Fraction(1, 2)), f)
    assert got == 5 * Fraction(1, 8)


# ---- single-pass evaluation against the per-step reference ---------------
#
# ``ref_value`` and ``ref_integrate`` are the per-step reference, kept in
# conftest.

def outcome(query, *args):
    """The value of a query, or the type and message of the error it
    raises."""
    try:
        return query(*args)
    except IllFormedRestrict as exc:
        return type(exc), str(exc)


def raised_at(query, mu, f):
    """outcome(query, mu, f), and the Restrict whose window raised, read
    from the innermost frame: a null window's message alone does not say
    which window of a nested charge raised first."""
    try:
        return query(mu, f), None
    except IllFormedRestrict as exc:
        tb = exc.__traceback__
        while tb.tb_next:
            tb = tb.tb_next
        return (type(exc), str(exc)), id(tb.tb_frame.f_locals["mu"])


BETAS = st.fractions(min_value="1/20", max_value="19/20", max_denominator=20)


@st.composite
def mix_of(draw, parts):
    parts = draw(parts)
    weights = draw(st.lists(st.integers(1, 5), min_size=len(parts), max_size=len(parts)))
    total = sum(weights)
    return Mix(tuple((Fraction(w, total), c) for w, c in zip(weights, parts)))


RANDOM_CHARGES = st.recursive(
    st.one_of(st.just(Frequency()), st.just(DyadicLimit()),
              BETAS.map(Geometric), st.integers(1, 20).map(PointMass)),
    lambda inner: st.one_of(
        st.builds(Restrict, inner, periodic_sets()),
        mix_of(st.lists(inner, min_size=1, max_size=3))),
    max_leaves=6)


@given(RANDOM_CHARGES, periodic_sets(), rational_streams())
def test_single_pass_matches_per_step_reference(mu, s, f):
    assert outcome(value, mu, s) == outcome(ref_value, mu, s)
    assert outcome(integrate, mu, f) == outcome(ref_integrate, mu, f)


@given(RANDOM_CHARGES, periodic_sets(max_preperiod=20, max_period=48))
@example(Restrict(Mix(((Fraction(1, 3), Frequency()), (Fraction(1, 3), Geometric(Fraction(1, 20))),
                       (Fraction(1, 3), DyadicLimit()))), make([], 9, range(7))),
         make([], 47, {0, 1, 36}))  # 144 dyadic steps over 423 residues
@settings(deadline=None)
def test_single_pass_matches_reference_on_wide_sets(mu, s):
    assert outcome(value, mu, s) == outcome(ref_value, mu, s)
    assert outcome(integrate, mu, indicator(s)) == outcome(ref_integrate, mu, indicator(s))


@given(st.lists(RANDOM_CHARGES, max_size=2), periodic_sets(), rational_streams())
def test_mix_with_two_dyadic_parts_matches_reference(others, s, f):
    mu = Mix(tuple((Fraction(1, 2 + len(others)), c)
                   for c in [DyadicLimit(), *others, DyadicLimit()]))
    assert outcome(value, mu, s) == outcome(ref_value, mu, s)
    assert outcome(integrate, mu, f) == outcome(ref_integrate, mu, f)


@given(RANDOM_CHARGES, periodic_sets(), rational_streams())
def test_every_query_has_one_value(mu, s, f):
    for query, arg in ((value, s), (integrate, f)):
        try:
            assert isinstance(query(mu, arg), Fraction)
        except IllFormedRestrict:
            pass


def test_nested_restrictions_cost_one_window_each():
    # each level re-measured its window with a fresh memo: about 24 s at
    # depth 20, doubling with every level
    mu = Frequency()
    for _ in range(20):
        mu = Restrict(mu, naturals())
    start = time.perf_counter()
    assert value(mu, odds()) == Fraction(1, 2)
    assert time.perf_counter() - start < 2


def test_nested_geometric_restrictions_equal_one_restriction():
    """restrict(restrict(nu, A), B) = restrict(nu, A & B).  Each window's
    pair is reduced once: unreduced, the pairs doubled in size with every
    level, and this query at depth 20 ran for minutes."""
    base = Geometric(Fraction(1, 3))
    mu, common = base, naturals()
    for i in range(1, 21):
        window = complement(multiples(i % 5 + 2))
        mu, common = Restrict(mu, window), intersect(common, window)
    s = parse_set("multiples(7) | ap(2, 9)")
    start = time.perf_counter()
    assert value(mu, s) == value(Restrict(base, common), s)
    assert time.perf_counter() - start < 2


@given(BETAS, periodic_sets(max_preperiod=40, max_period=40))
def test_integer_geometric_matches_per_residue_sum(beta, s):
    assert value(Geometric(beta), s) == ref_geometric_value(beta, s)


@pytest.mark.parametrize("text", ["ap(20050,7)", "(ap(5,16) | ap(20,27)) & !(ap(3,5))"])
@pytest.mark.parametrize("beta", [Fraction(1, 3), Fraction(9, 10)])
def test_integer_geometric_on_long_words(text, beta):
    s = parse_set(text)
    assert value(Geometric(beta), s) == ref_geometric_value(beta, s)


# (word, L) with the word's bits below L, and (n, d) with 1 <= n < d
WORDS = st.integers(0, 300).flatmap(lambda L: st.tuples(st.integers(0, (1 << L) - 1), st.just(L)))
RATIOS = st.integers(2, 50).flatmap(lambda d: st.tuples(st.integers(1, d - 1), st.just(d)))


@given(WORDS, RATIOS)
@example((0, 300), (7, 10))  # the empty word
@example((1, 300), (7, 10))  # bit 0 alone
@example((1 << 299, 300), (7, 10))  # bit L-1 alone
@example(((1 << 300) - 1, 300), (49, 50))  # all ones
@example((0b1011001 << 120, 300), (1, 2))  # zero runs at both ends
@example((1, 1), (2, 3))  # L = 1
def test_bit_sum_is_its_definition(word, ratio):
    (w, L), (n, d) = word, ratio
    assert _bit_sum(w, L, n, d) == ref_bit_sum([w >> j & 1 for j in range(L)], n, d)


def test_bit_sum_of_a_long_random_word():
    """Out of the property: its definition takes about 0.4 s, past the
    Hypothesis deadline."""
    L = 1 << 14
    w = random.Random(14).getrandbits(L)
    assert _bit_sum(w, L, 37, 50) == ref_bit_sum([w >> j & 1 for j in range(L)], 37, 50)


def test_geometric_sums_past_the_mask_limit_are_refused(monkeypatch):
    """(m + p) times the bits of d passes the limit: refused before any
    power is formed, through value, integrate and the stage weights."""
    monkeypatch.setattr(periodic_sets_module, "MASK_LIMIT", 40)
    mu = Geometric(Fraction(999, 1000))  # d = 1000 has 10 bits
    at, past = make([0], 3, {1}), make([0, 1], 3, {1})
    assert (at.pre_len, at.period, past.pre_len, past.period) == (1, 3, 2, 3)
    assert value(mu, at) == ref_geometric_value(mu.beta, at)  # 4 stages: 40 bits
    message = "geometric sums over 5 stages at 10 bits each exceed limit 40$"
    for query in (lambda: value(mu, past), lambda: _stage_weights(mu, 1, 4),
                  lambda: integrate(mu, stream([0, 1], [1, 0, 0]))):
        with pytest.raises(BudgetExceeded, match=message):
            query()


# ---- value on the set's own shape ----------------------------------------

@given(RANDOM_CHARGES, periodic_sets())
def test_value_raises_at_the_reference_window(mu, s):
    """The value, or a null window's message and which window raised it."""
    assert raised_at(value, mu, s) == raised_at(ref_value, mu, s)


def _no_fraction(*args):
    raise AssertionError("value built a Fraction")


@given(RANDOM_CHARGES.filter(lambda mu: not isinstance(mu, DyadicLimit)), periodic_sets())
def test_value_builds_no_fraction(mu, s):
    """Only the message of a null window renders a Fraction; the masses
    stay integers until the one CValue.  A bare DyadicLimit is left out:
    its halving walk reads densities, which are Fractions."""
    expected = outcome(ref_value, mu, s)
    if isinstance(expected, tuple):
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charges, "Fraction", _no_fraction)
        got = value(mu, s)
    assert type(got) is CValue and got == expected


@pytest.mark.parametrize("mu", [
    Mix(((Fraction(1, 2), Frequency()), (Fraction(1, 2), DyadicLimit()))),
    Restrict(DyadicLimit(), evens()),
    Restrict(Mix(((Fraction(1, 3), PointMass(2)), (Fraction(2, 3), DyadicLimit()))),
             complement(multiples(3))),
])
def test_value_walks_contract_for_a_bare_dyadic_limit_only(mu, monkeypatch):
    """A DyadicLimit inside a Mix or a Restrict is the closed form on
    masks; a bare one keeps the halving walk that the benchmark's tracer
    counts (ten steps round the residue 3 mod 11)."""
    calls, contract = [], charges.contract
    monkeypatch.setattr(charges, "contract", lambda *args: calls.append(args) or contract(*args))
    s = arithmetic(3, 11)
    assert value(mu, s) == ref_value(mu, s)
    assert calls == []
    assert value(DyadicLimit(), s) == Fraction(1, 11)
    assert len(calls) >= 10


@pytest.mark.parametrize("mu", [Frequency(), Geometric(Fraction(1, 2))])
def test_integrate_many_levels_keeps_the_common_denominator(mu):
    """A sum over levels stays over the lcm of their denominators.  The
    product of every level's denominator ran to millions of bits on
    these 2000 levels, and reducing it took seconds."""
    f = stream([Fraction(1, 2**t) for t in range(2000)], [Fraction(1, 3)])
    start = time.perf_counter()
    got = integrate(mu, f)
    assert time.perf_counter() - start < 1
    assert got == sum((c * ref_value(mu, m) for c, m in ref_level_sets(f)), Fraction(0))

# ---- per-shape stage weights: one dot product per stream ------------------

WEIGHT_CHARGES = st.one_of(st.sampled_from([
    Frequency(),
    Geometric(Fraction(2, 3)),
    PointMass(2),
    DyadicLimit(),
    Restrict(Geometric(Fraction(1, 2)), odds()),
    Restrict(DyadicLimit(), multiples(4)),
    Mix(((Fraction(1, 2), Restrict(Geometric(Fraction(1, 2)), odds())),
         (Fraction(1, 2), DyadicLimit()))),
]), RANDOM_CHARGES)


def dot(mu, f, L, q) -> Fraction:
    """integrate(mu, f) as the dot product of f's first L + q values
    with the weights of shape (L, q)."""
    W, w = _stage_weights(mu, L, q)
    return sum((v * x for v, x in zip(stream_values(f, L + q), w)), Fraction(0)) / W


@given(WEIGHT_CHARGES, rational_streams(), st.integers(0, 3), st.integers(1, 3))
def test_stage_weights_dot_product_is_the_integral(mu, f, extra, k):
    """At the canonical shape and at a longer preperiod and a multiple
    of the cycle; a zero stream never needs weights."""
    assume(any(f.preperiod) or any(f.cycle))
    L, q = len(f.preperiod), len(f.cycle)
    expected = outcome(integrate, mu, f)
    assert outcome(dot, mu, f, L, q) == expected
    assert outcome(dot, mu, f, L + extra, q * k) == expected


@given(st.integers(0, 6), st.integers(1, 24))
def test_dyadic_stage_weights_are_the_dyadic_values(L, q):
    W, w = _stage_weights(DyadicLimit(), L, q)
    for t in range(1, L + 1):
        singleton = make([i == t for i in range(1, L + 1)], 1, ())
        assert w[t - 1] == 0 == value(DyadicLimit(), singleton)
    for j in range(q):
        atom = make([0] * L, q, {(L + 1 + j) % q})
        assert Fraction(w[L + j], W) == value(DyadicLimit(), atom)


def test_stage_weights_check_the_mask_limit_on_a_window(monkeypatch):
    """A Restrict window aligned with the shape's period is a mask of the
    lcm: past the limit it is refused before it is built."""
    monkeypatch.setattr(periodic_sets_module, "MASK_LIMIT", 21)
    mu = Restrict(Frequency(), multiples(7))
    assert _stage_weights(mu, 0, 3) == (3, (1, 1, 1))  # the lcm 21, at the limit
    with pytest.raises(BudgetExceeded, match="exceeds limit 21$"):
        _stage_weights(mu, 0, 4)


# ---- stage weights from masks against the atom-by-atom reference ----------
#
# The reference is the construction ``_stage_weights`` replaced: every
# atom is built as a set and evaluated by the pair evaluator, with one
# window memo for all of them.

def ref_stage_weights(mu, L, q):
    windows: dict = {}
    atoms = [_build(L, 1 << t, 1, 0) for t in range(L)]
    atoms += [_build(L, 0, q, 1 << ((L + 1 + j) % q)) for j in range(q)]
    vals = [Fraction(*ref_pair_eval(mu, a, windows)) for a in atoms]
    W = lcm(*(v.denominator for v in vals))
    return W, tuple(v.numerator * (W // v.denominator) for v in vals)


def weights_outcome(weights, mu, L, q):
    """The weights, or the message of the IllFormedRestrict raised."""
    try:
        return weights(mu, L, q)
    except IllFormedRestrict as exc:
        return str(exc)


@given(RANDOM_CHARGES, st.integers(0, 6), st.integers(1, 12))
def test_stage_weights_match_atom_by_atom_reference(mu, L, q):
    expected = weights_outcome(ref_stage_weights, mu, L, q)
    assert weights_outcome(_stage_weights, mu, L, q) == expected


def _no_set_query(*args):
    raise AssertionError("a set query was made")


@given(RANDOM_CHARGES, st.integers(0, 6), st.integers(1, 12))
def test_stage_weights_make_no_set_query(mu, L, q):
    expected = weights_outcome(ref_stage_weights, mu, L, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(periodic_sets_module, "_build", _no_set_query)
        assert weights_outcome(_stage_weights, mu, L, q) == expected


def test_stage_weights_of_a_wide_geometric_window_stay_small():
    """The window refines the shape (1, 3) to (3, 12288).  Each part's
    mass is read from its own mask, so no per-atom weights of the refined
    shape (each an O(Q)-bit integer) are held at once."""
    window = make([1, 0, 1], 4096, {r for r in range(4096) if r % 7 in (2, 5) or r % 11 == 0})
    mu = Restrict(Geometric(Fraction(9, 10)), window)
    expected = ref_stage_weights(mu, 1, 3)
    tracemalloc.start()
    try:
        got = _stage_weights(mu, 1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 1 << 20


# ---- integrate on level masks ----------------------------------------------

# few distinct values, zero among them, so levels repeat across the
# preperiod and the cycle
_FEW_VALUES = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 4)])
REPEATING_STREAMS = st.builds(stream, st.lists(_FEW_VALUES, max_size=10),
                              st.lists(_FEW_VALUES, min_size=1, max_size=12))


@given(RANDOM_CHARGES, st.one_of(rational_streams(), REPEATING_STREAMS))
def test_integrate_makes_no_set_query(mu, f):
    expected = raised_at(ref_integrate, mu, f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charges, "contract", _no_set_query)
        mp.setattr(periodic_sets_module, "_build", _no_set_query)
        assert raised_at(integrate, mu, f) == expected


def on_shape(f, k: int, r: int) -> RationalStream:
    """f on a longer shape, not canonical: k cycle stages moved into the
    preperiod, the cycle rotated to match and repeated r times."""
    q = len(f.cycle)
    cyc = f.cycle[k % q:] + f.cycle[:k % q]
    return RationalStream(f.preperiod + tuple(f.cycle[j % q] for j in range(k)), cyc * r)


@given(WEIGHT_CHARGES, st.one_of(rational_streams(), REPEATING_STREAMS),
       st.integers(0, 7), st.integers(1, 4))
def test_integrate_is_shape_invariant(mu, f, k, r):
    """The value, a null window's message and which window raises it do
    not depend on the shape the stream is given on."""
    g = on_shape(f, k, r)
    assert stream_values(g, 60) == stream_values(f, 60)
    assert raised_at(integrate, mu, g) == raised_at(integrate, mu, f)


@pytest.mark.parametrize("mu", [Frequency(), Geometric(Fraction(2, 3)), PointMass(5),
                                DyadicLimit(), Restrict(DyadicLimit(), multiples(4)),
                                Restrict(Geometric(Fraction(1, 2)), odds()),
                                Mix(((Fraction(1, 2), PointMass(2)),
                                     (Fraction(1, 2), Restrict(Frequency(), evens()))))])
def test_integrate_is_shape_invariant_for_every_kind(mu):
    f = stream([3, 0, Fraction(-1, 2)], [1, 0, 2, Fraction(1, 3), 0, 2])
    want = ref_integrate(mu, f)
    for k in range(8):
        for r in range(1, 4):
            assert integrate(mu, on_shape(f, k, r)) == want


def test_integrate_raises_at_the_same_window_on_any_shape():
    inner = Restrict(Frequency(), empty())
    outer = Restrict(inner, odds())
    mu = Mix(((Fraction(1, 2), Restrict(Geometric(Fraction(1, 3)), empty())),
              (Fraction(1, 2), outer)))
    f = stream([1], [0, 2, 5])
    want = raised_at(ref_integrate, mu, f)
    assert want == ((IllFormedRestrict, "restriction window has base measure 0"),
                    id(mu.parts[0][1]))
    assert raised_at(ref_integrate, outer, f)[1] == id(inner)
    for k in range(4):
        for r in (1, 2, 3):
            g = on_shape(f, k, r)
            assert raised_at(integrate, mu, g) == want
            assert raised_at(integrate, outer, g) == raised_at(ref_integrate, outer, f)
