"""Symbolic discounted values, limit-sign tests, Blackwell policy iteration."""

import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargemdp import blackwell as blackwell_module
from chargemdp import mdp as mdp_module
from chargemdp.blackwell import (Poly, PoleAtOne, RationalFunction,
                                 _bareiss_at, _norm, _order_at_one, _pack,
                                 _packed_cofactors, _packed_cramer,
                                 _packed_order, _policy_choice, _reduced,
                                 _unpack, average_value, blackwell_policy,
                                 discounted_value, discounted_value_at)
from chargemdp.counterexamples import even_or_odd_mdp, late_switch_mdp
from chargemdp.mdp import (Mdp, MdpValidationError, StrategyMismatch,
                           build_mdp, ensure_valid, expected_reward_stream,
                           periodic, random_mdp, stationary, validate)

from conftest import (cleared, enumerate_pure_stationary, leading_sign_at_one, poly_add,
                      monic, poly_eval, poly_mul, poly_of, poly_sub, rational_of, ref_divmod,
                      ref_lowest_terms, ref_poly_gcd, ref_rational_op, sign_near_one,
                      stream_values)

coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
polys = st.lists(coeff, max_size=5).map(lambda cs: poly_of(*cs))

BETA = rational_of(poly_of(0, 1))  # the discount factor b itself


def at_one_minus_eps(p):
    """The polynomial p(1 - e) as a polynomial in e."""
    out = Poly(())
    for c in reversed(p.coeffs):
        out = poly_add(poly_mul(out, poly_of(1, -1)), poly_of(c))
    return out


# ---- polynomials ---------------------------------------------------------

def test_poly_basics():
    p = poly_of(1, 0, -2)
    assert p.degree == 2
    assert poly_eval(p, 3) == 1 - 18
    assert poly_of(0, 0).is_zero
    assert p.render() == "1 + -2*b^2"
    assert poly_of(0).render() == "0"


@given(polys, polys)
def test_poly_ring_identities(p, q):
    assert poly_add(p, q) == poly_add(q, p)
    assert poly_mul(p, q) == poly_mul(q, p)
    assert poly_add(poly_sub(p, q), q) == p
    for x in (Fraction(1, 2), Fraction(-2), Fraction(1)):
        assert poly_eval(poly_mul(p, q), x) == poly_eval(p, x) * poly_eval(q, x)
        assert poly_eval(poly_add(p, q), x) == poly_eval(p, x) + poly_eval(q, x)


@given(polys, polys)
def test_poly_divmod_identity(p, q):
    if q.is_zero:
        with pytest.raises(ZeroDivisionError):
            ref_divmod(p, q)
        return
    quo, rem = ref_divmod(p, q)
    assert poly_add(poly_mul(quo, q), rem) == p
    assert rem.is_zero or rem.degree < q.degree


def poly_gcd(a, b):
    """Monic gcd by ``_reduced``, from the least X = 2**k it takes, so small
    draws reach the retry: a over the reduced numerator is g up to a constant."""
    if a.is_zero or b.is_zero:
        return monic(b if a.is_zero else a)
    num, den = cleared(a), cleared(b)
    k = max(map(abs, den)).bit_length() + 1
    g, rem = ref_divmod(a, _reduced(num, den, gcd(_pack(num, k), _pack(den, k)), k).num)
    assert rem.is_zero
    return monic(g)


@given(polys, polys)
def test_poly_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    if g.is_zero:
        assert p.is_zero and q.is_zero
        return
    assert g.coeffs[-1] == 1  # monic
    assert ref_divmod(p, g)[1].is_zero and ref_divmod(q, g)[1].is_zero


@given(polys, polys, polys)
def test_poly_gcd_matches_euclid(p, q, common):
    p, q = poly_mul(p, common), poly_mul(q, common)
    assert poly_gcd(p, q) == ref_poly_gcd(p, q)


# ---- the gcd from packed values --------------------------------------------

small_ints = st.lists(st.integers(-6, 6), max_size=4)


def _int_mul(p, q):
    return _ref_trim(_ref_mul_add([], p, q))


def _packed_gcd_case(num, den, k):
    """The cofactors by the packed path at 2**k (None when it declines),
    and those by the primitive integer form of ``ref_poly_gcd``."""
    packed = _packed_cofactors(num, den, gcd(_pack(num, k), _pack(den, k)), k)
    g = cleared(ref_poly_gcd(poly_of(*num), poly_of(*den)))
    by_sequence = (_ref_exact(num, g), _ref_exact(den, g))
    return packed, by_sequence


def _ref_exact(p, g):
    quo, rem = ref_divmod(poly_of(*p), poly_of(*g))
    assert rem.is_zero
    return [int(c) for c in quo.coeffs]


def _same_up_to_sign(pair, other):
    return pair == other or pair == tuple([-c for c in p] for p in other)


@given(small_ints, small_ints, small_ints, st.integers(0, 3),
       st.integers(1, 12), st.integers(1, 12), st.booleans(), st.booleans())
# num = 2(b-1)(2b+3), den = (b-1)(b+4): at X = 16 their gcd reads as (b-1)(b-6)
@example([-6, -4], [-4, -1], [-1], 1, 1, 1, False, True)
@settings(max_examples=200, deadline=None)
def test_packed_gcd_matches_remainder_sequence(a, b, c, m, content_a, content_b, zero_num,
                                               tight):
    # num = content_a * a * C, den = content_b * b * C with C = c * (b-1)**m
    common = [1]
    for _ in range(m):
        common = _int_mul(common, [-1, 1])
    common = _int_mul(common, c or [1])
    num = [] if zero_num else _int_mul([content_a], _int_mul(a, common))
    den = _int_mul([content_b], _int_mul(b, common))
    if not den:
        return
    # 2**k > 2 * max 1-norm, as _packed_cramer sizes k from the rows'
    # 1-norms, or, tight, 2**k > 2 * max |coefficient|, the least
    # _reduced takes, where the packed path declines on some draws
    bound = max(map(abs, num + den)) if tight else max(sum(map(abs, num)), sum(map(abs, den)))
    k = bound.bit_length() + 1
    packed, by_sequence = _packed_gcd_case(num, den, k)
    assert packed is None or _same_up_to_sign(packed, by_sequence)
    # where the packed path declines, _reduced retries at 2**(2k)
    f = _reduced(num, den, gcd(_pack(num, k), _pack(den, k)), k)
    assert f == rational_of(poly_of(*num), poly_of(*den))


def test_packed_gcd_reads_a_planted_factor():
    # (b-1)**2 * (b+2) and (b-1)**2 * (2b-1): the packed candidate is (b-1)**2
    num = _int_mul([1, -2, 1], [2, 1])
    den = _int_mul([1, -2, 1], [-1, 2])
    k = sum(map(abs, num)).bit_length() + 1
    packed, by_sequence = _packed_gcd_case(num, den, k)
    assert packed == ([2, 1], [-1, 2])
    assert _same_up_to_sign(packed, by_sequence)


def test_packed_gcd_below_the_bound_falls_back():
    # (b-1)(b+2) and (b-1)(2b+1) at X = 4, below the bound
    # 2*||den||_inf + 2 = 6: gcd(18, 27) = 9 reads as (b-1)**2, which
    # divides neither; at X = 16, gcd(270, 495) = 45 reads as 3(b-1).
    num, den, k = [-2, 1, 1], [-1, -1, 2], 2
    gamma = gcd(_pack(num, k), _pack(den, k))
    assert _unpack(gamma, k) == [1, -2, 1]
    assert _packed_cofactors(num, den, gamma, k) is None
    assert _packed_cofactors(num, den, gcd(_pack(num, 2 * k), _pack(den, 2 * k)), 2 * k) == \
        ([2, 1], [1, 2])
    f = _reduced(num, den, gamma, k)
    assert (f.ints_num, f.ints_den) == ((2, 1), (1, 2))
    assert f == rational_of(poly_of(*num), poly_of(*den))


@given(polys)
def test_at_one_minus_eps(p):
    # substituting b = 1 - e then evaluating at e must recover p(1 - e)
    for e in (Fraction(0), Fraction(1, 3), Fraction(-2)):
        assert poly_eval(at_one_minus_eps(p), e) == poly_eval(p, 1 - e)


def test_leading_sign_at_one():
    assert leading_sign_at_one(poly_of(-1, 1).coeffs) == -1   # b - 1 = -e
    assert leading_sign_at_one(poly_of(1, -1).coeffs) == 1    # 1 - b = e
    assert leading_sign_at_one(poly_of(2).coeffs) == 1
    assert leading_sign_at_one(poly_of().coeffs) == 0


@given(polys)
def test_leading_sign_at_one_matches_expansion(p):
    # reference: the first nonzero coefficient of p(1 - e)
    first = next((c for c in at_one_minus_eps(p).coeffs if c), 0)
    assert leading_sign_at_one(p.coeffs) == (first > 0) - (first < 0)


def _b_minus_one_to(m: int) -> Poly:
    out = poly_of(1)
    for _ in range(m):
        out = poly_mul(out, poly_of(-1, 1))
    return out


@given(polys, st.integers(0, 3))
def test_order_at_one(p, extra):
    # p = (b-1)^m * q with q(1) != 0, also when p has (b-1) factors built in
    p = poly_mul(p, _b_minus_one_to(extra))
    m, at_one = _order_at_one(list(p.coeffs))
    if p.is_zero:
        assert (m, at_one) == (0, 0)
        return
    assert m >= extra and at_one != 0
    quo, rem = ref_divmod(p, _b_minus_one_to(m))
    assert rem.is_zero
    assert poly_eval(quo, 1) == at_one


@st.composite
def orders_at_one(draw):
    """(p, n, m, q(1)): p = (b-1)^m * q of degree d <= n with q(1) != 0,
    m from 0 to d, coefficients as lists; p = 0 on some draws."""
    n = draw(st.integers(1, 8))
    if draw(st.integers(0, 9)) == 0:
        return [], n, 0, 0
    d = draw(st.sampled_from([n, draw(st.integers(0, n))]))
    m = draw(st.integers(0, d))
    top = draw(st.sampled_from([3, 10 ** 6, 10 ** 30]))
    q = draw(st.lists(st.integers(-top, top), min_size=d - m + 1, max_size=d - m + 1))
    q[-1] = q[-1] or 1
    if not sum(q):  # so len(q) > 1, and q keeps its degree
        q[0] += 1
    p = q
    for _ in range(m):
        p = _int_mul(p, [-1, 1])
    return p, n, m, sum(q)


def _smallest_k(p, n):
    """The least k with 2**k > 2 * n * ||p||_1, and at least 1."""
    return (n * sum(map(abs, p))).bit_length() + 1


@given(orders_at_one())
@settings(max_examples=300)
def test_packed_order_reads_residues_mod_base_minus_one(case):
    p, n, m, q_at_one = case
    assert len(p) - 1 <= n and _order_at_one(p) == (m, q_at_one)
    k = _smallest_k(p, n)
    v = _pack(p, k)
    assert _unpack(v, k) == p
    assert _packed_order(v, k) == _order_at_one(_unpack(v, k)) == (m, q_at_one)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_packed_order_unpacks_only_past_order_one(monkeypatch, m):
    # p = (b-1)^m * (2 + b): the first two orders are residues, order 2
    # and up unpack the second quotient once
    p = [2, 1]
    for _ in range(m):
        p = _int_mul(p, [-1, 1])
    unpacked = []
    monkeypatch.setattr(blackwell_module, "_unpack",
                        lambda v, k: unpacked.append(v) or _unpack(v, k))
    k = _smallest_k(p, len(p) - 1)
    assert _packed_order(_pack(p, k), k) == (m, 3)
    assert len(unpacked) == (m >= 2)


# ---- rational functions --------------------------------------------------

def test_rational_function_reduces():
    f = rational_of(poly_of(-1, 0, 1), poly_of(-1, 1))  # (b^2-1)/(b-1)
    assert f.num == poly_of(1, 1)
    assert f.den == poly_of(1)
    assert f.render() == "(1 + 1*b)/(1)"


def test_rational_function_monic_denominator():
    f = rational_of(poly_of(1), poly_of(0, 2))
    assert f.den == poly_of(0, 1)
    assert f.num == poly_of(Fraction(1, 2))


@given(polys, polys, polys, polys)
@settings(max_examples=50)
def test_rational_function_field_identities(a, b, c, d):
    if b.is_zero or d.is_zero:
        return
    f = rational_of(a, b)
    g = rational_of(c, d)
    x = Fraction(5, 7)  # generic point, no pole for these small denominators
    if poly_eval(b, x) == 0 or poly_eval(d, x) == 0:
        return
    assert (f + g - g).evaluate(x) == f.evaluate(x)
    assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)
    if not g.is_zero:
        assert (f / g * g).evaluate(x) == f.evaluate(x)


rational_functions = st.tuples(polys, polys.filter(lambda p: not p.is_zero)).map(
    lambda nd: rational_of(*nd))


@given(rational_functions, rational_functions)
@settings(max_examples=100, deadline=None)
def test_operators_on_integer_pairs_match_the_poly_route(f, g):
    for op, fn in (("+", f.__add__), ("-", f.__sub__), ("*", f.__mul__), ("/", f.__truediv__)):
        try:
            want = ref_rational_op(op, f, g)
        except ZeroDivisionError as err:
            with pytest.raises(ZeroDivisionError, match=f"^{err}$"):
                fn(g)
            continue
        got = fn(g)
        assert (got.ints_num, got.ints_den) == (want.ints_num, want.ints_den), op
        assert got.render() == want.render()


def test_rational_function_stores_the_reduced_integer_pair():
    # (2 + 4b) / (-4 - 6b) = (-1 - 2b) / (2 + 3b): the content 2 divided
    # out, and the sign taken so that the denominator leads positive
    f = rational_of(poly_of(2, 4), poly_of(-4, -6))
    assert (f.ints_num, f.ints_den) == ((-1, -2), (2, 3))
    assert f.num == poly_of(Fraction(-1, 3), Fraction(-2, 3))
    assert f.den == poly_of(Fraction(2, 3), 1)
    g = rational_of(poly_of(Fraction(1, 2), 1), poly_of(-1, Fraction(-3, 2)))
    assert f == g and hash(f) == hash(g)
    assert f.evaluate(Fraction(1, 2)) == Fraction(-4, 7)
    zero = RationalFunction.const(0)
    assert zero == RationalFunction((), (1,)) == -zero
    assert zero.evaluate(7) == 0 and zero.render() == "(0)/(1)"
    # the packed gcd of a constant still leaves the content to divide out
    num, den, k = [2, 4], [-2, -6], 5
    assert _reduced(num, den, gcd(_pack(num, k), _pack(den, k)), k) == \
        RationalFunction((-1, -2), (1, 3))


@given(st.fractions(min_value=-50, max_value=50, max_denominator=1000) | st.just(Fraction(0)))
def test_const_matches_the_poly_route(q):
    # const builds the reduced integer pair itself, without a gcd
    f, want = RationalFunction.const(q), rational_of(poly_of(q))
    assert (f.ints_num, f.ints_den) == (want.ints_num, want.ints_den)
    assert f == want and hash(f) == hash(want)
    assert f.evaluate(Fraction(1, 3)) == q


def test_sign_near_one():
    one = RationalFunction.const(1)
    assert sign_near_one(one - BETA) == 1           # 1 - b > 0 below 1
    assert sign_near_one(BETA - one) == -1
    assert sign_near_one(RationalFunction.const(0)) == 0
    # (1-b)^2 / (1-b) is positive just below 1 even though it vanishes at 1
    f = rational_of(poly_of(1, -2, 1), poly_of(1, -1))
    assert sign_near_one(f) == 1


# ---- discounted values ---------------------------------------------------

def test_discounted_value_even_or_odd():
    m = even_or_odd_mdp()
    v = discounted_value(m, stationary({"1": "T", "2": "c", "3": "c"}))
    # from state 1 the stream is 1,0,1,0,...: value 1/(1-b^2)
    assert v["1"] == rational_of(poly_of(1), poly_of(1, 0, -1))
    assert v["1"].evaluate(Fraction(1, 2)) == Fraction(4, 3)
    assert v["2"].evaluate(Fraction(1, 2)) == Fraction(2, 3)


def test_discounted_value_matches_stream_tail():
    # truncated geometric sum of the exact reward stream approaches v(b)
    m = late_switch_mdp()
    pi = stationary({"1": "T", "2": "c"})
    v = discounted_value(m, pi)["1"]
    beta = Fraction(9, 10)
    f = expected_reward_stream(m, pi)
    partial = sum(beta ** (t - 1) * r for t, r in enumerate(stream_values(f, 199), 1))
    assert abs(v.evaluate(beta) - partial) < Fraction(1, 10 ** 8)


@given(st.integers(0, 300), st.fractions(min_value="1/10", max_value="9/10",
                                         max_denominator=10))
@settings(max_examples=40, deadline=None)
def test_symbolic_and_numeric_discounted_agree(seed, beta):
    rng = random.Random(seed)
    m = random_mdp(rng)
    pi = stationary({s: rng.choice(acts) for s, acts in zip(m.states, m.actions)})
    sym = discounted_value(m, pi)
    num = discounted_value_at(m, pi, beta)
    for s in m.states:
        assert sym[s].evaluate(beta) == num[s]


# ---- average values ------------------------------------------------------

def test_average_value_even_or_odd():
    m = even_or_odd_mdp()
    avg = average_value(m, stationary({"1": "T", "2": "c", "3": "c"}))
    assert avg == {"1": Fraction(1, 2), "2": Fraction(1, 2), "3": Fraction(1, 2)}


def test_average_value_late_switch():
    m = late_switch_mdp()
    assert average_value(m, stationary({"1": "B", "2": "c"})) == \
        {"1": Fraction(3, 2), "2": Fraction(3, 2)}
    assert average_value(m, stationary({"1": "T", "2": "c"})) == \
        {"1": Fraction(1), "2": Fraction(3, 2)}


@given(st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_average_value_is_cycle_mean_from_initial(seed):
    from conftest import cycle_mean, random_deterministic_mdp
    rng = random.Random(seed)
    m = random_deterministic_mdp(rng)
    pi = stationary({s: rng.choice(acts) for s, acts in zip(m.states, m.actions)})
    f = expected_reward_stream(m, pi)
    assert average_value(m, pi)[m.initial] == cycle_mean(f)


# ---- Blackwell optimality ------------------------------------------------

def test_blackwell_policy_even_or_odd():
    pi = blackwell_policy(even_or_odd_mdp())
    assert pi.action("1") == "T"


def test_blackwell_policy_late_switch():
    pi = blackwell_policy(late_switch_mdp())
    assert pi.action("1") == "B"
    assert average_value(late_switch_mdp(), pi)["1"] == Fraction(3, 2)


@given(st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_blackwell_policy_dominates(seed):
    m = random_mdp(random.Random(seed))
    pi = blackwell_policy(m)
    v = discounted_value(m, pi)
    for other in enumerate_pure_stationary(m):
        w = discounted_value(m, other)
        for s in m.states:
            assert sign_near_one(v[s] - w[s]) >= 0


def _sweep_draws():
    """Ten random 4-state, 3-action MDPs, each followed by a discount
    factor 1 - 10**-k, k = 2..6, drawn from one generator in that order."""
    rng = random.Random(20260823)
    betas = [1 - Fraction(1, 10 ** k) for k in range(2, 7)]
    for _ in range(10):
        m = random_mdp(rng, n_states=4, n_actions=3)
        yield m, rng.choice(betas)


@pytest.mark.parametrize("m, beta", _sweep_draws(), ids=range(10))
def test_blackwell_policy_dominates_4x3(m, beta):
    # each pure stationary rival is compared at every state, 3240 in all;
    # the symbolic value must also match the numeric solve at beta
    pi = blackwell_policy(m)
    v = discounted_value(m, pi)
    for other in enumerate_pure_stationary(m):
        w = discounted_value(m, other)
        for s in m.states:
            assert sign_near_one(v[s] - w[s]) >= 0
    at = discounted_value_at(m, pi, beta)
    assert all(v[s].evaluate(beta) == at[s] for s in m.states)


@pytest.mark.parametrize("solve", [
    discounted_value, average_value,
    lambda m, sigma: discounted_value_at(m, sigma, Fraction(1, 2))])
def test_values_take_a_stationary_strategy(solve):
    m = even_or_odd_mdp()
    sigma = periodic([{"1": "B", "2": "c", "3": "c"}], [{"1": "T", "2": "c", "3": "c"}])
    with pytest.raises(ValueError, match="take a stationary strategy, "
                                         "not one of preperiod 1 and period 1$"):
        solve(m, sigma)
    # one phase is a stationary strategy, whatever its type
    one_phase = periodic([], [{"1": "T", "2": "c", "3": "c"}])
    assert solve(m, one_phase) == solve(m, stationary({"1": "T", "2": "c", "3": "c"}))


def test_queries_raise_for_the_mdp_then_the_strategy_then_beta():
    # _policy_choice validates the MDP, then resolves the strategy; the
    # numeric twin reads beta only after both
    m = even_or_odd_mdp()
    broken = Mdp(m.states, m.initial, m.actions,
                 ((m.rows[0][0], (2, 0, ((1, 1),))), *m.rows[1:]))  # (1, B) sums to 1/2
    wrong = stationary({"1": "X", "2": "c", "3": "c"})

    def twin(mdp, sigma):
        return discounted_value_at(mdp, sigma, "b")
    for solve in (discounted_value, average_value, twin):
        with pytest.raises(MdpValidationError, match="row sums to 1/2"):
            solve(broken, wrong)
        with pytest.raises(StrategyMismatch):
            solve(m, wrong)
    with pytest.raises(ValueError, match="Invalid literal for Fraction: 'b'"):
        twin(m, stationary({"1": "T", "2": "c", "3": "c"}))


def test_discounted_value_at_singular_factor():
    # I - bP is singular at b = 1 for every policy, and at b = -1 when the
    # chain has a cycle of even length (here 1 -> 2 -> 1)
    m = even_or_odd_mdp()
    pi = stationary({"1": "T", "2": "c", "3": "c"})
    for beta in (1, -1):
        with pytest.raises(ZeroDivisionError, match=f"beta = {beta}$"):
            discounted_value_at(m, pi, beta)


# ---- stored integers against the monic form of ``ref_lowest_terms`` ----------

# rationals strictly inside (-1, 1), where I - bP is never singular
inside_unit = st.fractions(min_value=-1, max_value=1, max_denominator=60).filter(
    lambda x: abs(x) < 1)


@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 3), inside_unit)
@settings(max_examples=50, deadline=None)
def test_stored_integers_read_as_the_monic_reference(seed, n_states, n_actions, beta):
    m = random_mdp(random.Random(seed), n_states, n_actions)
    for pi in enumerate_pure_stationary(m):
        det, nums = _cramer(m, pi)
        v = discounted_value(m, pi)
        at = discounted_value_at(m, pi, beta)
        for s, num in zip(m.states, nums):
            f, (want_num, want_den) = v[s], ref_lowest_terms(poly_of(*num), poly_of(*det))
            assert (f.num.coeffs, f.den.coeffs) == (want_num.coeffs, want_den.coeffs)
            assert f.render() == f"({want_num.render()})/({want_den.render()})"
            again = rational_of(f.num, f.den)
            assert f == again and hash(f) == hash(again)
            assert f.evaluate(beta) == at[s]
            if poly_eval(want_den, 1) == 0:
                with pytest.raises(ZeroDivisionError, match="^pole at 1$"):
                    f.evaluate(1)


def test_discounted_value_builds_no_fraction(monkeypatch):
    built = []
    real = Fraction

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(blackwell_module, "Fraction", counting)
    m = random_mdp(random.Random(5), 3, 3)
    pi = blackwell_policy(m)
    built.clear()
    v = discounted_value(_fresh(m), pi)  # eliminates afresh
    assert built == []
    assert v == discounted_value(m, pi) and built == []
    first, second, *_ = m.states
    assert v[first].num.coeffs and built
    built.clear()
    assert v[second].render() and built
    built.clear()
    assert v[second].render() and built == []  # the monic form is kept


# ---- reference: Gaussian elimination over rational functions ---------------
#
# The solver before the fraction-free rewrite: every entry a reduced
# RationalFunction, one polynomial gcd per arithmetic operation.  Kept as
# the oracle the Bareiss solver must match exactly.

def _ref_solve_linear(a, b):
    n = len(b)
    a = [row[:] for row in a]
    b = b[:]
    for col in range(n):
        piv = next(r for r in range(col, n) if not a[r][col].is_zero)
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(n):
            if r != col and not a[r][col].is_zero:
                k = a[r][col] / a[col][col]
                a[r] = [x - k * y for x, y in zip(a[r], a[col])]
                b[r] = b[r] - k * b[col]
    return [b[i] / a[i][i] for i in range(n)]


def _dense_policy_rows(mdp, pi):
    """(reward, dense transition row) of each state's action under the
    pure stationary pi, read from the public Fraction views."""
    rows = []
    for i, s in enumerate(mdp.states):
        j = mdp.actions[i].index(pi.action(s))
        rows.append((mdp.rewards[i][j], mdp.transitions[i][j]))
    return rows


def _ref_discounted_value(mdp, pi):
    ensure_valid(mdp)
    rows = _dense_policy_rows(mdp, pi)
    n = len(mdp.states)
    a = [[RationalFunction.const(1 if i == k else 0)
          - BETA * RationalFunction.const(rows[i][1][k]) for k in range(n)]
         for i in range(n)]
    b = [RationalFunction.const(rows[i][0]) for i in range(n)]
    v = _ref_solve_linear(a, b)
    return {s: v[i] for i, s in enumerate(mdp.states)}


def _ref_blackwell_policy(mdp):
    choice = {s: mdp.actions[i][0] for i, s in enumerate(mdp.states)}
    while True:
        pi = stationary(choice)
        v = _ref_discounted_value(mdp, pi)
        changed = False
        for i, s in enumerate(mdp.states):
            for j, a in enumerate(mdp.actions[i]):
                if a == choice[s]:
                    continue
                q = RationalFunction.const(mdp.rewards[i][j])
                for k, z in enumerate(mdp.states):
                    p = mdp.transitions[i][j][k]
                    if p:
                        q = q + BETA * RationalFunction.const(p) * v[z]
                if sign_near_one(q - v[s]) > 0:
                    choice[s] = a
                    changed = True
                    break
        if not changed:
            return pi


def _ref_average_value(mdp, pi):
    one_minus = rational_of(poly_of(1, -1))
    out = {}
    for s, v in _ref_discounted_value(mdp, pi).items():
        g = one_minus * v
        if poly_eval(g.den, 1) == 0:
            raise PoleAtOne(f"residual pole at 1 for state {s!r}")
        out[s] = g.evaluate(1)
    return out


@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_solver_matches_reference(seed, n_states, n_actions):
    m = random_mdp(random.Random(seed), n_states, n_actions)
    pi = blackwell_policy(m)
    assert pi == _ref_blackwell_policy(m)
    v, ref = discounted_value(m, pi), _ref_discounted_value(m, pi)
    for s in m.states:
        assert (v[s].num.coeffs, v[s].den.coeffs) == (ref[s].num.coeffs, ref[s].den.coeffs)
    assert average_value(m, pi) == _ref_average_value(m, pi)


# ---- reference: Bareiss over Z[b] on integer-polynomial lists ------------
#
# The elimination before packing at b = 2**k: every entry an int list, low
# order first, and each exact division a polynomial long division.  Kept as
# the oracle the packed _cramer must match exactly.

def _cramer(mdp, pi):
    """det(I - bP) and the Cramer numerators N_i as integer polynomials,
    unpacked from ``_packed_cramer``."""
    k, det, nums = _packed_cramer(mdp, _policy_choice(mdp, pi))
    return _unpack(det, k), [_unpack(num, k) for num in nums]


def _ref_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _ref_mul_add(acc, p, q):
    acc += [0] * (len(p) + len(q) - 1 - len(acc))
    for i, a in enumerate(p):
        if a:
            for j, c in enumerate(q):
                acc[i + j] += a * c
    return acc


def _ref_cross_exact(a, d, c, e, prev):
    # (a*d - c*e) / prev in Z[b]
    rem = _ref_trim(_ref_mul_add(_ref_mul_add([], a, d), [-x for x in c], e))
    lead = prev[-1]
    quo = [0] * (len(rem) - len(prev) + 1)
    for shift in range(len(quo) - 1, -1, -1):
        k = rem[shift + len(prev) - 1] // lead
        if k:
            quo[shift] = k
            for i, x in enumerate(prev):
                rem[shift + i] -= k * x
    return quo


def _ref_scaled_row(i, reward, dist):
    scale = lcm(reward.denominator, *(p.denominator for p in dist))
    row = [_ref_trim([scale if i == k else 0, -(scale // p.denominator) * p.numerator])
           for k, p in enumerate(dist)]
    row.append(_ref_trim([scale // reward.denominator * reward.numerator]))
    return row


def _ref_cramer(mdp, pi):
    rows = [_ref_scaled_row(i, reward, dist)
            for i, (reward, dist) in enumerate(_dense_policy_rows(mdp, pi))]
    n = len(rows)
    prev = [1]
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        for i, row in enumerate(rows):
            if i != k:
                lead = row[k]
                for j in range(k + 1, n + 1):
                    row[j] = _ref_cross_exact(pivot, row[j], lead, pivot_row[j], prev)
        prev = pivot
    return prev, [row[n] for row in rows]


@st.composite
def wide_chains(draw):
    """A one-action MDP of 1-8 states with denominators up to 10**6 and
    rewards up to 10**9 in absolute value; some rows absorbing, and on
    some draws every reward 0."""
    n = draw(st.integers(1, 8))
    states = [f"s{i}" for i in range(n)]
    silent = draw(st.booleans())
    rewards, transitions = {}, {}
    for s in states:
        rewards[(s, "a")] = 0 if silent else Fraction(
            draw(st.integers(-10 ** 9, 10 ** 9)), draw(st.integers(1, 10 ** 6)))
        if draw(st.integers(0, 3)) == 0:
            transitions[(s, "a")] = {s: 1}
            continue
        d = draw(st.integers(1, 10 ** 6))
        cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
        transitions[(s, "a")] = {z: Fraction(hi - lo, d)
                                 for z, lo, hi in zip(states, [0] + cuts, cuts + [d])}
    m = build_mdp(states, states[0], {s: ("a",) for s in states}, rewards, transitions)
    return m, stationary({s: "a" for s in states}), silent


@given(wide_chains())
@settings(max_examples=60, deadline=None)
def test_packed_cramer_matches_polynomial_bareiss(case):
    m, pi, silent = case
    det, nums = _cramer(m, pi)
    assert (det, nums) == _ref_cramer(m, pi)
    if silent:
        assert nums == [[]] * len(m.states)


@given(st.integers(2, 80), st.data())
def test_unpack_round_trips_balanced_digits(k, data):
    bound = (1 << (k - 1)) - 1   # |c| < 2**k / 2
    cs = _ref_trim(data.draw(st.lists(st.integers(-bound, bound), max_size=12)))
    assert _unpack(_pack(cs, k), k) == cs


# ---- cross-check against sympy ----------------------------------------------

def _fixed_cases():
    yield even_or_odd_mdp(), stationary({"1": "T", "2": "c", "3": "c"})
    yield late_switch_mdp(), stationary({"1": "T", "2": "c"})
    for seed, n, a in ((1, 3, 2), (2, 4, 3), (3, 5, 2), (4, 6, 3)):
        rng = random.Random(seed)
        m = random_mdp(rng, n, a)
        yield m, stationary({s: rng.choice(acts) for s, acts in zip(m.states, m.actions)})


def test_det_and_values_match_sympy():
    sympy = pytest.importorskip("sympy")
    b = sympy.Symbol("b")

    def poly_expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * b ** i
                   for i, c in enumerate(p.coeffs))

    for m, pi in _fixed_cases():
        rows = _dense_policy_rows(m, pi)
        n = len(rows)
        a = sympy.Matrix(n, n, lambda i, k: int(i == k) - b * sympy.Rational(
            rows[i][1][k].numerator, rows[i][1][k].denominator))
        r = sympy.Matrix([sympy.Rational(q.numerator, q.denominator) for q, _ in rows])
        # _cramer scales row i by the lcm of its denominators
        scale = prod(lcm(q.denominator, *(p.denominator for p in dist)) for q, dist in rows)
        det, _ = _cramer(m, pi)
        assert sympy.expand(sum(c * b ** i for i, c in enumerate(det)) / scale
                            - a.det()) == 0
        want = a.LUsolve(r)
        v = discounted_value(m, pi)
        for i, s in enumerate(m.states):
            diff = poly_expr(v[s].num) / poly_expr(v[s].den) - want[i]
            assert sympy.cancel(sympy.together(diff)) == 0


# ---- policy iteration on action indices; validity once per Mdp ------------

def _ref_named_blackwell_policy(mdp):
    """The packed loop before it iterated on action indices: the policy a
    mapping from state names to action names, compiled to rows by
    ``_policy_choice`` every round, and each sign read from the
    unpacked residual."""
    ensure_valid(mdp)
    widest = max(_norm(row) for cell in mdp.rows for row in cell)
    choice = {s: mdp.actions[i][0] for i, s in enumerate(mdp.states)}
    while True:
        pi = stationary(choice)
        rows = [mdp.rows[i][j] for i, j in enumerate(_policy_choice(mdp, pi))]
        k = (prod(map(_norm, rows)) * widest).bit_length() + 1
        det, nums = _bareiss_at(rows, k)
        det_sign = leading_sign_at_one(_unpack(det, k))
        changed = False
        for i, s in enumerate(mdp.states):
            for a, (scale, rhs, sparse) in zip(mdp.actions[i], mdp.rows[i]):
                if a == choice[s]:
                    continue
                ahead = sum(w * nums[z] for z, w in sparse)
                residual = rhs * det - scale * nums[i] + (ahead << k)
                if leading_sign_at_one(_unpack(residual, k)) * det_sign > 0:
                    choice[s] = a
                    changed = True
                    break
        if not changed:
            return pi


@st.composite
def mdps_with_twins(draw):
    """1-5 states with 1-4 actions each, probabilities over 2, 6 or 30;
    an action may repeat an earlier action's row under its own name."""
    n = draw(st.integers(1, 5))
    states = [f"s{i}" for i in range(n)]
    actions, rewards, transitions = {}, {}, {}
    for s in states:
        actions[s] = [f"a{j}" for j in range(draw(st.integers(1, 4)))]
        for j, a in enumerate(actions[s]):
            if j and draw(st.booleans()):
                twin = (s, actions[s][draw(st.integers(0, j - 1))])
                rewards[(s, a)], transitions[(s, a)] = rewards[twin], transitions[twin]
                continue
            d = draw(st.sampled_from([2, 6, 30]))
            rewards[(s, a)] = Fraction(draw(st.integers(-d, d)), d)
            cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
            transitions[(s, a)] = {z: Fraction(hi - lo, d)
                                   for z, lo, hi in zip(states, [0] + cuts, cuts + [d])}
    return build_mdp(states, states[0], actions, rewards, transitions)


@given(mdps_with_twins())
@settings(max_examples=150, deadline=None)
def test_index_policy_iteration_matches_named_loop(m):
    assert blackwell_policy(m) == _ref_named_blackwell_policy(m)


def test_twin_actions_tie_to_the_lowest_index():
    # a1 and a2 are the same row and both beat a0; a3 repeats a0
    rows = {"a0": (0, "s"), "a1": (1, "s"), "a2": (1, "s"), "a3": (0, "s")}
    m = build_mdp(["s"], "s", {"s": list(rows)},
                  {("s", a): r for a, (r, _) in rows.items()},
                  {("s", a): {z: 1} for a, (_, z) in rows.items()})
    assert blackwell_policy(m) == stationary({"s": "a1"})
    assert blackwell_policy(m) == _ref_named_blackwell_policy(m)
    # no twin of the starting action improves on it
    m = build_mdp(["s"], "s", {"s": ["a0", "a1"]}, {("s", "a0"): 1, ("s", "a1"): 1},
                  {("s", "a0"): {"s": 1}, ("s", "a1"): {"s": 1}})
    assert blackwell_policy(m) == stationary({"s": "a0"})


def _count_validate(monkeypatch) -> list:
    calls = []
    real = mdp_module.validate

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(mdp_module, "validate", counted)
    return calls


def _late_switch_twin():
    # late_switch_mdp's data, built afresh so no validity is cached yet
    m = late_switch_mdp()
    return Mdp(m.states, m.initial, m.actions, m.rows)


def test_ensure_valid_validates_each_mdp_once(monkeypatch):
    calls = _count_validate(monkeypatch)
    m = _late_switch_twin()
    for _ in range(3):
        assert ensure_valid(m) is m
    pi = blackwell_policy(m)
    discounted_value(m, pi)
    average_value(m, pi)
    discounted_value_at(m, pi, Fraction(1, 2))
    assert calls == [m]
    other = _late_switch_twin()  # equal, but another object
    assert other == m and ensure_valid(other) is other
    assert len(calls) == 2 and calls[1] is other


def test_invalid_mdp_raises_the_same_problems_every_call(monkeypatch):
    calls = _count_validate(monkeypatch)
    m = Mdp(("a", "a"), "z", (("x",), ()), (((2, 0, ((0, 1),)),), ()))
    raised = []
    for solve in (ensure_valid, ensure_valid, blackwell_policy):
        with pytest.raises(MdpValidationError) as info:
            solve(m)
        raised.append(info.value)
    assert len(calls) == 1
    want = mdp_module.validate(m)
    assert [p.kind for p in want] == ["UnknownState", "DuplicateState", "RowSumError",
                                      "MissingAction"]
    for err in raised:
        assert err.problems == want and str(err) == str(raised[0])
    raised[0].problems.clear()  # each raise has its own list
    assert raised[1].problems == want
    with pytest.raises(MdpValidationError, match="RowSumError"):
        ensure_valid(m)


def test_validate_returns_a_fresh_list():
    m = late_switch_mdp()
    assert ensure_valid(m) is m
    first = validate(m)
    assert first == [] and first is not validate(m)
    first.append("not a problem")
    assert validate(m) == [] and ensure_valid(m) is m


# ---- one elimination per policy: the Mdp keeps its last -------------------

def _count_eliminations(monkeypatch) -> list:
    calls = []
    real = blackwell_module._bareiss_at

    def counted(rows, k):
        calls.append(k)
        return real(rows, k)

    monkeypatch.setattr(blackwell_module, "_bareiss_at", counted)
    return calls


def _fresh(m):
    """m's data in a new object, with nothing kept on it yet."""
    return Mdp(m.states, m.initial, m.actions, m.rows)


def test_a_query_sequence_eliminates_its_policy_once(monkeypatch):
    eliminations = _count_eliminations(monkeypatch)
    rounds = []
    real_stationary = blackwell_module.stationary
    monkeypatch.setattr(blackwell_module, "stationary",
                        lambda choice: rounds.append(choice) or real_stationary(choice))
    most_rounds = 0
    for seed in range(30):
        rng = random.Random(seed)
        m = random_mdp(rng, rng.randint(1, 5), rng.randint(1, 3))
        eliminations.clear()
        rounds.clear()
        pi = blackwell_policy(m)
        v, g = discounted_value(m, pi), average_value(m, pi)
        assert len(eliminations) == len(rounds)
        most_rounds = max(most_rounds, len(rounds))
        twin = _fresh(m)
        assert (v, g) == (discounted_value(twin, pi), average_value(twin, pi))
    assert most_rounds > 1


def test_the_kept_elimination_serves_only_its_own_policy_and_mdp(monkeypatch):
    m = random_mdp(random.Random(3), 4, 3)
    pi = blackwell_policy(m)
    other = stationary({s: acts[-1] if pi.action(s) == acts[0] else acts[0]
                        for s, acts in zip(m.states, m.actions)})
    assert discounted_value(_fresh(m), other) != discounted_value(_fresh(m), pi)
    # another policy on the same Mdp: solved afresh, then the kept one again
    assert discounted_value(m, other) == discounted_value(_fresh(m), other)
    assert average_value(m, other) == average_value(_fresh(m), other)
    assert discounted_value(m, pi) == discounted_value(_fresh(m), pi)
    assert average_value(m, pi) == average_value(_fresh(m), pi)
    # an equal Mdp in another object keeps its own
    twin = _fresh(m)
    assert twin == m
    eliminations = _count_eliminations(monkeypatch)
    assert discounted_value(twin, pi) == discounted_value(m, pi)
    assert len(eliminations) == 1
    assert average_value(m, pi) == average_value(twin, pi)
    assert len(eliminations) == 1


@pytest.mark.parametrize("solve", [discounted_value, average_value])
def test_the_kept_elimination_still_checks_the_strategy(solve):
    m = even_or_odd_mdp()
    pi = blackwell_policy(m)
    solve(m, pi)
    assert m._solved  # the policy's elimination is kept
    rest = {"2": "c", "3": "c"}
    with pytest.raises(ValueError, match="randomized at state '1'$"):
        solve(m, stationary({"1": {"T": Fraction(1, 2), "B": Fraction(1, 2)}, **rest}))
    with pytest.raises(ValueError, match="take a stationary strategy"):
        solve(m, periodic([{"1": pi.action("1"), **rest}],
                          [{"1": {"T": "B", "B": "T"}[pi.action("1")], **rest}]))
    with pytest.raises(StrategyMismatch):
        solve(m, stationary({"1": "X", **rest}))
    assert solve(m, pi) == solve(_fresh(m), pi)


_REST = {"2": "c", "3": "c"}
_HALF = {"T": Fraction(1, 2), "B": Fraction(1, 2)}


@pytest.mark.parametrize("pi, error, message", [
    (stationary({"1": _HALF, **_REST}), ValueError, "strategy is randomized at state '1'"),
    # the first fault in state order is the one named
    (stationary({"1": _HALF, "2": "zz", "3": "c"}), ValueError,
     "strategy is randomized at state '1'"),
    (stationary({"1": "X", **_REST}), StrategyMismatch, "phase 1, state '1': unknown action 'X'"),
    (stationary({"1": "T", "3": "c"}), StrategyMismatch, "phase 1, state '2': no action given"),
    (periodic([], [{"1": "T", **_REST}, {"1": "B", **_REST}]), ValueError,
     "discounted and average values take a stationary strategy, "
     "not one of preperiod 0 and period 2"),
    (periodic([{"1": "T", **_REST}], [{"1": "B", **_REST}]), ValueError,
     "discounted and average values take a stationary strategy, "
     "not one of preperiod 1 and period 1"),
    # an undeclared action is named before the randomization is
    (stationary({"1": {"T": Fraction(1, 2), "X": Fraction(1, 2)}, **_REST}), StrategyMismatch,
     "phase 1, state '1': unknown action 'X'"),
])
def test_policy_choice_names_the_fault(pi, error, message):
    with pytest.raises(error) as info:
        _policy_choice(even_or_odd_mdp(), pi)
    assert type(info.value) is error
    assert str(info.value) == message


def test_policy_choice_reads_declared_actions():
    m = even_or_odd_mdp()
    assert _policy_choice(m, stationary({"1": "B", **_REST})) == (1, 0, 0)
    # states the MDP does not declare are ignored, and a one-phase
    # periodic strategy is read like a stationary one
    assert _policy_choice(m, stationary({"1": "B", "9": "z", **_REST})) == (1, 0, 0)
    assert _policy_choice(m, periodic([], [{"1": "B", **_REST}])) == (1, 0, 0)
    for seed in range(20):
        m = random_mdp(random.Random(seed), 4, 3)
        for pi in enumerate_pure_stationary(m):
            assert _policy_choice(m, pi) == tuple(
                acts.index(pi.action(s)) for s, acts in zip(m.states, m.actions))
