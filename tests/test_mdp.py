"""MDP construction, validation, exact reward streams, payoffs, enumeration."""

import gc
import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from functools import cached_property
from math import lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargemdp.blackwell import (average_value, blackwell_policy,
                                 discounted_value, discounted_value_at)
from chargemdp.charges import (DyadicLimit, Frequency, Geometric,
                               IllFormedRestrict, Mix, PointMass, Restrict,
                               integrate, value)
from chargemdp.counterexamples import (alternating_strategy, block_strategy,
                                       even_or_odd_mdp, late_switch_mdp,
                                       stay_strategy, sweep_payoff_shortfall,
                                       switch_at, top_probability)
from chargemdp.mdp import (BudgetExceeded, CycleNotFound, MdpValidationError,
                           Problem, StrategyMismatch, best_periodic,
                           build_mdp, ensure_valid, expected_reward_stream,
                           _compile, _primitive_cycles, _Unresolved, payoff,
                           periodic, random_mdp, stationary, validate)
from chargemdp.parsing import parse_strategy
from chargemdp.periodic_sets import empty, multiples, odds
from chargemdp.streams import _canonical, stream

from conftest import (enumerate_pure_periodic, enumerate_pure_stationary, is_deterministic,
                      random_deterministic_mdp)


# ---- references: the Fraction-dict stream loop and the raw enumeration ----

def phase_of(sigma, stage):
    """The phase, 1..L+q, that a periodic strategy plays at ``stage``."""
    L = sigma.preperiod_length
    if stage <= L:
        return stage
    return L + 1 + (stage - L - 1) % sigma.period


def is_pure(sigma):
    return all(len(d) == 1 for row in sigma.rows for _, d in row)


def reference_stream(mdp, sigma, max_horizon=4096):
    """Iterates the state distribution as a dict of Fractions and looks
    each action up by name at every stage."""
    def dist_at(stage, state):
        row = sigma.rows[phase_of(sigma, stage) - 1]
        return dict(row)[state]

    index = {s: i for i, s in enumerate(mdp.states)}
    dist = {index[mdp.initial]: Fraction(1)}
    seen = {}
    rewards = []
    for stage in range(1, max_horizon + 1):
        phase = phase_of(sigma, stage)
        key = (phase, tuple(sorted(dist.items())))
        if key in seen:
            return stream(rewards[:seen[key]], rewards[seen[key]:])
        seen[key] = len(rewards)
        r = Fraction(0)
        nxt = {}
        for i, q in dist.items():
            for a, pa in dist_at(stage, mdp.states[i]):
                j = mdp.actions[i].index(a)
                r += q * pa * mdp.rewards[i][j]
                for z, pz in enumerate(mdp.transitions[i][j]):
                    if pz:
                        nxt[z] = nxt.get(z, Fraction(0)) + q * pa * pz
        rewards.append(r)
        dist = nxt
    raise CycleNotFound(f"no recurrence within {max_horizon} stages")


def reference_enumeration(mdp, max_period, max_preperiod):
    """Every raw combination through periodic(), deduplicated by a seen set."""
    seen = set()
    for L in range(max_preperiod + 1):
        for q in range(1, max_period + 1):
            slots = [(phase, s) for phase in range(L + q) for s in mdp.states]
            for combo in itertools.product(*(mdp.actions[mdp.states.index(s)]
                                             for _, s in slots)):
                rows = [{} for _ in range(L + q)]
                for (phase, s), a in zip(slots, combo):
                    rows[phase][s] = a
                strat = periodic(rows[:L], rows[L:])
                if strat not in seen:
                    seen.add(strat)
                    yield strat


def reference_ranking(mdp, mu, max_period, max_preperiod):
    """Sorted by (-low, lexicographic encoding in declared action order);
    each strategy's payoff is a level-set ``integrate`` of its stream."""
    def declared_order_key(strat):
        order = []
        for row in strat.rows:
            lookup = dict(row)
            for i, s in enumerate(mdp.states):
                order.append(tuple((mdp.actions[i].index(a), p) for a, p in lookup[s]))
        return (strat.preperiod_length, strat.period, tuple(order))

    entries = [(strat, integrate(mu, reference_stream(mdp, strat)))
               for strat in reference_enumeration(mdp, max_period, max_preperiod)]
    entries.sort(key=lambda e: (-e[1], declared_order_key(e[0])))
    return entries


def _random_dist(rng, acts):
    chosen = rng.sample(acts, rng.randint(1, len(acts)))
    d = rng.randint(len(chosen), 6)
    cuts = sorted(rng.sample(range(1, d), len(chosen) - 1))
    return {a: Fraction(b - c, d) for a, c, b in zip(chosen, [0] + cuts, cuts + [d])}


def _random_strategy(rng, m, pure):
    def row():
        return {s: rng.choice(acts) if pure else _random_dist(rng, list(acts))
                for s, acts in zip(m.states, m.actions)}
    if rng.random() < 0.5:
        return stationary(row())
    return periodic([row() for _ in range(rng.randint(0, 2))],
                    [row() for _ in range(rng.randint(1, 3))])


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CycleNotFound:
        return CycleNotFound


# ---- construction and validation -----------------------------------------

def test_build_and_accessors():
    m = even_or_odd_mdp()
    assert m.states == ("1", "2", "3")
    assert m.initial == "1"
    assert m.actions[0] == ("T", "B")
    assert m.rewards[0][0] == 1
    assert m.transitions[0][1] == (0, 0, 1)
    assert is_deterministic(m)


def test_validate_clean():
    assert validate(even_or_odd_mdp()) == []
    assert validate(late_switch_mdp()) == []


def test_validate_row_sum():
    m = build_mdp(("a", "b"), "a", {"a": ("x",), "b": ("x",)},
                  {("a", "x"): 0, ("b", "x"): 0},
                  {("a", "x"): {"a": Fraction(1, 2)}, ("b", "x"): {"b": 1}})
    problems = validate(m)
    assert [p.kind for p in problems] == ["RowSumError"]
    with pytest.raises(MdpValidationError):
        ensure_valid(m)


def test_validate_negative_probability():
    m = build_mdp(("a",), "a", {"a": ("x",)}, {("a", "x"): 0},
                  {("a", "x"): {"a": 2}})
    assert [p.kind for p in validate(m)] == ["RowSumError"]


def test_validate_missing_action():
    m = build_mdp(("a", "b"), "a", {"a": ("x",)}, {("a", "x"): 0},
                  {("a", "x"): {"a": 1}})
    assert [p.kind for p in validate(m)] == ["MissingAction"]


def test_validate_unknown_initial():
    m = build_mdp(("a",), "zz", {"a": ("x",)}, {("a", "x"): 0},
                  {("a", "x"): {"a": 1}})
    assert [p.kind for p in validate(m)] == ["UnknownState"]


def test_validate_duplicate_state():
    m = build_mdp(("a", "b", "a"), "a", {"a": ("x",), "b": ("x",)}, {("a", "x"): 0, ("b", "x"): 0},
                  {("a", "x"): {"b": 1}, ("b", "x"): {"a": 1}})
    assert validate(m) == [Problem("DuplicateState", "states declared twice: ['a']")]


def test_validate_duplicate_action():
    """One name for two actions of a state would give a search the one
    strategy ``a: x`` twice, so the Mdp is invalid wherever it is read."""
    m = build_mdp(("a",), "a", {"a": ("x", "x")}, {("a", "x"): 1}, {("a", "x"): {"a": 1}})
    assert validate(m) == [Problem("DuplicateAction", "state 'a' repeats actions ['x']")]
    for call in (lambda: best_periodic(m, Frequency(), 1, 0),
                 lambda: payoff(m, stationary({"a": "x"}), Frequency()),
                 lambda: discounted_value(m, stationary({"a": "x"})),
                 lambda: parse_strategy("stationary { a: x }", m)):
        with pytest.raises(MdpValidationError, match="DuplicateAction"):
            call()


def test_build_rejects_a_transition_to_an_unknown_state():
    with pytest.raises(MdpValidationError) as err:
        build_mdp(("a",), "a", {"a": ("x",)}, {("a", "x"): 0}, {("a", "x"): {"zz": 1}})
    assert err.value.problems == [
        Problem("UnknownState", "transition from ('a', 'x') to unknown state 'zz'")]
    # a zero entry is no transition, whatever it names
    m = build_mdp(("a",), "a", {"a": ("x",)}, {("a", "x"): 0}, {("a", "x"): {"a": 1, "zz": 0}})
    assert validate(m) == [] and m.transitions[0][0] == (1,)


# ---- references: dense Fraction rows, as Mdp stored them before sparse rows ----

def dense_build(states, initial, actions, rewards, transitions):
    """(states, initial, actions, rewards, transitions) with every
    transition row dense over ``states``."""
    states = tuple(states)
    acts = tuple(tuple(actions.get(s, ())) for s in states)
    rews = tuple(tuple(Fraction(rewards[(s, a)]) for a in acts[i])
                 for i, s in enumerate(states))
    trans = tuple(tuple(tuple(Fraction(transitions[(s, a)].get(z, 0)) for z in states)
                        for a in acts[i])
                  for i, s in enumerate(states))
    return states, initial, acts, rews, trans


def dense_scaled(reward, row):
    """A dense row over the lcm L of its denominators, in the form of
    ``Mdp.rows``: (L, L*r, ((z, L*p_z) for nonzero p_z))."""
    L = lcm(reward.denominator, *(q.denominator for q in row))
    return L, int(L * reward), tuple((z, int(L * q)) for z, q in enumerate(row) if q)


def dense_validate(dense):
    states, initial, actions, _, transitions = dense
    problems = []
    if initial not in states:
        problems.append(Problem("UnknownState", f"initial state {initial!r}"))
    for i, s in enumerate(states):
        if not actions[i]:
            problems.append(Problem("MissingAction", f"state {s!r} has no actions"))
        if repeated := sorted({a for a in actions[i] if actions[i].count(a) > 1}):
            problems.append(Problem("DuplicateAction", f"state {s!r} repeats actions {repeated}"))
        for j, a in enumerate(actions[i]):
            row = transitions[i][j]
            D = lcm(*(q.denominator for q in row))
            nums = [q.numerator * (D // q.denominator) for q in row]
            if any(n < 0 or n > D for n in nums):
                problems.append(Problem(
                    "RowSumError", f"({s!r}, {a!r}): entry outside [0,1]"))
            elif sum(nums) != D:
                problems.append(Problem(
                    "RowSumError", f"({s!r}, {a!r}): row sums to {sum(row)}"))
    return problems


@st.composite
def mapping_data(draw):
    """build_mdp arguments: 1-4 states, rewards of either sign, rows that
    are distributions, and sometimes a zero entry for a state not in the
    MDP.  Half of the draws also have states without actions, states
    that repeat an action name, an unknown initial state, and rows with
    zero, negative, above-1 or non-summing entries."""
    well_formed = draw(st.booleans())
    states = [f"s{i}" for i in range(draw(st.integers(1, 4)))]
    initial = draw(st.sampled_from(states if well_formed else states + ["zz"]))
    prob = st.fractions(min_value=-1, max_value=2, max_denominator=4)
    actions, rewards, transitions = {}, {}, {}
    for s in states:
        actions[s] = [f"a{j}" for j in range(draw(st.integers(int(well_formed), 3)))]
        if not well_formed and actions[s] and draw(st.booleans()):
            actions[s].insert(draw(st.integers(0, len(actions[s]))),
                              draw(st.sampled_from(actions[s])))
        for a in actions[s]:
            rewards[(s, a)] = draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
            if well_formed or draw(st.booleans()):
                d = draw(st.integers(1, 6))
                cuts = sorted(draw(st.lists(st.integers(0, d), min_size=len(states) - 1,
                                            max_size=len(states) - 1)))
                row = {z: Fraction(hi - lo, d)
                       for z, lo, hi in zip(states, [0] + cuts, cuts + [d])}
            else:
                row = draw(st.dictionaries(st.sampled_from(states), prob, max_size=4))
            if draw(st.booleans()):
                row["zz"] = 0
            transitions[(s, a)] = row
    return states, initial, actions, rewards, transitions


@given(mapping_data())
@example((["s0", "s1", "s2"], "s0", {"s0": ["a0"], "s1": [], "s2": ["a0"]},
          {("s0", "a0"): -1, ("s2", "a0"): Fraction(1, 2)},
          {("s0", "a0"): {"s0": 1, "s1": -1, "s2": 1}, ("s2", "a0"): {"s2": 1}}))
@settings(max_examples=200, deadline=None)
def test_sparse_rows_match_dense_reference(data):
    m, dense = build_mdp(*data), dense_build(*data)
    _, _, _, rews, trans = dense
    assert (m.states, m.initial, m.actions) == dense[:3]
    assert (m.rewards, m.transitions) == (rews, trans)
    assert m.rows == tuple(tuple(map(dense_scaled, rs, ps)) for rs, ps in zip(rews, trans))
    # the dense test called a row such as (1, -1, 1) deterministic
    dense_det = all(max(row) == 1 and sum(row) == 1 for per in trans for row in per)
    nonnegative = all(q >= 0 for per in trans for row in per for q in row)
    assert is_deterministic(m) == (dense_det and nonnegative)
    assert validate(m) == dense_validate(dense)


@given(st.integers(0, 10_000))
def test_random_mdp_is_valid(seed):
    assert validate(random_mdp(random.Random(seed))) == []


# ---- strategies ----------------------------------------------------------

def test_stationary_strategy():
    sigma = stationary({"1": "T", "2": "c", "3": "c"})
    assert is_pure(sigma)
    assert sigma.action("1") == "T"
    with pytest.raises(KeyError):
        dict(sigma.rows[0])["zz"]


def test_randomized_stationary():
    sigma = top_probability(Fraction(1, 3))
    assert not is_pure(sigma)
    assert dict(sigma.rows[0])["1"] == (("B", Fraction(2, 3)), ("T", Fraction(1, 3)))
    with pytest.raises(ValueError):
        sigma.action("1")


@pytest.mark.parametrize("choices, make, text, shown", [
    ({"1": "T", "2": "c", "3": "c"}, even_or_odd_mdp, "1: T 2: c 3: c",
     "PeriodicMarkovStrategy(preperiod_length=0, period=1, rows=((('1', (('T', Fraction(1, 1)),)), "
     "('2', (('c', Fraction(1, 1)),)), ('3', (('c', Fraction(1, 1)),))),))"),
    ({"1": {"T": Fraction(1, 3), "B": Fraction(2, 3)}, "2": "c"}, late_switch_mdp,
     "1: T:1/3 B:2/3 2: c",
     "PeriodicMarkovStrategy(preperiod_length=0, period=1, rows=((('1', (('B', Fraction(2, 3)), "
     "('T', Fraction(1, 3)))), ('2', (('c', Fraction(1, 1)),))),))")], ids=["choices0", "choices1"])
def test_stationary_is_the_one_phase_periodic_strategy(choices, make, text, shown):
    sigma = stationary(choices)
    assert sigma == periodic([], [choices])
    assert hash(sigma) == hash(periodic([], [choices]))
    assert (sigma.preperiod_length, sigma.period) == (0, 1)
    assert repr(sigma) == shown
    assert hash(sigma) == hash((sigma.preperiod_length, sigma.period, sigma.rows))
    with pytest.raises(AttributeError):
        sigma.period = 2
    assert parse_strategy(f"stationary {{ {text} }}", make()) == sigma
    # the search ranks every pure one-phase strategy, and builds its own copy of each
    ranked = [s for s, _ in best_periodic(make(), Frequency(), 1, 0).ranking]
    assert (ranked.count(sigma) == 1) == is_pure(sigma)


def test_action_names_its_fault():
    with pytest.raises(ValueError, match="2 phases"):
        block_strategy(1).action("1")
    with pytest.raises(KeyError):
        stay_strategy().action("zz")
    with pytest.raises(ValueError, match="strategy is randomized at state '1'"):
        top_probability(Fraction(1, 2)).action("1")
    assert [stay_strategy().action(s) for s in ("1", "2")] == ["T", "c"]


def test_stationary_rejects_bad_distribution():
    with pytest.raises(ValueError):
        stationary({"1": {"T": Fraction(1, 2)}})


def test_periodic_canonicalization():
    base = {"2": "c", "3": "c"}
    rows = [dict(base, **{"1": a}) for a in ("T", "B", "T", "B")]
    sigma = periodic([], rows)
    assert sigma.period == 2 and sigma.preperiod_length == 0
    # a preperiod row equal to the cycle's last row rotates into the cycle
    sigma2 = periodic([dict(base, **{"1": "B"})],
                      [dict(base, **{"1": "T"}), dict(base, **{"1": "B"})])
    assert sigma2.preperiod_length == 0 and sigma2.period == 2


def test_periodic_phase_of():
    sigma = switch_at(3)
    assert sigma.preperiod_length == 3 and sigma.period == 1
    assert [phase_of(sigma, t) for t in range(1, 7)] == [1, 2, 3, 4, 4, 4]


def test_periodic_requires_cycle():
    with pytest.raises(ValueError):
        periodic([{"1": "T"}], [])


# ---- reward streams ------------------------------------------------------

def test_stream_block_strategy():
    f = expected_reward_stream(even_or_odd_mdp(), block_strategy(1))
    assert f == stream([], [0, 1])
    f2 = expected_reward_stream(even_or_odd_mdp(), block_strategy(2))
    assert f2 == stream([], [1, 0, 0, 1])


def test_stream_alternating_strategy():
    f = expected_reward_stream(even_or_odd_mdp(), alternating_strategy())
    assert f == stream([], [1, 0, 0, 1])


def test_stream_randomized_stationary():
    q = Fraction(1, 3)
    f = expected_reward_stream(even_or_odd_mdp(), top_probability(q))
    assert f == stream([], [q, 1 - q])


def test_stream_switch_at():
    f = expected_reward_stream(late_switch_mdp(), switch_at(2))
    assert f == stream([1, 0], [Fraction(3, 2)])


def test_cycle_not_found_on_tiny_horizon():
    with pytest.raises(CycleNotFound):
        expected_reward_stream(even_or_odd_mdp(), block_strategy(4), max_horizon=3)


@given(st.integers(0, 10**9), st.integers(1, 4), st.integers(1, 3), st.booleans(),
       st.sampled_from([1, 2, 3, 6, 60]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_stream_equals_fraction_reference(seed, n_states, n_actions, pure, horizon,
                                          deterministic):
    """Pure strategies on deterministic MDPs run the step table only,
    randomized ones the integer loop, and pure ones on split MDPs pass
    from one to the other and back.  Horizon 1 is rejected: the
    reference can never find a repeat within it."""
    rng = random.Random(seed)
    if deterministic:
        m = random_deterministic_mdp(rng, n_states, n_actions)
    else:
        m = random_mdp(rng, n_states, n_actions, rng.choice([1, 2, 3, 6]))
    sigma = _random_strategy(rng, m, pure)
    if horizon < 2:
        assert _outcome(reference_stream, m, sigma, max_horizon=horizon) is CycleNotFound
        with pytest.raises(ValueError, match="max_horizon must be at least 2"):
            expected_reward_stream(m, sigma, max_horizon=horizon)
        return
    assert (_outcome(expected_reward_stream, m, sigma, max_horizon=horizon)
            == _outcome(reference_stream, m, sigma, max_horizon=horizon))


@given(st.integers(0, 10**9), st.booleans(), st.sampled_from([2, 3, 6, 60]))
@settings(max_examples=200, deadline=None)
def test_compile_gives_each_known_pure_cell_its_step(seed, deterministic, horizon):
    """``_compile`` resolves rows of pure and randomized cells, with a
    state left out or an unknown action at some state: a cell of one
    known action j carries the step table's entry for j, any other cell
    None, and an unresolved cell raises StrategyMismatch when iterated.
    The walk over its phases is the reference stream, or raises where
    the reference fails to look a reached cell up."""
    rng = random.Random(seed)
    if deterministic:
        m = random_deterministic_mdp(rng, rng.randint(1, 3), rng.randint(1, 3))
    else:
        m = random_mdp(rng, rng.randint(1, 3), 2, rng.choice([1, 2, 3, 6]))

    def row():
        cells = {s: rng.choice(acts) if rng.random() < 0.6 else _random_dist(rng, list(acts))
                 for s, acts in zip(m.states, m.actions)}
        if rng.random() < 0.2:
            del cells[rng.choice(m.states)]
        if rng.random() < 0.2:
            cells[rng.choice(m.states)] = rng.choice(
                ["zz", {"zz": Fraction(1, 2), m.actions[0][0]: Fraction(1, 2)}])
        return cells

    sigma = periodic([row() for _ in range(rng.randint(0, 2))],
                     [row() for _ in range(rng.randint(1, 3))])
    A, phases = _compile(m, sigma.rows)
    table = m._integer_form[1]
    assert A == lcm(*(p.denominator for row in sigma.rows for _, d in row for _, p in d))
    assert len(phases) == len(sigma.rows)
    for k, ((cells, steps), row) in enumerate(zip(phases, sigma.rows), start=1):
        given = dict(row)
        for i, (s, cell, step) in enumerate(zip(m.states, cells, steps)):
            dist = given.get(s, ((None, 1),))
            if all(a in m.actions[i] for a, _ in dist):
                assert cell == [(p * A, m.actions[i].index(a)) for a, p in dist]
                assert step == (table[i][cell[0][1]] if len(cell) == 1 else None)
                continue
            assert type(cell) is _Unresolved and step is None
            with pytest.raises(StrategyMismatch) as info:
                list(cell)
            unknown = next(a for a, _ in dist if a not in m.actions[i])
            assert (info.value.phase, info.value.state, info.value.action) == (k, s, unknown)
    outcomes = []
    for evaluate, mismatch in ((expected_reward_stream, StrategyMismatch),
                               (reference_stream, (KeyError, ValueError))):  # its lookups fail
        try:
            outcomes.append(evaluate(m, sigma, max_horizon=horizon))
        except CycleNotFound:
            outcomes.append(CycleNotFound)
        except mismatch:
            outcomes.append(StrategyMismatch)
    assert outcomes[0] == outcomes[1]


def merge_mdp():
    """s splits to a and b, which both return to s."""
    return build_mdp(("s", "a", "b"), "s", {z: ("x",) for z in "sab"},
                     {("s", "x"): 0, ("a", "x"): 1, ("b", "x"): Fraction(1, 3)},
                     {("s", "x"): {"a": Fraction(1, 4), "b": Fraction(3, 4)},
                      ("a", "x"): {"s": 1}, ("b", "x"): {"s": 1}})


def test_point_mass_after_a_split_has_one_key():
    """The start, a point mass read by the table, and its return through
    the loop are the same key, so the repeat is seen at the third
    stage's check, as by the reference."""
    sigma = stationary({z: "x" for z in "sab"})
    f = expected_reward_stream(merge_mdp(), sigma, max_horizon=3)
    assert f == reference_stream(merge_mdp(), sigma, max_horizon=3)
    assert f == stream([], [0, Fraction(1, 2)])
    with pytest.raises(CycleNotFound):
        expected_reward_stream(merge_mdp(), sigma, max_horizon=2)


def self_loop_mdp():
    return build_mdp(("a",), "a", {"a": ("x",)}, {("a", "x"): Fraction(1, 3)},
                     {("a", "x"): {"a": 1}})


@pytest.mark.parametrize("horizon", [1, 0, -5])
def test_horizon_below_two_raises_value_error(horizon):
    m, sigma = even_or_odd_mdp(), block_strategy(1)
    for evaluate in (expected_reward_stream,
                     lambda m, s, max_horizon: payoff(m, s, Frequency(), max_horizon)):
        with pytest.raises(ValueError, match="max_horizon must be at least 2"):
            evaluate(m, sigma, max_horizon=horizon)
    with pytest.raises(ValueError, match="max_horizon must be at least 2"):
        best_periodic(m, Frequency(), 2, 0, max_horizon=horizon)


def test_least_horizon_finds_a_self_loop():
    """The repeat of a self-loop is seen at the second stage's check, so
    horizon 2 is the least that can succeed."""
    m, sigma = self_loop_mdp(), stationary({"a": "x"})
    assert expected_reward_stream(m, sigma, max_horizon=2) == stream([], [Fraction(1, 3)])
    result = best_periodic(m, Frequency(), 1, 0, max_horizon=2)
    assert result.best_value == Fraction(1, 3)


def chain_mdp(n):
    """States 0 .. n-1; state 0 alternates with 1, and each later state
    steps down to the one before, so from 0 only two states are reached."""
    states = tuple(str(i) for i in range(n))
    return build_mdp(states, "0", {s: ("x",) for s in states},
                     {(s, "x"): Fraction(i % 3, 2) for i, s in enumerate(states)},
                     {(s, "x"): {states[1] if i == 0 else states[i - 1]: 1}
                      for i, s in enumerate(states)})


def test_step_table_is_as_large_as_the_sparse_rows():
    """Each table entry is a reduced pair and a next state, with no dense
    next-state vector, and the integer loop reads ``Mdp.rows`` itself:
    the walk form adds nothing of size n per row of a sparse chain."""
    m = chain_mdp(300)
    M, table = m._integer_form
    assert M == 2
    assert all(len(step) == 2 and type(step[1]) is int
               and len(step[0]) == 2 and all(type(v) is int for v in step[0])
               for steps in table for step in steps)
    sigma = stationary({s: "x" for s in m.states})
    assert expected_reward_stream(m, sigma, max_horizon=3) == stream([], [0, Fraction(1, 2)])


def test_the_walk_form_is_built_once_per_mdp(monkeypatch):
    """Two payoffs and a search on one Mdp build its integer form once;
    an equal Mdp in another object builds its own."""
    import chargemdp.mdp as mdp_module
    built = []
    real = mdp_module.Mdp._integer_form.func

    def counted(self):
        built.append(self)
        return real(self)

    form = cached_property(counted)
    form.__set_name__(mdp_module.Mdp, "_integer_form")
    monkeypatch.setattr(mdp_module.Mdp, "_integer_form", form)
    m = even_or_odd_mdp()
    assert payoff(m, block_strategy(1), Frequency()) == Fraction(1, 2)
    assert payoff(m, top_probability(Fraction(1, 3)), Frequency()) \
        == payoff(even_or_odd_mdp(), top_probability(Fraction(1, 3)), Frequency())
    best_periodic(m, Frequency(), 2, 1)
    assert len(built) == 2 and built[0] is m and built[1] is not m


def test_an_invalid_mdp_raises_on_every_walk():
    """A cached_property caches no exception, so each call validates anew."""
    m = build_mdp(("a",), "a", {"a": ("x",)}, {("a", "x"): 0}, {("a", "x"): {"a": Fraction(1, 2)}})
    sigma = stationary({"a": "x"})
    for _ in range(2):
        with pytest.raises(MdpValidationError, match="row sums to 1/2"):
            payoff(m, sigma, Frequency())
        with pytest.raises(MdpValidationError, match="row sums to 1/2"):
            best_periodic(m, Frequency(), 1, 0)


def test_large_sparse_chain_is_built_and_evaluated_in_linear_space():
    """A 2000-state goto cycle, every state reached: building, a payoff
    and a search hold nothing of size n per row.  With dense rows this
    took 263 MB and several seconds."""
    n = 2000
    states = [str(i) for i in range(n)]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        m = build_mdp(states, "0", {s: ("x",) for s in states},
                      {(s, "x"): Fraction(i % 3, 2) for i, s in enumerate(states)},
                      {(s, "x"): {states[(i + 1) % n]: 1} for i, s in enumerate(states)})
        value = payoff(m, stationary({s: "x" for s in states}), Frequency())
        result = best_periodic(m, Frequency(), 1, 0)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == result.best_value
    assert value == Fraction(sum(i % 3 for i in range(n)), 2 * n)
    assert peak < 30 * 2 ** 20, peak
    assert elapsed < 2, elapsed


def test_unreached_unnamed_state_still_evaluates():
    # state 2 is never reached when state 1 plays B
    f = expected_reward_stream(even_or_odd_mdp(), stationary({"1": "B", "3": "c"}))
    assert f == stream([], [0, 1])


@pytest.mark.parametrize("choices, state, action", [
    ({"1": "T"}, "2", None),
    ({"1": "X", "2": "c", "3": "c"}, "1", "X"),
])
@pytest.mark.parametrize("evaluate", [
    expected_reward_stream,
    lambda m, s: payoff(m, s, Frequency()),
    discounted_value,
    average_value,
    lambda m, s: discounted_value_at(m, s, Fraction(1, 2)),
])
def test_strategy_mismatch_is_typed(choices, state, action, evaluate):
    with pytest.raises(StrategyMismatch) as info:
        evaluate(even_or_odd_mdp(), stationary(choices))
    assert (info.value.phase, info.value.state, info.value.action) == (1, state, action)
    assert f"state {state!r}" in str(info.value)


# ---- payoffs -------------------------------------------------------------

def test_payoff_frequency_is_cycle_mean():
    m = even_or_odd_mdp()
    val = payoff(m, alternating_strategy(), Frequency())
    assert val == Fraction(1, 2)


def test_payoff_discounted_stay():
    val = payoff(late_switch_mdp(), stay_strategy(), Geometric(Fraction(1, 2)))
    assert val == 1


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_stationary_payoff_equals_cycle_mean(seed):
    from conftest import cycle_mean
    rng = random.Random(seed)
    m = random_deterministic_mdp(rng)
    sigma = stationary({s: rng.choice(acts) for s, acts in zip(m.states, m.actions)})
    f = expected_reward_stream(m, sigma)
    assert payoff(m, sigma, Frequency()) == cycle_mean(f)


# ---- enumeration and search ----------------------------------------------

def test_enumerate_pure_stationary():
    out = enumerate_pure_stationary(even_or_odd_mdp())
    assert len(out) == 2
    assert [sigma.action("1") for sigma in out] == ["T", "B"]


@pytest.mark.parametrize("states", [("s10", "s2", "b"), ("b", "s2", "s10"), ("s2", "s10")])
def test_enumerate_pure_stationary_is_the_one_phase_enumeration(states):
    """State names that sort apart from their declared order: the
    strategies still come in declared action order, state by state."""
    acts = {s: ("y", "x", "z")[:len(states) - i] for i, s in enumerate(states)}
    m = build_mdp(states, states[0], acts, {(s, a): 0 for s in states for a in acts[s]},
                  {(s, a): {s: 1} for s in states for a in acts[s]})
    out = enumerate_pure_stationary(m)
    assert out == list(enumerate_pure_periodic(m, 1, 0))
    assert out == [stationary(dict(zip(states, combo)))
                   for combo in itertools.product(*(acts[s] for s in states))]


def test_enumerate_pure_stationary_budget():
    """2**21 strategies: over the cap, raised before any is built."""
    states = tuple(f"s{i}" for i in range(21))
    m = build_mdp(states, states[0], {s: ("x", "y") for s in states},
                  {(s, a): 0 for s in states for a in "xy"},
                  {(s, a): {s: 1} for s in states for a in "xy"})
    with pytest.raises(BudgetExceeded, match="2097152 raw strategies exceeds cap 2000000"):
        enumerate_pure_stationary(m)


def test_enumerate_pure_periodic_dedup():
    out = list(enumerate_pure_periodic(even_or_odd_mdp(), 2, 1))
    # canonical distinct patterns with preperiod <= 1 and period <= 2
    assert len(out) == 8
    assert len({(s.preperiod_length, s.period, s.rows) for s in out}) == 8
    assert all(s.preperiod_length <= 1 and s.period <= 2 for s in out)


def test_enumerate_budget(monkeypatch):
    import chargemdp.mdp as mdp_module
    monkeypatch.setattr(mdp_module, "STRATEGY_CAP", 10)
    with pytest.raises(BudgetExceeded):
        list(enumerate_pure_periodic(even_or_odd_mdp(), 8, 8))


@pytest.mark.parametrize("acts", [("x", "y"), ("x",)])
def test_huge_bounds_raise_budget_at_once(acts):
    """The cap check stops at the first partial sum past the cap, so
    bounds of 10**6 raise at once, naming a short lower bound."""
    m = build_mdp(("a", "b"), "a", {"a": acts, "b": ("x",)},
                  {**{("a", a): 0 for a in acts}, ("b", "x"): 0},
                  {**{("a", a): {"b": 1} for a in acts}, ("b", "x"): {"a": 1}})
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="^at least [0-9]+ raw strategies exceeds cap") as got:
        enumerate_pure_periodic(m, 10**6, 10**6)
    assert time.perf_counter() - start < 1
    assert len(str(got.value)) < 100


@pytest.mark.parametrize("max_period, max_preperiod", [(2_000_000, 0), (1, 1_999_999)])
def test_one_row_search_at_the_cap_is_immediate(max_period, max_preperiod):
    """With one action per state only shape (0, 1) holds a canonical
    strategy, so bounds the cap admits (2000000 shapes) build that one
    group alone; the candidates of every shape took time quadratic in
    the bound, days at these bounds."""
    m = build_mdp(("a",), "a", {"a": ("x",)}, {("a", "x"): Fraction(1, 2)},
                  {("a", "x"): {"a": 1}})
    start = time.perf_counter()
    assert list(enumerate_pure_periodic(m, max_period, max_preperiod)) == [stationary({"a": "x"})]
    r = best_periodic(m, Frequency(), max_period, max_preperiod)
    assert r.ranking == ((stationary({"a": "x"}), Fraction(1, 2)),)
    assert time.perf_counter() - start < 1


def test_budget_fails_before_building_rows():
    """A wide MDP has 2**18 action rows per phase; the cap check must
    come before any of them is built."""
    import tracemalloc
    states = tuple(f"s{i}" for i in range(18))
    m = build_mdp(states, states[0], {s: ("x", "y") for s in states},
                  {(s, a): 0 for s in states for a in "xy"},
                  {(s, a): {s: 1} for s in states for a in "xy"})
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            enumerate_pure_periodic(m, 2, 0)
        with pytest.raises(BudgetExceeded):
            best_periodic(m, Frequency(), 2, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("max_period, max_preperiod", [(0, 0), (0, 2), (2, -1)])
def test_search_bounds_raise_value_error(max_period, max_preperiod):
    with pytest.raises(ValueError, match="search bounds"):
        enumerate_pure_periodic(even_or_odd_mdp(), max_period, max_preperiod)
    with pytest.raises(ValueError, match="search bounds"):
        best_periodic(even_or_odd_mdp(), Frequency(), max_period, max_preperiod)


@given(st.integers(0, 10**9), st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3),
                                                (3, 1), (3, 2)]),
       st.integers(1, 3), st.integers(0, 2))
@example(1, (3, 2), 3, 1)
@example(1, (2, 3), 2, 2)
@settings(max_examples=120, deadline=None)
def test_enumeration_equals_reference(seed, shape, max_period, max_preperiod):
    """Up to two preperiod rows, so a cycle is kept or dropped by how its
    last row compares with the last of several preperiod rows.  Draws
    with two preperiod rows or three actions shrink their period until
    at most 5000 raw tuples are left to the reference; every other draw
    runs at its full bounds (at most 5256 raw tuples, 8 rows at (3, 1))."""
    n_states, n_actions = shape
    m = random_mdp(random.Random(seed), n_states, n_actions)
    rows = n_actions ** n_states
    while (max_preperiod == 2 or n_actions == 3) and max_period > 1 and sum(
            rows ** (L + q) for L in range(max_preperiod + 1)
            for q in range(1, max_period + 1)) > 5000:
        max_period -= 1
    assert (list(enumerate_pure_periodic(m, max_period, max_preperiod))
            == list(reference_enumeration(m, max_period, max_preperiod)))


@pytest.mark.parametrize("n", range(1, 9))
def test_primitive_cycles_equal_the_canonical_filter(n):
    # the tuples _canonical leaves unchanged, one cycle length at a time
    assert _primitive_cycles(n, 6) == {
        q: [c for c in itertools.product(range(n), repeat=q) if _canonical((), c)[1] == c]
        for q in range(1, 7)}


SEARCH_CHARGES = [
    Frequency(),
    Geometric(Fraction(1, 2)),
    DyadicLimit(),
    PointMass(2),
    Restrict(Geometric(Fraction(1, 3)), odds()),
    Restrict(DyadicLimit(), multiples(2)),
    Mix(((Fraction(1, 2), Restrict(Geometric(Fraction(1, 2)), odds())),
         (Fraction(1, 2), DyadicLimit()))),
    Mix(((Fraction(1, 3), PointMass(1)), (Fraction(2, 3), Frequency()))),
]


def assert_ranking_equals_reference(m, mu, max_period, max_preperiod, **kwargs):
    result = best_periodic(m, mu, max_period, max_preperiod, **kwargs)
    expected = reference_ranking(m, mu, max_period, max_preperiod)
    assert list(result.ranking) == expected
    assert (result.best, result.best_value) == expected[0]


@given(st.integers(0, 10**9), st.sampled_from(SEARCH_CHARGES))
@settings(max_examples=60, deadline=None)
def test_best_periodic_ranking_equals_reference(seed, mu):
    """Declared state order differs from the sorted one, and actions are
    declared out of alphabetical order, so the tie-break is exercised."""
    rng = random.Random(seed)
    states = rng.sample(("s10", "s2", "b"), rng.randint(2, 3))
    actions = {s: tuple(rng.sample(("z", "a", "m"), rng.randint(1, 2 if len(states) > 2 else 3)))
               for s in states}
    m = build_mdp(states, states[0], actions,
                  {(s, a): Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                   for s in states for a in actions[s]},
                  {(s, a): {rng.choice(states): 1} for s in states for a in actions[s]})
    assert_ranking_equals_reference(m, mu, rng.randint(1, 2), rng.randint(0, 1))


@pytest.mark.parametrize("mu", SEARCH_CHARGES[1::3])
def test_ranking_equals_reference_when_most_strategies_share_a_raw_word(mu, monkeypatch):
    """Once at b, the search never returns to a, so a's action at later
    phases leaves the reward word unchanged: 1216 strategies reach 99
    raw words at bounds (3, 2).  The MDP is deterministic, so every
    strategy finds its word in its shape's trie, with no walk of its
    own and no strategy rows compiled for one, and each raw word is
    canonicalised once."""
    import chargemdp.mdp as mdp_module
    walks, compiled, canonicalised = [], [], []
    canonical = mdp_module._canonical

    def counted_canonical(pre, cyc):
        if isinstance(cyc[0], tuple):  # a reward word, not a cycle of row indices
            canonicalised.append((tuple(pre), tuple(cyc)))
        return canonical(pre, cyc)

    monkeypatch.setattr(mdp_module, "_reward_stream", lambda *args: walks.append(args))
    monkeypatch.setattr(mdp_module, "_compile", lambda *args: compiled.append(args))
    monkeypatch.setattr(mdp_module, "_canonical", counted_canonical)
    result = best_periodic(preperiod_mdp(), mu, 3, 2)
    monkeypatch.undo()
    assert walks == [] and compiled == []
    assert len(result.ranking) == 1216
    assert len(canonicalised) == len(set(canonicalised)) == 99
    assert_ranking_equals_reference(preperiod_mdp(), mu, 3, 2)


def per_strategy_ranking(m, mu, max_period, max_preperiod, max_horizon):
    """Each enumerated strategy's own stream and integral, ranked by
    value with ties in enumeration order; every stream is found before
    any integral, as in the search."""
    strategies = list(enumerate_pure_periodic(m, max_period, max_preperiod))
    streams = [expected_reward_stream(m, s, max_horizon) for s in strategies]
    values = [integrate(mu, f) for f in streams]
    return [(strategies[i], values[i])
            for i in sorted(range(len(strategies)), key=lambda i: -values[i])]


def late_split_mdp():
    """a and b are goto rows; y at b splits to c and d, which both return
    to a, so every walk recurs.  A strategy playing y at b meets the
    split in its preperiod or only in its cycle, by the phase at which it
    first plays it there."""
    return build_mdp(("a", "b", "c", "d"), "a",
                     {"a": ("x", "y"), "b": ("x", "y"), "c": ("x",), "d": ("x",)},
                     {("a", "x"): 1, ("a", "y"): 0, ("b", "x"): Fraction(-1, 2),
                      ("b", "y"): Fraction(1, 3), ("c", "x"): 1, ("d", "x"): 0},
                     {("a", "x"): {"b": 1}, ("a", "y"): {"a": 1}, ("b", "x"): {"a": 1},
                      ("b", "y"): {"c": Fraction(1, 2), "d": Fraction(1, 2)},
                      ("c", "x"): {"a": 1}, ("d", "x"): {"a": 1}})


@given(st.integers(0, 10**9), st.sampled_from(["deterministic", "late split", 1, 2, 3]),
       st.sampled_from([(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]),
       st.sampled_from([2, 3, 4, 5, 6, 7, 8, 4096]), st.sampled_from(SEARCH_CHARGES))
@example(0, "late split", (2, 2), 4096, Frequency())
@example(0, "late split", (3, 1), 8, Geometric(Fraction(1, 2)))
@example(0, "late split", (2, 1), 3, DyadicLimit())
@settings(max_examples=150, deadline=None)
def test_trie_search_equals_per_strategy_reference(seed, kind, bounds, horizon, mu):
    """Deterministic MDPs are searched by descent alone; on a split MDP a
    strategy whose walk meets a split row, in its preperiod or in its
    cycle, is walked on its own.  Either way the ranking, or the
    exception's type and text, is that of walking every strategy."""
    rng = random.Random(seed)
    if kind == "deterministic":
        m = random_deterministic_mdp(rng, rng.randint(1, 3), rng.randint(1, 2))
    elif kind == "late split":
        m = late_split_mdp()
    else:
        m = random_mdp(rng, rng.randint(1, 2), 2, kind)
    max_period, max_preperiod = bounds
    rows = prod(len(acts) for acts in m.actions)
    while max_period > 1 and sum(rows ** (L + q) for L in range(max_preperiod + 1)
                                 for q in range(1, max_period + 1)) > 2000:
        max_period -= 1  # 3 states of 2 actions: 8 rows
    outcomes = []
    for search in (best_periodic, per_strategy_ranking):
        try:
            result = search(m, mu, max_period, max_preperiod, max_horizon=horizon)
            outcomes.append(list(result.ranking) if search is best_periodic else result)
        except (CycleNotFound, IllFormedRestrict) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


def test_a_strategy_is_walked_alone_exactly_when_its_walk_meets_a_split_row(monkeypatch):
    """On the late-split MDP, the search hands ``_reward_stream`` the
    strategies whose point-mass walk reaches y at b, each once and in
    enumeration order, and no other: some meet it in a preperiod phase,
    some only in a cycle phase."""
    import chargemdp.mdp as mdp_module
    m, walked = late_split_mdp(), []
    reward_stream = mdp_module._reward_stream

    def recorded(mdp, rows, order, L, *rest):
        walked.append((L, tuple(order)))
        return reward_stream(mdp, rows, order, L, *rest)

    monkeypatch.setattr(mdp_module, "_reward_stream", recorded)
    best_periodic(m, Frequency(), 2, 2)
    table = m._integer_form[1]
    rows, _, groups = mdp_module._canonical_pure(m, 2, 2)
    split_in = {}  # (L, row ids) -> "pre" or "cycle", for the walks meeting a split row
    for L, q, group in groups:
        for ids, _ in group:
            k, x, seen = 0, 0, set()
            while (k, x) not in seen and table[x][rows[ids[k]][x]] is not None:
                seen.add((k, x))
                x = table[x][rows[ids[k]][x]][1]
                k = k + 1 if k + 1 < L + q else L
            if (k, x) not in seen:
                split_in[L, ids] = "pre" if k < L else "cycle"
    assert walked == list(split_in)
    assert set(split_in.values()) == {"pre", "cycle"}


@pytest.mark.parametrize("make, bounds, ranked, distinct", [
    (lambda: preperiod_mdp(), (3, 2), 1216, 59),
    (lambda: late_split_mdp(), (2, 2), 256, 30),
])
def test_search_builds_one_stream_per_distinct_reward_stream(make, bounds, ranked, distinct,
                                                             monkeypatch):
    """The search calls ``stream`` once per distinct canonical reward
    stream of its ranking, whether the word came from the trie or from a
    strategy walked alone: bench/tracer.py reads its stream cache's hit
    ratio from these calls."""
    import chargemdp.mdp as mdp_module
    built, real = [], mdp_module.stream

    def counted(pre, cyc):
        built.append(real(pre, cyc))
        return built[-1]

    monkeypatch.setattr(mdp_module, "stream", counted)
    result = best_periodic(make(), Frequency(), *bounds)
    monkeypatch.undo()
    own = {expected_reward_stream(make(), strat) for strat, _ in result.ranking}
    assert len(result.ranking) == ranked
    assert len(built) == len(set(built)) == len(own) == distinct and set(built) == own


def test_long_point_mass_walk_stays_linear():
    """One strategy walks all 3000 states of a goto cycle: the tree holds
    one node per cell and the walk one reward per stage, so memory grows
    with the walk, not its square."""
    n = 3000
    states = [str(i) for i in range(n)]
    m = build_mdp(states, "0", {s: ("x",) for s in states},
                  {(s, "x"): Fraction(i % 7, 2) for i, s in enumerate(states)},
                  {(s, "x"): {states[(i + 1) % n]: 1} for i, s in enumerate(states)})
    m._integer_form  # the step table is built outside the trace: only the search is measured
    tracemalloc.start()
    try:
        result = best_periodic(m, Frequency(), 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.best_value == Fraction(sum(i % 7 for i in range(n)), 2 * n)
    assert peak < 8 * 2 ** 20, peak


def _blackwell_trio(m):
    pi = blackwell_policy(m)
    return discounted_value(m, pi), average_value(m, pi)


GARBAGE_FREE_CALLS = {
    "search-deterministic": lambda: best_periodic(
        random_deterministic_mdp(random.Random(1)), Mix(((Fraction(1, 2), Frequency()),
                                                         (Fraction(1, 2), DyadicLimit()))), 2, 2),
    "search-late-split": lambda: best_periodic(late_split_mdp(), Geometric(Fraction(1, 2)), 2, 2),
    "payoff": lambda: payoff(late_split_mdp(), stationary({"a": "x", "b": "y", "c": "x", "d": "x"}),
                             Geometric(Fraction(2, 3))),
    "integrate": lambda: integrate(Restrict(Frequency(), odds()), stream([1, 2], [3, 0, 5])),
    "value": lambda: value(Geometric(Fraction(9, 10)), multiples(12)),
    "blackwell": lambda: _blackwell_trio(random_mdp(random.Random(3), 3, 2)),
    "sweep": lambda: sweep_payoff_shortfall(6, 6),
}


@pytest.mark.parametrize("call", GARBAGE_FREE_CALLS.values(), ids=GARBAGE_FREE_CALLS)
def test_no_call_leaves_cyclic_garbage(call):
    """With the cyclic collector off, a collection right after the call
    finds nothing: a search's trees have no parent links, so they and
    every evaluation's data are freed by reference counting alone."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("mu", SEARCH_CHARGES)
def test_best_periodic_ranking_equals_reference_on_stochastic_mdps(mu):
    """Stochastic draws whose recurrence finishes for every strategy,
    so the reward words carry several denominators."""
    compared = 0
    for seed in range(200):
        m = random_mdp(random.Random(seed), 2, 2, 3)
        if is_deterministic(m) or _outcome(best_periodic, m, Frequency(), 2, 1,
                                          max_horizon=64) is CycleNotFound:
            continue
        assert_ranking_equals_reference(m, mu, 2, 1, max_horizon=64)
        compared += 1
    assert compared >= 8


def test_best_periodic_null_window_raises_only_on_a_nonzero_stream():
    """As with ``integrate``, a zero stream never evaluates the charge."""
    mu = Restrict(Frequency(), empty())

    def two_state(reward):
        return build_mdp(("a", "b"), "a", {"a": ("x", "y"), "b": ("x",)},
                         {("a", "x"): 0, ("a", "y"): reward, ("b", "x"): 0},
                         {("a", "x"): {"b": 1}, ("a", "y"): {"a": 1}, ("b", "x"): {"a": 1}})

    result = best_periodic(two_state(0), mu, 2, 1)
    assert list(result.ranking) == \
        [(s, 0) for s in reference_enumeration(two_state(0), 2, 1)]
    with pytest.raises(IllFormedRestrict) as got:
        best_periodic(two_state(1), mu, 2, 1)
    with pytest.raises(IllFormedRestrict) as expected:
        reference_ranking(two_state(1), mu, 2, 1)
    assert str(got.value) == str(expected.value) == "restriction window has base measure 0"


def test_best_periodic_checks_each_shape_against_level_sets(monkeypatch):
    """The first nonzero word of each cycle length is integrated by level
    sets too; weights that disagree stop the search instead of ranking."""
    import chargemdp.mdp as mdp_module

    def wrong(mu, L, q):
        return 1, (0,) * (L + q)
    monkeypatch.setattr(mdp_module, "_stage_weights", wrong)
    with pytest.raises(ArithmeticError, match="stage weights of shape"):
        best_periodic(even_or_odd_mdp(), Frequency(), 2, 0)


def preperiod_mdp():
    """Each stage of waiting at a (reward 0) delays the move to b (reward
    1), where staying pays 1/2 a stage: words of cycle length 1 with
    preperiods 1 to 3.  Alternating stay and flip at b gives words of
    cycle length 2."""
    return build_mdp(("a", "b"), "a", {"a": ("w", "go"), "b": ("stay", "flip")},
                     {("a", "w"): 0, ("a", "go"): 1, ("b", "stay"): Fraction(1, 2),
                      ("b", "flip"): Fraction(-1, 3)},
                     {("a", "w"): {"a": 1}, ("a", "go"): {"b": 1},
                      ("b", "stay"): {"b": 1}, ("b", "flip"): {"b": 1}})


def split_mdp():
    """s splits to a and b under either action, and a and b are goto
    rows: a walk passes from a point mass (an int key) to spread
    distributions (tuple keys), and a pure strategy's phases read both
    the step table and the integer loop."""
    return build_mdp(("s", "a", "b"), "s", {z: ("x", "y") for z in "sab"},
                     {("s", "x"): 0, ("s", "y"): 0, ("a", "x"): 1, ("a", "y"): 0,
                      ("b", "x"): 0, ("b", "y"): Fraction(1, 2)},
                     {("s", "x"): {"a": Fraction(1, 2), "b": Fraction(1, 2)},
                      ("s", "y"): {"a": Fraction(1, 3), "b": Fraction(2, 3)},
                      ("a", "x"): {"b": 1}, ("a", "y"): {"a": 1},
                      ("b", "x"): {"a": 1}, ("b", "y"): {"b": 1}})


@pytest.mark.parametrize("make, bounds", [(preperiod_mdp, (3, 2)), (split_mdp, (2, 1))])
def test_search_walk_and_payoff_walk_agree_at_every_horizon(make, bounds):
    """The search walks row ids against one step table, a payoff walks a
    compiled strategy's phases.  At every horizon from 2 up to the first
    at which the search succeeds, the search raises CycleNotFound exactly
    when some strategy it enumerates raises it on its own; at that
    horizon every strategy's value is the integral of its own stream."""
    m = make()
    strategies = list(enumerate_pure_periodic(m, *bounds))
    for horizon in range(2, 65):
        result = _outcome(best_periodic, m, Frequency(), *bounds, max_horizon=horizon)
        alone = [_outcome(expected_reward_stream, m, s, max_horizon=horizon)
                 for s in strategies]
        assert (result is CycleNotFound) == any(f is CycleNotFound for f in alone), horizon
        if result is not CycleNotFound:
            break
    else:
        pytest.fail("the search never succeeded")
    assert horizon > 2  # some horizon raised
    values = dict(result.ranking)
    assert [values[s] for s in strategies] == [integrate(Frequency(), f) for f in alone]


@pytest.mark.parametrize("mu", SEARCH_CHARGES)
def test_one_weight_vector_values_every_preperiod_of_a_cycle_length(mu):
    m = preperiod_mdp()
    result = best_periodic(m, mu, 2, 2)
    shapes = set()
    for strat, val in result.ranking:
        f = expected_reward_stream(m, strat)
        assert val == integrate(mu, f)
        shapes.add((len(f.preperiod), len(f.cycle)))
    assert {L for L, q in shapes if q == 1} >= {1, 2, 3}


def test_weights_and_checks_once_per_nonzero_cycle_length(monkeypatch):
    import chargemdp.mdp as mdp_module
    weights_asked, integrated = [], []
    stage_weights, level_sets = mdp_module._stage_weights, mdp_module.integrate

    def counted_weights(mu, L, q):
        weights_asked.append((L, q))
        return stage_weights(mu, L, q)

    def counted_integrate(mu, f):
        integrated.append(len(f.cycle))
        return level_sets(mu, f)

    monkeypatch.setattr(mdp_module, "_stage_weights", counted_weights)
    monkeypatch.setattr(mdp_module, "integrate", counted_integrate)
    m, mu = preperiod_mdp(), Geometric(Fraction(2, 3))
    result = best_periodic(m, mu, 3, 2)
    longest = {}
    for strat, _ in result.ranking:
        f = expected_reward_stream(m, strat)
        if f != stream([], [0]):
            longest[len(f.cycle)] = max(longest.get(len(f.cycle), 0), len(f.preperiod))
    assert sorted(weights_asked) == sorted((L, q) for q, L in longest.items())
    assert sorted(integrated) == sorted(longest)
    assert len(longest) >= 2 and max(longest.values()) >= 3


def test_ranking_is_exact_where_floats_tie():
    """1/3 and 1/3 + 10**-30 are one float: a float key would leave their
    order to the order of a set."""
    low, high = Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30)
    assert float(low) == float(high)
    m = build_mdp(("s",), "s", {"s": ("a", "b")}, {("s", "a"): low, ("s", "b"): high},
                  {("s", "a"): {"s": 1}, ("s", "b"): {"s": 1}})
    r = best_periodic(m, Frequency(), 1, 0)
    assert [(s.action("s"), v) for s, v in r.ranking] == [
        ("b", Fraction(1000000000000000000000000000003, 3000000000000000000000000000000)),
        ("a", low)]


def test_best_periodic_under_frequency():
    result = best_periodic(even_or_odd_mdp(), Frequency(), 4, 0)
    assert result.best_value == Fraction(1, 2)


def test_best_periodic_prefers_block_pattern():
    from chargemdp.counterexamples import even_or_odd_charge
    result = best_periodic(even_or_odd_mdp(), even_or_odd_charge(), 8, 0)
    assert result.best_value == Fraction(7, 8)
    assert result.best == block_strategy(3)
    # ranking is sorted by value, descending
    values = [v for _, v in result.ranking]
    assert values == sorted(values, reverse=True)
