"""MDP construction, validation, exact reward streams, payoffs, enumeration."""

import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargemdp.blackwell import (average_value, discounted_value,
                                 discounted_value_at)
from chargemdp.charges import (DyadicLimit, Frequency, Geometric,
                               IllFormedRestrict, Mix, PointMass, Restrict,
                               integrate)
from chargemdp.counterexamples import (alternating_strategy, block_strategy,
                                       even_or_odd_mdp, late_switch_mdp,
                                       stay_strategy, switch_at,
                                       top_probability)
from chargemdp.mdp import (BudgetExceeded, CycleNotFound, MdpValidationError,
                           Problem, StationaryStrategy, StrategyMismatch, best_periodic,
                           build_mdp, ensure_valid, enumerate_pure_periodic,
                           enumerate_pure_stationary, expected_reward_stream,
                           payoff, periodic, random_mdp, stationary, validate)
from chargemdp.periodic_sets import empty, multiples, odds
from chargemdp.streams import stream


# ---- references: the Fraction-dict stream loop and the raw enumeration ----

def reference_stream(mdp, sigma, max_horizon=4096):
    """Iterates the state distribution as a dict of Fractions and looks
    each action up by name at every stage."""
    def dist_at(stage, state):
        if isinstance(sigma, StationaryStrategy):
            return sigma.dist(state)
        row = sigma.rows[sigma.phase_of(stage) - 1]
        return dict(row)[state]

    index = {s: i for i, s in enumerate(mdp.states)}
    dist = {index[mdp.initial]: Fraction(1)}
    seen = {}
    rewards = []
    for stage in range(1, max_horizon + 1):
        phase = 0 if isinstance(sigma, StationaryStrategy) else sigma.phase_of(stage)
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
            for combo in itertools.product(*(mdp.action_list(s) for _, s in slots)):
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
    entries.sort(key=lambda e: (-e[1].low, declared_order_key(e[0])))
    return entries


def _random_dist(rng, acts):
    chosen = rng.sample(acts, rng.randint(1, len(acts)))
    d = rng.randint(len(chosen), 6)
    cuts = sorted(rng.sample(range(1, d), len(chosen) - 1))
    return {a: Fraction(b - c, d) for a, c, b in zip(chosen, [0] + cuts, cuts + [d])}


def _random_strategy(rng, m, pure):
    def row():
        return {s: rng.choice(m.action_list(s)) if pure
                else _random_dist(rng, list(m.action_list(s))) for s in m.states}
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
    assert m.action_list("1") == ("T", "B")
    assert m.reward("1", "T") == 1
    assert m.transition("1", "B") == {"3": Fraction(1)}
    assert m.is_deterministic


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


def test_build_rejects_a_transition_to_an_unknown_state():
    with pytest.raises(MdpValidationError) as err:
        build_mdp(("a",), "a", {"a": ("x",)}, {("a", "x"): 0}, {("a", "x"): {"zz": 1}})
    assert err.value.problems == [
        Problem("UnknownState", "transition from ('a', 'x') to unknown state 'zz'")]
    # a zero entry is no transition, whatever it names
    m = build_mdp(("a",), "a", {"a": ("x",)}, {("a", "x"): 0}, {("a", "x"): {"a": 1, "zz": 0}})
    assert validate(m) == [] and m.transition("a", "x") == {"a": 1}


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
    MDP.  Half of the draws also have states without actions, an unknown
    initial state, and rows with zero, negative, above-1 or non-summing
    entries."""
    well_formed = draw(st.booleans())
    states = [f"s{i}" for i in range(draw(st.integers(1, 4)))]
    initial = draw(st.sampled_from(states if well_formed else states + ["zz"]))
    prob = st.fractions(min_value=-1, max_value=2, max_denominator=4)
    actions, rewards, transitions = {}, {}, {}
    for s in states:
        actions[s] = [f"a{j}" for j in range(draw(st.integers(int(well_formed), 3)))]
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
    _, _, acts, rews, trans = dense
    assert (m.states, m.initial, m.actions) == dense[:3]
    assert (m.rewards, m.transitions) == (rews, trans)
    assert m.rows == tuple(tuple(map(dense_scaled, rs, ps)) for rs, ps in zip(rews, trans))
    for i, s in enumerate(m.states):
        for j, a in enumerate(acts[i]):
            assert m.reward(s, a) == rews[i][j]
            assert m.transition(s, a) == {z: q for z, q in zip(m.states, trans[i][j]) if q}
    # the dense test called a row such as (1, -1, 1) deterministic
    dense_det = all(max(row) == 1 and sum(row) == 1 for per in trans for row in per)
    nonnegative = all(q >= 0 for per in trans for row in per for q in row)
    assert m.is_deterministic == (dense_det and nonnegative)
    assert validate(m) == dense_validate(dense)


@given(st.integers(0, 10_000))
def test_random_mdp_is_valid(seed):
    assert validate(random_mdp(random.Random(seed))) == []


# ---- strategies ----------------------------------------------------------

def test_stationary_strategy():
    sigma = stationary({"1": "T", "2": "c", "3": "c"})
    assert sigma.is_pure
    assert sigma.action("1") == "T"
    with pytest.raises(KeyError):
        sigma.dist("zz")


def test_randomized_stationary():
    sigma = top_probability(Fraction(1, 3))
    assert not sigma.is_pure
    assert sigma.dist("1") == (("B", Fraction(2, 3)), ("T", Fraction(1, 3)))
    with pytest.raises(ValueError):
        sigma.action("1")


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
    assert [sigma.phase_of(t) for t in range(1, 7)] == [1, 2, 3, 4, 4, 4]


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
    from conftest import random_deterministic_mdp
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
    assert result.best_value.exact_value == Fraction(1, 3)


def chain_mdp(n):
    """States 0 .. n-1; state 0 alternates with 1, and each later state
    steps down to the one before, so from 0 only two states are reached."""
    states = tuple(str(i) for i in range(n))
    return build_mdp(states, "0", {s: ("x",) for s in states},
                     {(s, "x"): Fraction(i % 3, 2) for i, s in enumerate(states)},
                     {(s, "x"): {states[1] if i == 0 else states[i - 1]: 1}
                      for i, s in enumerate(states)})


def test_step_table_is_as_large_as_the_sparse_rows():
    """Each table entry is three ints, with no dense next-state vector:
    the table adds nothing of size n per row of a sparse chain."""
    from chargemdp.mdp import _integer_form
    m = chain_mdp(300)
    _, cells, table = _integer_form(m)
    assert all(len(step) == 3 and all(type(v) is int for v in step)
               for steps in table for step in steps)
    assert sum(len(row) for opts in cells for _, row in opts) == 300
    sigma = stationary({s: "x" for s in m.states})
    assert expected_reward_stream(m, sigma, max_horizon=3) == stream([], [0, Fraction(1, 2)])


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
    assert value.exact_value == Fraction(sum(i % 3 for i in range(n)), 2 * n)
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
    assert val.exact_value == Fraction(1, 2)


def test_payoff_discounted_stay():
    val = payoff(late_switch_mdp(), stay_strategy(), Geometric(Fraction(1, 2)))
    assert val.exact_value == 1


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_stationary_payoff_equals_cycle_mean(seed):
    from conftest import cycle_mean, random_deterministic_mdp
    rng = random.Random(seed)
    m = random_deterministic_mdp(rng)
    sigma = stationary({s: rng.choice(m.action_list(s)) for s in m.states})
    f = expected_reward_stream(m, sigma)
    assert payoff(m, sigma, Frequency()).exact_value == cycle_mean(f)


# ---- enumeration and search ----------------------------------------------

def test_enumerate_pure_stationary():
    out = enumerate_pure_stationary(even_or_odd_mdp())
    assert len(out) == 2
    assert [sigma.action("1") for sigma in out] == ["T", "B"]


def test_enumerate_pure_periodic_dedup():
    out = list(enumerate_pure_periodic(even_or_odd_mdp(), 2, 1))
    # canonical distinct patterns with preperiod <= 1 and period <= 2
    assert len(out) == 8
    assert len({(s.preperiod_length, s.period, s.rows) for s in out}) == 8
    assert all(s.preperiod_length <= 1 and s.period <= 2 for s in out)


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_pure_periodic(even_or_odd_mdp(), 8, 8, cap=10))


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
    assert [(s, v.candidates, v.cycle) for s, v in result.ranking] == \
        [(s, v.candidates, v.cycle) for s, v in expected]
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
    raw words at bounds (3, 2), and no raw word is canonicalised twice."""
    import chargemdp.mdp as mdp_module
    raw, canonicalised = [], []
    reward_stream, canonical = mdp_module._reward_stream, mdp_module._canonical

    def recorded_stream(*args):
        pre, cyc = reward_stream(*args)
        raw.append((tuple(pre), tuple(cyc)))
        return pre, cyc

    def counted_canonical(pre, cyc):
        if isinstance(cyc[0], tuple):  # a reward word, not a cycle of row indices
            canonicalised.append((tuple(pre), tuple(cyc)))
        return canonical(pre, cyc)

    monkeypatch.setattr(mdp_module, "_reward_stream", recorded_stream)
    monkeypatch.setattr(mdp_module, "_canonical", counted_canonical)
    best_periodic(preperiod_mdp(), mu, 3, 2)
    monkeypatch.undo()
    assert (len(raw), len(set(raw))) == (1216, 99)
    assert len(canonicalised) == len(set(canonicalised)) and set(canonicalised) <= set(raw)
    assert_ranking_equals_reference(preperiod_mdp(), mu, 3, 2)


@pytest.mark.parametrize("mu", SEARCH_CHARGES)
def test_best_periodic_ranking_equals_reference_on_stochastic_mdps(mu):
    """Stochastic draws whose recurrence finishes for every strategy,
    so the reward words carry several denominators."""
    compared = 0
    for seed in range(200):
        m = random_mdp(random.Random(seed), 2, 2, 3)
        if m.is_deterministic or _outcome(best_periodic, m, Frequency(), 2, 1,
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
    assert [(s, v.candidates, v.cycle) for s, v in result.ranking] == \
        [(s, frozenset({0}), None) for s in reference_enumeration(two_state(0), 2, 1)]
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


def test_best_periodic_under_frequency():
    result = best_periodic(even_or_odd_mdp(), Frequency(), 4, 0)
    assert result.best_value.exact_value == Fraction(1, 2)


def test_best_periodic_prefers_block_pattern():
    from chargemdp.counterexamples import even_or_odd_charge
    result = best_periodic(even_or_odd_mdp(), even_or_odd_charge(), 8, 0)
    assert result.best_value.exact_value == Fraction(7, 8)
    assert result.best == block_strategy(3)
    # ranking is sorted by guaranteed value, descending
    lows = [v.low for _, v in result.ranking]
    assert lows == sorted(lows, reverse=True)
