"""Shared hypothesis strategies and helpers for the test suite."""

from fractions import Fraction
from math import lcm

from hypothesis import strategies as st

from chargemdp.periodic_sets import EventuallyPeriodicSet, make


@st.composite
def periodic_sets(draw, max_preperiod=8, max_period=12):
    period = draw(st.integers(1, max_period))
    residues = draw(st.sets(st.integers(0, period - 1)))
    pre_len = draw(st.integers(0, max_preperiod))
    bits = draw(st.lists(st.integers(0, 1), min_size=pre_len, max_size=pre_len))
    return make(bits, period, residues)


_small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=4)


@st.composite
def rational_streams(draw, max_preperiod=4, max_period=6):
    from chargemdp.streams import stream
    pre = draw(st.lists(_small_fractions, max_size=max_preperiod))
    cyc = draw(st.lists(_small_fractions, min_size=1, max_size=max_period))
    return stream(pre, cyc)


def cycle_mean(f) -> Fraction:
    """The mean of a stream's cycle: its frequency integral."""
    return sum(f.cycle, Fraction(0)) / len(f.cycle)


def pointwise_leq(f, g) -> bool:
    """f <= g at every stage (checked over preperiods plus one full
    common cycle, which is exhaustive)."""
    L = max(len(f.preperiod), len(g.preperiod))
    q = lcm(len(f.cycle), len(g.cycle))
    return all(f.value_at(t) <= g.value_at(t) for t in range(1, L + q + 1))


def superlevel_set(f, threshold) -> EventuallyPeriodicSet:
    """Stages where the stream is strictly greater than the threshold."""
    thr = Fraction(threshold)
    L, q = len(f.preperiod), len(f.cycle)
    bits = [1 if v > thr else 0 for v in f.preperiod]
    residues = {(L + 1 + j) % q for j, v in enumerate(f.cycle) if v > thr}
    return make(bits, q, residues)


def random_set(rng, max_preperiod=8, max_period=12) -> EventuallyPeriodicSet:
    """Seeded random.Random twin of :func:`periodic_sets` for bulk sweeps."""
    period = rng.randint(1, max_period)
    residues = [r for r in range(period) if rng.random() < 0.5]
    pre_len = rng.randint(0, max_preperiod)
    bits = [rng.randint(0, 1) for _ in range(pre_len)]
    return make(bits, period, residues)


def random_deterministic_mdp(rng, n_states=3, n_actions=2):
    """Deterministic transitions, so pure policies have recurring streams."""
    from chargemdp.mdp import build_mdp
    states = tuple(f"s{i + 1}" for i in range(n_states))
    actions = {s: tuple(f"a{j + 1}" for j in range(n_actions)) for s in states}
    rewards = {(s, a): Fraction(rng.randint(-8, 8), rng.randint(1, 6))
               for s in states for a in actions[s]}
    transitions = {(s, a): {rng.choice(states): 1}
                   for s in states for a in actions[s]}
    return build_mdp(states, states[0], actions, rewards, transitions)


def random_stream(rng, max_preperiod=5, max_period=6):
    from chargemdp.streams import stream
    pre = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
           for _ in range(rng.randint(0, max_preperiod))]
    cyc = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
           for _ in range(rng.randint(1, max_period))]
    return stream(pre, cyc)


def ref_level_sets(f):
    """The equality scan that the one-pass ``level_sets`` replaced: one
    scan of the stream per distinct value.  The scan compares
    (numerator, denominator) pairs, which are equal exactly when the
    reduced fractions are."""
    L, q = len(f.preperiod), len(f.cycle)
    pre = [(v.numerator, v.denominator) for v in f.preperiod]
    cyc = [(v.numerator, v.denominator) for v in f.cycle]
    out = []
    for c in sorted(set(f.preperiod) | set(f.cycle)):
        key = (c.numerator, c.denominator)
        bits = [1 if v == key else 0 for v in pre]
        residues = {(L + 1 + j) % q for j, v in enumerate(cyc) if v == key}
        out.append((c, make(bits, q, residues)))
    return out
