"""Finite MDPs with exact rational data, and exact payoff evaluation.

Strategies covered: stationary (possibly randomized) and periodic
Markov (phase- and state-dependent, possibly randomized).  The
expected-reward stream of such a strategy is computed by iterating the
exact state distribution until the pair (strategy phase, distribution)
recurs, which certifies the stream's eventual period.  Payoffs are
then exact integrals of that stream against a charge expression.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .charges import Charge, CValue, integrate
from .streams import RationalStream, _canonical, stream


class CycleNotFound(RuntimeError):
    """State distribution never exactly recurred within the horizon."""


class BudgetExceeded(RuntimeError):
    """Enumeration request is larger than the configured cap."""


@dataclass(frozen=True)
class Problem:
    kind: str  # RowSumError | MissingAction | UnknownState
    where: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.where}"


class MdpValidationError(ValueError):
    def __init__(self, problems: list[Problem]):
        self.problems = problems
        super().__init__("; ".join(str(p) for p in problems))


@dataclass(frozen=True)
class Mdp:
    states: tuple[str, ...]
    initial: str
    actions: tuple[tuple[str, ...], ...]  # parallel to states
    rewards: tuple[tuple[Fraction, ...], ...]  # [state][action]
    transitions: tuple[tuple[tuple[Fraction, ...], ...], ...]  # [state][action][next]

    def state_index(self, s: str) -> int:
        return self.states.index(s)

    def action_list(self, s: str) -> tuple[str, ...]:
        return self.actions[self.state_index(s)]

    def reward(self, s: str, a: str) -> Fraction:
        i = self.state_index(s)
        return self.rewards[i][self.actions[i].index(a)]

    def transition(self, s: str, a: str) -> dict[str, Fraction]:
        i = self.state_index(s)
        row = self.transitions[i][self.actions[i].index(a)]
        return {z: q for z, q in zip(self.states, row) if q}

    @property
    def is_deterministic(self) -> bool:
        return all(max(row) == 1 and sum(row) == 1
                   for per_state in self.transitions for row in per_state)


def build_mdp(states, initial, actions, rewards, transitions) -> Mdp:
    """Assemble an Mdp from mapping-style data.

    ``actions``: state -> iterable of action ids;
    ``rewards``: (state, action) -> rational;
    ``transitions``: (state, action) -> {next state: probability}.
    Missing transition entries default to probability 0.
    """
    states = tuple(states)
    acts = tuple(tuple(actions.get(s, ())) for s in states)
    rews = tuple(tuple(Fraction(rewards[(s, a)]) for a in acts[i])
                 for i, s in enumerate(states))
    trans = tuple(tuple(tuple(Fraction(transitions[(s, a)].get(z, 0)) for z in states)
                        for a in acts[i])
                  for i, s in enumerate(states))
    return Mdp(states, initial, acts, rews, trans)


def validate(mdp: Mdp) -> list[Problem]:
    """Every invariant violation, with its location.  Empty list = ok."""
    problems: list[Problem] = []
    if mdp.initial not in mdp.states:
        problems.append(Problem("UnknownState", f"initial state {mdp.initial!r}"))
    for i, s in enumerate(mdp.states):
        if not mdp.actions[i]:
            problems.append(Problem("MissingAction", f"state {s!r} has no actions"))
        for j, a in enumerate(mdp.actions[i]):
            row = mdp.transitions[i][j]
            if any(q < 0 or q > 1 for q in row):
                problems.append(Problem(
                    "RowSumError", f"({s!r}, {a!r}): entry outside [0,1]"))
            elif sum(row) != 1:
                problems.append(Problem(
                    "RowSumError", f"({s!r}, {a!r}): row sums to {sum(row)}"))
    return problems


def ensure_valid(mdp: Mdp) -> Mdp:
    problems = validate(mdp)
    if problems:
        raise MdpValidationError(problems)
    return mdp


def _normalize_dist(dist, where: str) -> tuple[tuple[str, Fraction], ...]:
    if isinstance(dist, str):
        return ((dist, Fraction(1)),)
    items = tuple(sorted((a, Fraction(q)) for a, q in dict(dist).items() if Fraction(q)))
    if sum(q for _, q in items) != 1 or any(q < 0 for _, q in items):
        raise ValueError(f"action distribution at {where} must sum to 1: {items}")
    return items


@dataclass(frozen=True)
class StationaryStrategy:
    """Per-state action distribution."""

    choices: tuple[tuple[str, tuple[tuple[str, Fraction], ...]], ...]

    @property
    def is_pure(self) -> bool:
        return all(len(dist) == 1 for _, dist in self.choices)

    def dist(self, state: str) -> tuple[tuple[str, Fraction], ...]:
        for s, d in self.choices:
            if s == state:
                return d
        raise KeyError(state)

    def action(self, state: str) -> str:
        d = self.dist(state)
        if len(d) != 1:
            raise ValueError(f"strategy is randomized at state {state!r}")
        return d[0][0]


def stationary(choices) -> StationaryStrategy:
    """``choices``: state -> action id, or state -> {action: prob}."""
    return StationaryStrategy(tuple(sorted(
        (s, _normalize_dist(d, f"state {s!r}")) for s, d in dict(choices).items())))


@dataclass(frozen=True)
class PeriodicMarkovStrategy:
    """Phase- and state-dependent action distributions.

    Phases 1..L are the preperiod; phases L+1..L+q repeat cyclically.
    Canonical: q is minimal and L is minimal given q.
    """

    preperiod_length: int
    period: int
    rows: tuple[tuple[tuple[str, tuple[tuple[str, Fraction], ...]], ...], ...]

    def phase_of(self, stage: int) -> int:
        L = self.preperiod_length
        if stage <= L:
            return stage
        return L + 1 + (stage - L - 1) % self.period

    def dist(self, stage: int, state: str) -> tuple[tuple[str, Fraction], ...]:
        row = self.rows[self.phase_of(stage) - 1]
        for s, d in row:
            if s == state:
                return d
        raise KeyError(state)

    @property
    def is_pure(self) -> bool:
        return all(len(d) == 1 for row in self.rows for _, d in row)

    def encoding(self) -> tuple:
        """Lexicographic identity used for deterministic tie-breaking."""
        return (self.preperiod_length, self.period, self.rows)


def periodic(preperiod_rows, cycle_rows) -> PeriodicMarkovStrategy:
    """Canonicalizing constructor.

    Each row maps state -> action id or state -> {action: prob}.
    """
    def norm(row, k):
        return tuple(sorted((s, _normalize_dist(d, f"phase {k}, state {s!r}"))
                            for s, d in dict(row).items()))

    pre = [norm(r, i + 1) for i, r in enumerate(preperiod_rows)]
    cyc = [norm(r, len(pre) + i + 1) for i, r in enumerate(cycle_rows)]
    if not cyc:
        raise ValueError("cycle must have at least one phase")
    pre, cyc = _canonical(pre, cyc)
    return PeriodicMarkovStrategy(len(pre), len(cyc), pre + cyc)


Strategy = StationaryStrategy | PeriodicMarkovStrategy


def _dist_at(sigma: Strategy, stage: int, state: str):
    if isinstance(sigma, StationaryStrategy):
        return sigma.dist(state)
    return sigma.dist(stage, state)


def _phase_key(sigma: Strategy, stage: int):
    if isinstance(sigma, StationaryStrategy):
        return 0
    return sigma.phase_of(stage)


DEFAULT_HORIZON = 4096


def expected_reward_stream(mdp: Mdp, sigma: Strategy,
                           max_horizon: int = DEFAULT_HORIZON) -> RationalStream:
    """Exact stream of expected stage rewards.

    Iterates the state distribution; an exact recurrence of
    (phase, distribution) certifies the cycle.  Raises CycleNotFound if
    no recurrence shows up within the horizon.
    """
    n = len(mdp.states)
    index = {s: i for i, s in enumerate(mdp.states)}
    dist: dict[int, Fraction] = {index[mdp.initial]: Fraction(1)}
    seen: dict[tuple, int] = {}
    rewards: list[Fraction] = []
    for stage in range(1, max_horizon + 1):
        key = (_phase_key(sigma, stage), tuple(sorted(dist.items())))
        if key in seen:
            i0 = seen[key]
            return stream(rewards[:i0], rewards[i0:])
        seen[key] = len(rewards)
        r = Fraction(0)
        nxt: dict[int, Fraction] = {}
        for i, q in dist.items():
            s = mdp.states[i]
            for a, pa in _dist_at(sigma, stage, s):
                j = mdp.actions[i].index(a)
                w = q * pa
                r += w * mdp.rewards[i][j]
                for z, pz in enumerate(mdp.transitions[i][j]):
                    if pz:
                        nxt[z] = nxt.get(z, Fraction(0)) + w * pz
        rewards.append(r)
        dist = nxt
    raise CycleNotFound(
        f"no exact recurrence of (phase, state distribution) within {max_horizon} stages")


def payoff(mdp: Mdp, sigma: Strategy, mu: Charge,
           max_horizon: int = DEFAULT_HORIZON) -> CValue:
    return integrate(mu, expected_reward_stream(mdp, sigma, max_horizon))


@dataclass(frozen=True)
class SearchResult:
    best: PeriodicMarkovStrategy
    best_value: CValue
    ranking: tuple[tuple[PeriodicMarkovStrategy, CValue], ...] = field(repr=False)


def enumerate_pure_periodic(mdp: Mdp, max_period: int, max_preperiod: int,
                            cap: int = 2_000_000):
    """All distinct canonical pure periodic Markov strategies within bounds."""
    total = 0
    per_phase = 1
    for acts in mdp.actions:
        per_phase *= len(acts)
    for L in range(max_preperiod + 1):
        for q in range(1, max_period + 1):
            total += per_phase ** (L + q)
    if total > cap:
        raise BudgetExceeded(f"{total} raw strategies exceeds cap {cap}")
    seen = set()
    for L in range(max_preperiod + 1):
        for q in range(1, max_period + 1):
            slots = [(phase, s) for phase in range(L + q) for s in mdp.states]
            options = [mdp.action_list(s) for _, s in slots]
            for combo in itertools.product(*options):
                rows: list[dict] = [{} for _ in range(L + q)]
                for (phase, s), a in zip(slots, combo):
                    rows[phase][s] = a
                strat = periodic(rows[:L], rows[L:])
                key = (strat.preperiod_length, strat.period, strat.rows)
                if key in seen:
                    continue
                seen.add(key)
                yield strat


def _declared_order_key(mdp: Mdp, strat: PeriodicMarkovStrategy) -> tuple:
    """Lexicographic encoding using the MDP's declared action order."""
    order = []
    for row in strat.rows:
        lookup = dict(row)
        for i, s in enumerate(mdp.states):
            order.append(tuple((mdp.actions[i].index(a), p) for a, p in lookup[s]))
    return (strat.preperiod_length, strat.period, tuple(order))


def best_periodic(mdp: Mdp, mu: Charge, max_period: int, max_preperiod: int,
                  cap: int = 2_000_000,
                  max_horizon: int = DEFAULT_HORIZON) -> SearchResult:
    """Exhaustive search over pure periodic Markov strategies.

    Ranking is by guaranteed value (minimum candidate), descending,
    with ties broken by the lexicographic strategy encoding in declared
    action order.  This lower-bounds the value of the MDP under the
    charge.
    """
    by_stream: dict[RationalStream, CValue] = {}
    entries: list[tuple[PeriodicMarkovStrategy, CValue]] = []
    for strat in enumerate_pure_periodic(mdp, max_period, max_preperiod, cap):
        f = expected_reward_stream(mdp, strat, max_horizon)
        val = by_stream.get(f)
        if val is None:
            val = integrate(mu, f)
            by_stream[f] = val
        entries.append((strat, val))
    entries.sort(key=lambda e: (-e[1].low, _declared_order_key(mdp, e[0])))
    best, best_value = entries[0]
    return SearchResult(best, best_value, tuple(entries))


def enumerate_pure_stationary(mdp: Mdp) -> list[StationaryStrategy]:
    """All pure stationary strategies, in lexicographic action order."""
    out = []
    for combo in itertools.product(*(mdp.actions[i] for i in range(len(mdp.states)))):
        out.append(stationary({s: a for s, a in zip(mdp.states, combo)}))
    return out


def random_mdp(rng, n_states: int = 3, n_actions: int = 2,
               max_denominator: int = 6) -> Mdp:
    """Random MDP with rational rewards and transition rows (test fodder)."""
    states = tuple(f"s{i + 1}" for i in range(n_states))
    actions = {s: tuple(f"a{j + 1}" for j in range(n_actions)) for s in states}
    rewards = {}
    transitions = {}
    for s in states:
        for a in actions[s]:
            rewards[(s, a)] = Fraction(rng.randint(-8, 8), rng.randint(1, max_denominator))
            d = rng.randint(1, max_denominator)
            cuts = sorted(rng.randint(0, d) for _ in range(n_states - 1))
            parts = [b - a_ for a_, b in zip([0] + cuts, cuts + [d])]
            transitions[(s, a)] = {z: Fraction(p, d) for z, p in zip(states, parts)}
    return build_mdp(states, states[0], actions, rewards, transitions)
