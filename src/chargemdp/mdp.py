"""Finite MDPs with exact rational data, and exact payoff evaluation.

Strategies covered: stationary (possibly randomized) and periodic
Markov (phase- and state-dependent, possibly randomized).  Evaluation
runs on integers: rewards over their lcm R, transition rows over their
lcm D, and a strategy compiled to (weight, action index) pairs per
phase and state, the weights over the lcm A of its action
probabilities.  The state distribution is x / sum(x) for a primitive
integer vector x, divided by gcd(*x) after every stage, so the first
repeat of the key (phase, x) certifies the expected-reward stream's
eventual period.  Each stage's expected reward is a reduced integer pair
(numerator, denominator).  Payoffs are exact integrals of that stream
against a charge expression.

The search enumerates pure strategies as tuples of phase rows of action
indices in declared order and keeps only the already canonical ones, so
each strategy comes once, and in declared action order.  It caches
payoffs by the canonical word of reward pairs, and values each new word
of shape (L, q) as one integer dot product with the charge's weights on
the L + q stage atoms (``charges._stage_weights``), computed once per
shape and checked once against ``integrate``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod

from .charges import Charge, CValue, _stage_weights, integrate
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
            D = lcm(*(q.denominator for q in row))  # checked over D, in integers
            nums = [q.numerator * (D // q.denominator) for q in row]
            if any(n < 0 or n > D for n in nums):
                problems.append(Problem(
                    "RowSumError", f"({s!r}, {a!r}): entry outside [0,1]"))
            elif sum(nums) != D:
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

    @property
    def is_pure(self) -> bool:
        return all(len(d) == 1 for row in self.rows for _, d in row)


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


class StrategyMismatch(ValueError):
    """A strategy gives no action, or an action the MDP does not declare,
    for a state it is asked about."""

    def __init__(self, phase: int, state: str, action: str | None):
        self.phase, self.state, self.action = phase, state, action
        what = "no action given" if action is None else f"unknown action {action!r}"
        super().__init__(f"phase {phase}, state {state!r}: {what}")


class _Unresolved:
    """A strategy cell that names no action the MDP declares there.
    Iterating it raises StrategyMismatch, so a state that is never
    reached may stay unresolved."""

    def __init__(self, phase: int, state: str, action: str | None):
        self.args = (phase, state, action)

    def __iter__(self):
        raise StrategyMismatch(*self.args)


def _compile(mdp: Mdp, sigma: Strategy) -> tuple[int, int, list[list]]:
    """(L, A, phases): the strategy resolved against the MDP, the one
    place where a strategy's names meet the MDP's.

    phases[k][i] lists the (weight, action index) pairs of state i at
    phase k + 1, the weights over A, the lcm of the strategy's action
    probabilities; L phases are the preperiod and the rest repeat.
    """
    if isinstance(sigma, StationaryStrategy):
        L, rows = 0, (sigma.choices,)
    else:
        L, rows = sigma.preperiod_length, sigma.rows
    A = lcm(*(p.denominator for row in rows for _, dist in row for _, p in dist))
    phases = []
    for k, row in enumerate(rows, start=1):
        given = dict(row)
        cells = []
        for s, acts in zip(mdp.states, mdp.actions):
            pairs = []
            for a, p in given.get(s, ((None, 1),)):  # a state left out: action None
                if a not in acts:
                    pairs = _Unresolved(k, s, a)
                    break
                pairs.append((p.numerator * (A // p.denominator), acts.index(a)))
            cells.append(pairs)
        phases.append(cells)
    return L, A, phases


def _integer_form(mdp: Mdp) -> tuple[int, list[list[tuple]]]:
    """(R, cells): cells[i][j] = (R * reward, sparse row of D * P) for
    action j at state i, R and D the lcms of the reward and of the
    transition denominators.  Raises MdpValidationError on an invalid MDP."""
    ensure_valid(mdp)
    R = lcm(*(r.denominator for rs in mdp.rewards for r in rs))
    D = lcm(*(p.denominator for per in mdp.transitions for row in per for p in row))
    return R, [[(r.numerator * (R // r.denominator),
                 tuple((z, p.numerator * (D // p.denominator)) for z, p in enumerate(row) if p))
                for r, row in zip(rs, per)]
               for rs, per in zip(mdp.rewards, mdp.transitions)]


DEFAULT_HORIZON = 4096


def _reward_stream(cells: list, start: int, scale: int, phases: list, L: int,
                   max_horizon: int) -> tuple[list, list]:
    """The expected-reward stream from state ``start``, for the integer
    form's ``cells`` and a compiled strategy's ``phases``, as the word the
    recurrence found: (preperiod, cycle) lists of reduced (numerator,
    denominator) pairs, neither necessarily minimal.  Rewards are over
    ``scale``, which is R * A, and the distribution is x / sum(x)."""
    n = len(phases[0])
    x = tuple(int(i == start) for i in range(n))
    seen: dict[tuple, int] = {}
    rewards: list[tuple[int, int]] = []
    k = 0
    for _ in range(max_horizon):
        key = (k, x)
        if key in seen:
            i0 = seen[key]
            return rewards[:i0], rewards[i0:]
        seen[key] = len(rewards)
        num = 0
        nxt = [0] * n
        for xi, pairs, opts in zip(x, phases[k], cells):
            if xi:
                for w, j in pairs:
                    r, row = opts[j]
                    w *= xi
                    num += w * r
                    for z, c in row:
                        nxt[z] += w * c
        den = scale * sum(x)
        g = gcd(num, den)
        rewards.append((num // g, den // g))
        g = gcd(*nxt)
        x = tuple([v // g for v in nxt])
        k = k + 1 if k + 1 < len(phases) else L
    raise CycleNotFound(
        f"no exact recurrence of (phase, state distribution) within {max_horizon} stages")


def expected_reward_stream(mdp: Mdp, sigma: Strategy,
                           max_horizon: int = DEFAULT_HORIZON) -> RationalStream:
    """Exact stream of expected stage rewards.

    Iterates the state distribution as a primitive integer vector; an
    exact recurrence of (phase, distribution) certifies the cycle.
    Raises CycleNotFound if no recurrence shows up within the horizon,
    and StrategyMismatch if a reached state has no known action.
    """
    R, cells = _integer_form(mdp)
    L, A, phases = _compile(mdp, sigma)
    return _pairs_stream(*_reward_stream(cells, mdp.states.index(mdp.initial), R * A,
                                         phases, L, max_horizon))


def _pairs_stream(pre: list, cyc: list) -> RationalStream:
    return stream([Fraction(n, d) for n, d in pre], [Fraction(n, d) for n, d in cyc])


def payoff(mdp: Mdp, sigma: Strategy, mu: Charge,
           max_horizon: int = DEFAULT_HORIZON) -> CValue:
    return integrate(mu, expected_reward_stream(mdp, sigma, max_horizon))


@dataclass(frozen=True)
class SearchResult:
    best: PeriodicMarkovStrategy
    best_value: CValue
    ranking: tuple[tuple[PeriodicMarkovStrategy, CValue], ...] = field(repr=False)


def _canonical_pure(mdp: Mdp, max_period: int, max_preperiod: int, cap: int):
    """(compiled phases, strategy) for every canonical pure periodic
    strategy within the bounds.

    Raw combinations of phase rows of action indices run in declared
    action order, and only those that ``_canonical`` leaves unchanged are
    kept: each strategy comes once, at its own (L, q), in that order.
    """
    if max_period < 1 or max_preperiod < 0:
        raise ValueError("search bounds need max_period >= 1 and max_preperiod >= 0, "
                         f"got {max_period} and {max_preperiod}")
    bounds = [(L, q) for L in range(max_preperiod + 1) for q in range(1, max_period + 1)]
    per_phase = prod(len(acts) for acts in mdp.actions)
    total = sum(per_phase ** (L + q) for L, q in bounds)
    if total > cap:  # before anything is built: rows alone has per_phase entries
        raise BudgetExceeded(f"{total} raw strategies exceeds cap {cap}")
    rows = list(itertools.product(*(range(len(acts)) for acts in mdp.actions)))
    by_name = sorted(range(len(mdp.states)), key=mdp.states.__getitem__)
    choices = [[(s, ((a, Fraction(1)),)) for a in acts]
               for s, acts in zip(mdp.states, mdp.actions)]
    named = [tuple(choices[i][row[i]] for i in by_name) for row in rows]
    pairs = [[((1, j),) for j in row] for row in rows]
    return (([pairs[k] for k in c], PeriodicMarkovStrategy(L, q, tuple(named[k] for k in c)))
            for L, q in bounds
            for c in itertools.product(range(len(rows)), repeat=L + q)
            if _canonical(c[:L], c[L:]) == (c[:L], c[L:]))


def enumerate_pure_periodic(mdp: Mdp, max_period: int, max_preperiod: int,
                            cap: int = 2_000_000):
    """All distinct canonical pure periodic Markov strategies within
    bounds, in declared action order."""
    return (strat for _, strat in _canonical_pure(mdp, max_period, max_preperiod, cap))


def _stream_value(mu: Charge, f: RationalStream, weights: dict) -> CValue:
    """integrate(mu, f) for a search stream of shape (L, q), as the dot
    product sum n_t * (D // d_t) * w_t / (D * W) of its stage values
    n_t / d_t, D = lcm(d_t), with the shape's weights (W, w).

    The weights are computed on the first nonzero stream of a shape, and
    that stream is also integrated by level sets: the two must agree, so
    a charge whose integral is not this linear functional fails here
    rather than ranking wrongly.  A zero stream is 0 without weights, as
    ``integrate`` never evaluates the charge on a zero stream.
    """
    stages = f.preperiod + f.cycle
    if not any(stages):
        return CValue.exact(Fraction(0))
    shape = (len(f.preperiod), len(f.cycle))
    first = shape not in weights
    if first:
        weights[shape] = _stage_weights(mu, *shape)
    W, w = weights[shape]
    D = lcm(*(v.denominator for v in stages))
    out = CValue.exact(Fraction(
        sum(v.numerator * (D // v.denominator) * wt for v, wt in zip(stages, w)), D * W))
    if first and integrate(mu, f) != out:
        raise ArithmeticError(f"stage weights of shape {shape} give {out}, "
                              f"level sets give {integrate(mu, f)}")
    return out


def best_periodic(mdp: Mdp, mu: Charge, max_period: int, max_preperiod: int,
                  cap: int = 2_000_000,
                  max_horizon: int = DEFAULT_HORIZON) -> SearchResult:
    """Exhaustive search over pure periodic Markov strategies.

    Ranking is by guaranteed value (minimum candidate), descending,
    with ties broken by the lexicographic strategy encoding in declared
    action order.  This lower-bounds the value of the MDP under the
    charge.
    """
    R, cells = _integer_form(mdp)
    start = mdp.states.index(mdp.initial)
    by_word: dict[tuple, int] = {}  # canonical reward word -> index into values
    values: list[CValue] = []
    weights: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}  # (L, q) -> (W, w)
    found: list[tuple[PeriodicMarkovStrategy, int]] = []
    for phases, strat in _canonical_pure(mdp, max_period, max_preperiod, cap):
        pre, cyc = _reward_stream(cells, start, R, phases, strat.preperiod_length, max_horizon)
        word = _canonical(pre, cyc)
        k = by_word.get(word)
        if k is None:
            k = by_word[word] = len(values)
            values.append(_stream_value(mu, _pairs_stream(pre, cyc), weights))
        found.append((strat, k))
    # rank each distinct value once; enumeration order is the tie-break
    # order, and this sort is stable
    lows = [v.low for v in values]
    rank = {q: i for i, q in enumerate(sorted(set(lows), reverse=True))}
    key = [rank[q] for q in lows]
    found.sort(key=lambda e: key[e[1]])
    entries = tuple((strat, values[k]) for strat, k in found)
    best, best_value = entries[0]
    return SearchResult(best, best_value, entries)


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
