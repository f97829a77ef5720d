"""Finite MDPs with exact rational data, and exact payoff evaluation.

Strategies covered: stationary (possibly randomized) and periodic
Markov (phase- and state-dependent, possibly randomized).  Evaluation
runs on integers: the rows of ``Mdp.rows`` over the lcm M of their
scales, and a strategy compiled to (weight, action index) pairs per
phase and state, the weights over the lcm A of its action
probabilities.  The state distribution is x / sum(x) for a primitive
integer vector x, divided by gcd(*x) after every stage, so the first
repeat of the key (phase, x) certifies the expected-reward stream's
eventual period.  Each stage's expected reward is a reduced integer pair
(numerator, denominator).  Payoffs are exact integrals of that stream
against a charge expression.

A step table, built once per MDP, holds for each (state, action) the
reduced reward r / M and the next state, or -1 where the row splits.
While x is a point mass, the strategy is pure at that phase and state
and the row does not split, a stage is one read of that table, with no
scale: A cancels.  Any other stage runs the integer loop.

The search runs in two passes.  The first generates the canonical pure
strategies directly, as tuples of phase rows of action indices in
declared order: each length's primitive cycles are found once, and each
preperiod is followed by those ending in a row other than its own last,
so each strategy comes once.  It collects the canonical words of reward
pairs, canonicalising each distinct raw word the walk returns once: a
later strategy with the same raw word reads its index back.  The
second values each distinct nonzero word.  A word of shape (L, q) is
also one of shape (L', q) for every L' >= L, so one vector of the
charge's weights (``charges._stage_weights``) per cycle length q, of
shape (Lq, q) with Lq the longest preperiod among the words of that q,
values each of them as one integer dot product with its first Lq + q
stages.  Each vector is checked once against ``integrate``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from .charges import Charge, CValue, _stage_weights, integrate
from .streams import RationalStream, _canonical, stream


class CycleNotFound(RuntimeError):
    """State distribution never exactly recurred within the horizon."""


class BudgetExceeded(RuntimeError):
    """Enumeration request is larger than the configured cap."""


@dataclass(frozen=True)
class Problem:
    kind: str  # RowSumError | MissingAction | UnknownState | DuplicateState
    where: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.where}"


class MdpValidationError(ValueError):
    def __init__(self, problems: list[Problem]):
        self.problems = problems
        super().__init__("; ".join(str(p) for p in problems))


@dataclass(frozen=True)
class Mdp:
    """``rows[i][j]`` is action j at state i, (L, L*r, ((z, L*p_z), ...)):
    L the lcm of its denominators, nonzero p_z only, in state order.  Every
    reader uses it; ``rewards`` and ``transitions`` are views of it.  An
    Mdp is immutable, so ``ensure_valid`` computes its validity once and
    reads it back on every later call, and ``blackwell`` keeps its last
    policy's elimination on the object."""

    states: tuple[str, ...]
    initial: str
    actions: tuple[tuple[str, ...], ...]  # parallel to states
    rows: tuple[tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...], ...]  # [state][action]

    def state_index(self, s: str) -> int:
        return self.states.index(s)

    def action_list(self, s: str) -> tuple[str, ...]:
        return self.actions[self.state_index(s)]

    def reward(self, s: str, a: str) -> Fraction:
        return self.rewards[self.state_index(s)][self.action_list(s).index(a)]

    def transition(self, s: str, a: str) -> dict[str, Fraction]:
        i = self.state_index(s)
        scale, _, sparse = self.rows[i][self.actions[i].index(a)]
        return {self.states[z]: Fraction(w, scale) for z, w in sparse}

    @cached_property
    def rewards(self) -> tuple[tuple[Fraction, ...], ...]:  # [state][action]
        return tuple(tuple(Fraction(rhs, scale) for scale, rhs, _ in per) for per in self.rows)

    @cached_property
    def transitions(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:  # [state][action][next]
        zero = dict.fromkeys(range(len(self.states)), Fraction(0))
        return tuple(tuple(tuple((zero | {z: Fraction(w, scale) for z, w in sparse}).values())
                           for scale, _, sparse in per) for per in self.rows)

    @cached_property
    def _problems(self) -> tuple[Problem, ...]:
        return tuple(validate(self))

    @cached_property
    def _solved(self) -> dict:
        """``blackwell``'s last elimination on this object, at most one
        entry: a policy's action indices -> (k, det, nums)."""
        return {}

    @property
    def is_deterministic(self) -> bool:
        return all(len(row) == 1 and row[0][1] == L for per in self.rows for L, _, row in per)


def build_mdp(states, initial, actions, rewards, transitions) -> Mdp:
    """Assemble an Mdp from mapping-style data.

    ``actions``: state -> iterable of action ids;
    ``rewards``: (state, action) -> rational;
    ``transitions``: (state, action) -> {next state: probability}.
    Missing transition entries default to probability 0; a nonzero one
    to a state not in ``states`` raises MdpValidationError.
    """
    states = tuple(states)
    index = {s: z for z, s in enumerate(states)}
    acts = tuple(tuple(actions.get(s, ())) for s in states)

    def row(s, a):
        reward = Fraction(rewards[(s, a)])
        dist = {t: q for t, p in transitions[(s, a)].items() if (q := Fraction(p))}
        if unknown := [t for t in dist if t not in index]:
            raise MdpValidationError([Problem("UnknownState", f"transition from ({s!r}, "
                                              f"{a!r}) to unknown state {t!r}") for t in unknown])
        probs = sorted([(index[t], q) for t, q in dist.items()])
        scale = lcm(reward.denominator, *[q.denominator for _, q in probs])
        return (scale, scale // reward.denominator * reward.numerator,
                tuple([(z, scale // q.denominator * q.numerator) for z, q in probs]))

    return Mdp(states, initial, acts, tuple(tuple(row(s, a) for a in acts[i])
                                            for i, s in enumerate(states)))


def validate(mdp: Mdp) -> list[Problem]:
    """Every invariant violation, with its location.  Empty list = ok."""
    problems: list[Problem] = []
    if mdp.initial not in mdp.states:
        problems.append(Problem("UnknownState", f"initial state {mdp.initial!r}"))
    if len(set(mdp.states)) < len(mdp.states):  # the count() below runs only then
        repeated = sorted({s for s in mdp.states if mdp.states.count(s) > 1})
        problems.append(Problem("DuplicateState", f"states declared twice: {repeated}"))
    for s, acts, per in zip(mdp.states, mdp.actions, mdp.rows):
        if not acts:
            problems.append(Problem("MissingAction", f"state {s!r} has no actions"))
        for a, (scale, _, sparse) in zip(acts, per):
            if any(w < 0 or w > scale for _, w in sparse):
                problems.append(Problem("RowSumError", f"({s!r}, {a!r}): entry outside [0,1]"))
            elif (total := sum(w for _, w in sparse)) != scale:
                problems.append(Problem(
                    "RowSumError", f"({s!r}, {a!r}): row sums to {Fraction(total, scale)}"))
    return problems


def ensure_valid(mdp: Mdp) -> Mdp:
    """mdp itself, or MdpValidationError with every problem ``validate``
    finds.  ``validate`` runs once per Mdp object; later calls read its
    result back, and each raise gets a fresh list of the same problems."""
    if mdp._problems:
        raise MdpValidationError(list(mdp._problems))
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
    reached may stay unresolved.  Its length is 0, so it is never read
    as a pure cell."""

    def __init__(self, phase: int, state: str, action: str | None):
        self.args = (phase, state, action)

    def __iter__(self):
        raise StrategyMismatch(*self.args)

    def __len__(self):
        return 0


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


def _integer_form(mdp: Mdp) -> tuple[int, list[list[tuple]], list[list[tuple]]]:
    """(M, cells, table): cells[i][j] = (M * reward, sparse row of M * P)
    for action j at state i, M the lcm of the rows' scales; table[i][j] =
    (numerator, denominator, next state), one stage from a point mass at i
    under action j: the reward r / M reduced, next state -1 where the row
    splits.  Both are as large as the rows.  Raises MdpValidationError."""
    ensure_valid(mdp)
    M = lcm(*(scale for per in mdp.rows for scale, _, _ in per))
    cells = [[(M // scale * rhs, tuple((z, M // scale * w) for z, w in sparse))
              for scale, rhs, sparse in per] for per in mdp.rows]
    table = [[(r // gcd(r, M), M // gcd(r, M), row[0][0] if len(row) == 1 else -1)
              for r, row in opts] for opts in cells]
    return M, cells, table


DEFAULT_HORIZON = 4096


LEAST_HORIZON = 2  # the first repeat can be seen at the second stage's check


def _check_horizon(max_horizon: int) -> None:
    if max_horizon < LEAST_HORIZON:
        raise ValueError(f"max_horizon must be at least {LEAST_HORIZON}, got {max_horizon}")


def _reward_stream(cells: list, table: list, start: int, scale: int, phases: list, L: int,
                   max_horizon: int) -> tuple[list, list]:
    """The expected-reward stream from state ``start``, for the integer
    form's ``cells`` and ``table`` and a compiled strategy's ``phases``,
    as the word the recurrence found: (preperiod, cycle) lists of reduced
    (numerator, denominator) pairs, neither necessarily minimal.  Rewards
    are over ``scale``, which is M * A, and the distribution is x / sum(x).

    A point mass is held as its state's index, every other distribution
    as the tuple x, so each distribution has one key.  From a point mass
    whose cell is pure and whose row does not split a stage is one table
    read; any other stage runs the integer loop.  The key is checked
    before each stage, so a repeat is seen within ``max_horizon`` checks
    only if it comes by stage ``max_horizon - 1``."""
    n, phase_count = len(cells), len(phases)
    x: int | tuple = start
    seen: dict[tuple, int] = {}
    rewards: list[tuple[int, int]] = []
    k = 0
    for _ in range(max_horizon):
        key = (k, x)
        if key in seen:
            i0 = seen[key]
            return rewards[:i0], rewards[i0:]
        seen[key] = len(rewards)
        if type(x) is int:
            pairs = phases[k][x]
            if len(pairs) == 1:
                num, den, z = table[x][pairs[0][1]]
                if z >= 0:
                    rewards.append((num, den))
                    x = z
                    k = k + 1 if k + 1 < phase_count else L
                    continue
            x = tuple(int(i == x) for i in range(n))
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
        if sum(x) == 1:
            x = x.index(1)
        k = k + 1 if k + 1 < phase_count else L
    raise CycleNotFound(
        f"no exact recurrence of (phase, state distribution) within {max_horizon} stages")


def expected_reward_stream(mdp: Mdp, sigma: Strategy,
                           max_horizon: int = DEFAULT_HORIZON) -> RationalStream:
    """Exact stream of expected stage rewards.

    Iterates the state distribution as a primitive integer vector; an
    exact recurrence of (phase, distribution) certifies the cycle.
    Raises ValueError if ``max_horizon`` is below 2, CycleNotFound if no
    recurrence shows up within the horizon, and StrategyMismatch if a
    reached state has no known action.
    """
    _check_horizon(max_horizon)
    M, cells, table = _integer_form(mdp)
    L, A, phases = _compile(mdp, sigma)
    return _pairs_stream(*_reward_stream(cells, table, mdp.states.index(mdp.initial), M * A,
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
    strategy within the bounds: each comes once, at its own (L, q), in
    the product order of its tuple of phase rows of action indices, so in
    declared action order.

    Such a tuple is canonical when its cycle is primitive, the power of
    no shorter word, and a preperiod, if any, ends in a row other than
    the cycle's last.  So the primitive cycles of each length are found
    once, and each preperiod tuple is followed by those of them with
    another last row: no tuple is built to be dropped.
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
    ids = range(len(rows))
    primitive = {q: [c for c in itertools.product(ids, repeat=q) if _canonical((), c)[1] == c]
                 for q in range(1, max_period + 1)}
    return (([pairs[k] for k in c], PeriodicMarkovStrategy(L, q, tuple([named[k] for k in c])))
            for L, q in bounds
            for pre in itertools.product(ids, repeat=L)
            for c in (pre + cyc for cyc in primitive[q] if not L or cyc[-1] != pre[-1]))


def enumerate_pure_periodic(mdp: Mdp, max_period: int, max_preperiod: int,
                            cap: int = 2_000_000):
    """All distinct canonical pure periodic Markov strategies within
    bounds, in declared action order."""
    return (strat for _, strat in _canonical_pure(mdp, max_period, max_preperiod, cap))


_ZERO_WORD = ((), ((0, 1),))


def _dot_value(word: tuple, L: int, W: int, w: tuple) -> CValue:
    """The word's value under the weights (W, w) of shape (L, q), q its
    cycle length and L at least its preperiod: the dot product
    sum n_t * (D // d_t) * w_t / (D * W) over its first L + q stages
    n_t / d_t, the cycle unrolled, with D = lcm(d_t)."""
    pre, cyc = word
    m = L + len(cyc) - len(pre)
    stages = pre + (cyc * -(-m // len(cyc)))[:m]
    D = lcm(*(d for _, d in stages))
    return CValue.exact(Fraction(sum(n * (D // d) * wt for (n, d), wt in zip(stages, w)), D * W))


def _word_values(mu: Charge, words: list, checks: dict) -> list[CValue]:
    """integrate(mu, f) for each distinct canonical reward word of a
    search, f the word's stream; ``checks`` maps each nonzero cycle
    length q to (index, stream) of its first word.

    The nonzero words of one cycle length q share the weights of shape
    (Lq, q), Lq their longest preperiod, computed once.  The first word
    of each q is also integrated by level sets: the two must agree, so a
    charge whose integral is not this linear functional fails here rather
    than ranking wrongly.  A zero word is 0 without weights, as
    ``integrate`` never evaluates the charge on a zero stream.
    """
    longest = dict.fromkeys(checks, 0)  # q -> Lq; the zero word has no preperiod
    for pre, cyc in words:
        if len(cyc) in longest:
            longest[len(cyc)] = max(longest[len(cyc)], len(pre))
    weights = {q: (Lq, *_stage_weights(mu, Lq, q)) for q, Lq in longest.items()}
    zero = CValue.exact(Fraction(0))
    values = [zero if word == _ZERO_WORD else _dot_value(word, *weights[len(word[1])])
              for word in words]
    for q, (k, f) in checks.items():
        level = integrate(mu, f)
        if level != values[k]:
            raise ArithmeticError(f"stage weights of shape {(longest[q], q)} give {values[k]}, "
                                  f"level sets give {level}")
    return values


def best_periodic(mdp: Mdp, mu: Charge, max_period: int, max_preperiod: int,
                  cap: int = 2_000_000,
                  max_horizon: int = DEFAULT_HORIZON) -> SearchResult:
    """Exhaustive search over pure periodic Markov strategies.

    Ranking is by value, descending, with ties broken by the
    lexicographic strategy encoding in declared action order.  This
    lower-bounds the value of the MDP under the charge.  Every reward
    stream is found before the charge is evaluated, so CycleNotFound and
    StrategyMismatch come before any error of the charge.
    """
    _check_horizon(max_horizon)
    M, cells, table = _integer_form(mdp)
    start = mdp.states.index(mdp.initial)
    by_word: dict[tuple, int] = {}  # reward word, raw or canonical -> its canonical one's index
    words: list[tuple] = []
    checks: dict[int, tuple[int, RationalStream]] = {}  # q -> its first nonzero word
    found: list[tuple[PeriodicMarkovStrategy, int]] = []
    for phases, strat in _canonical_pure(mdp, max_period, max_preperiod, cap):
        pre, cyc = _reward_stream(cells, table, start, M, phases, strat.preperiod_length,
                                  max_horizon)
        raw = (tuple(pre), tuple(cyc))
        k = by_word.get(raw)
        if k is None:
            word = _canonical(pre, cyc)
            k = by_word.get(word)
            if k is None:
                k = by_word[word] = len(words)
                words.append(word)
                # Each distinct word's stream is built, from the first raw
                # word that reaches it, but only the check streams are kept:
                # bench/tracer.py reads the search's cache ratio from these
                # calls until it reads it from the result.
                f = _pairs_stream(pre, cyc)
                if word != _ZERO_WORD and len(word[1]) not in checks:
                    checks[len(word[1])] = (k, f)
            by_word[raw] = k
        found.append((strat, k))
    values = _word_values(mu, words, checks)
    # rank each distinct value once; enumeration order is the tie-break
    # order, and this sort is stable
    exact = [v.exact_value for v in values]
    rank = {q: i for i, q in enumerate(sorted(set(exact), reverse=True))}
    key = [rank[q] for q in exact]
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
