"""Finite MDPs with exact rational data, and exact payoff evaluation.

Strategies are periodic Markov, possibly randomized; a stationary one
has one phase.  Evaluation runs on integers: ``Mdp.rows`` read over the
lcm M of their scales, and a strategy compiled to (weight, action index)
pairs per phase and state, the weights over the lcm A of its action
probabilities.  The state distribution is x / sum(x) for a primitive
integer vector x, divided by gcd(*x) after every stage, so the first
repeat of the key (phase, x) certifies the expected-reward stream's
eventual period.  Each stage's expected reward is a reduced integer pair
(numerator, denominator).  Payoffs are exact integrals of that stream
against a charge expression.

``Mdp._integer_form``, cached on the Mdp, is M and a step table: per
(state, action) the reduced reward and the next state, or None where
the row splits.  A walk reads a strategy as rows plus its phase -> row
order, all resolved by ``_compile``: per state the (weight, action index)
pairs and, where the cell is one known action, the table's step, so from
a point mass a stage is one read.  Others run the loop over ``Mdp.rows``.

The search generates the canonical pure strategies directly, as tuples
of row ids (each row a tuple of action indices, in declared order), by
shape and preperiod: each length's primitive cycles and their named rows
are built once, and each preperiod is followed by those ending in a row
other than its own last.  A pure strategy's reward word is fixed by its
actions at the (phase, state) cells its point-mass walk visits, so each
shape keeps a tree of those cells, with no parent links, which a strategy
descends by its actions: a miss re-walks it from the root by the step
table, and one that meets a split row is walked alone.  A word of shape
(L, q) is also one of shape (L', q) for L' >= L, so one vector of the
charge's weights (``charges._stage_weights``) per cycle length q, of
shape (Lq, q) with Lq the longest preperiod among the words of that q,
values each as one integer dot product, checked once per q against
``integrate``, which measures the word's level masks on the word's own
shape.  The distinct values are ranked by num * (D // den), D the lcm of
their denominators, not as Fractions.  Strategies are named tuples, and
their named rows are compiled, once per search, only when a strategy
first meets a split row or the horizon.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import NamedTuple

from .charges import Charge, CValue, _stage_weights, integrate
from .periodic_sets import BudgetExceeded, _Frozen
from .streams import RationalStream, _canonical, stream


class CycleNotFound(RuntimeError):
    """State distribution never exactly recurred within the horizon."""


class Problem(_Frozen):
    # kind: RowSumError | MissingAction | UnknownState | DuplicateState | DuplicateAction
    _fields = ("kind", "where")  # str each

    def __str__(self) -> str:
        return f"{self.kind}: {self.where}"


class MdpValidationError(ValueError):
    def __init__(self, problems: list[Problem]):
        self.problems = problems
        super().__init__("; ".join(str(p) for p in problems))


class Mdp(_Frozen):
    """``rows[i][j]`` is action j at state i, (L, L*r, ((z, L*p_z), ...)):
    L the lcm of its denominators, nonzero p_z only, in state order.  Every
    reader uses it; ``rewards`` and ``transitions`` are views of it.  An
    Mdp is immutable, so ``ensure_valid`` computes its validity once and
    reads it back on every later call, and ``blackwell`` keeps its last
    policy's elimination on the object."""

    _fields = ("states", "initial", "actions", "rows")  # actions parallel to states

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
    def _integer_form(self) -> tuple[int, list[list]]:
        """(M, table), M the lcm of the rows' scales: table[i][j] = ((num,
        den), next state), one stage from a point mass at i under action j,
        its reward reduced, or None where the row splits.  Raises
        MdpValidationError, on every call, for an invalid Mdp."""
        ensure_valid(self)
        return (lcm(*(scale for per in self.rows for scale, _, _ in per)),
                [[((rhs // gcd(rhs, scale), scale // gcd(rhs, scale)), sparse[0][0])
                  if len(sparse) == 1 else None for scale, rhs, sparse in per]
                 for per in self.rows])

    @cached_property
    def _action_index(self) -> dict[str, dict[str, int]]:
        """state -> {action: its index in ``rows``}; validates, as a repeated name has two."""
        ensure_valid(self)
        return {s: {a: j for j, a in enumerate(acts)} for s, acts in zip(self.states, self.actions)}

    @cached_property
    def _solved(self) -> dict:
        """``blackwell``'s last elimination on this object, at most one
        entry: a policy's action indices -> (k, det, nums)."""
        return {}


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
        reward = rewards[(s, a)]
        if type(reward) is not Fraction:
            reward = Fraction(reward)
        dist = {t: q for t, p in transitions[(s, a)].items()
                if (q := p if type(p) is Fraction else Fraction(p))}
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
    if len(set(mdp.states)) < len(mdp.states):
        repeated = [s for s, run in itertools.groupby(sorted(mdp.states)) if len(list(run)) > 1]
        problems.append(Problem("DuplicateState", f"states declared twice: {repeated}"))
    for s, acts, per in zip(mdp.states, mdp.actions, mdp.rows):
        if not acts:
            problems.append(Problem("MissingAction", f"state {s!r} has no actions"))
        if len(set(acts)) < len(acts):
            repeated = [a for a, run in itertools.groupby(sorted(acts)) if len(list(run)) > 1]
            problems.append(Problem("DuplicateAction", f"state {s!r} repeats actions {repeated}"))
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


_ONE = Fraction(1)


def _normalize_dist(dist, state: str,
                    phase: int | None = None) -> tuple[tuple[str, Fraction], ...]:
    """The sorted (action, probability) pairs of a row's entry; the
    location in an error names the phase when one is given."""
    if isinstance(dist, str):
        return ((dist, _ONE),)
    items = tuple(sorted((a, Fraction(q)) for a, q in dict(dist).items() if Fraction(q)))
    if sum(q for _, q in items) != 1 or any(q < 0 for _, q in items):
        where = f"state {state!r}" if phase is None else f"phase {phase}, state {state!r}"
        raise ValueError(f"action distribution at {where} must sum to 1: {items}")
    return items


class PeriodicMarkovStrategy(NamedTuple):
    """Phase- and state-dependent action distributions.

    Phases 1..L are the preperiod; phases L+1..L+q repeat cyclically.
    Canonical: q is minimal and L is minimal given q.  An immutable named
    tuple, so equal to the plain tuple of its fields and hashed as one.
    """

    preperiod_length: int
    period: int
    rows: tuple[tuple[tuple[str, tuple[tuple[str, Fraction], ...]], ...], ...]

    def action(self, state: str) -> str:
        """The action at ``state`` of a one-phase pure strategy."""
        if len(self.rows) != 1:
            raise ValueError(f"strategy of {len(self.rows)} phases has no single action per state")
        d = dict(self.rows[0])[state]
        if len(d) != 1:
            raise ValueError(f"strategy is randomized at state {state!r}")
        return d[0][0]


def stationary(choices) -> PeriodicMarkovStrategy:
    """``choices``: state -> action id, or state -> {action: prob}."""
    return PeriodicMarkovStrategy(0, 1, (tuple(sorted(
        (s, _normalize_dist(d, s)) for s, d in dict(choices).items())),))


def periodic(preperiod_rows, cycle_rows) -> PeriodicMarkovStrategy:
    """Canonicalizing constructor.

    Each row maps state -> action id or state -> {action: prob}.  A row
    object given for several phases is normalized once, at its first.
    """
    memo = {}  # id(row) -> (row, normalized); holding row keeps its id in use

    def norm(row, k):
        if (hit := memo.get(id(row))) is None:
            hit = memo[id(row)] = (row, tuple(sorted((s, _normalize_dist(d, s, k))
                                                     for s, d in dict(row).items())))
        return hit[1]

    pre = [norm(r, i + 1) for i, r in enumerate(preperiod_rows)]
    cyc = [norm(r, len(pre) + i + 1) for i, r in enumerate(cycle_rows)]
    if not cyc:
        raise ValueError("cycle must have at least one phase")
    pre, cyc = _canonical(pre, cyc)
    return PeriodicMarkovStrategy(len(pre), len(cyc), pre + cyc)


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


def _compile(mdp: Mdp, rows) -> tuple[int, list[tuple[list, list]]]:
    """(A, phases): strategy rows resolved against the MDP for a walk.

    phases[k] = (cells, steps) for rows[k]: cells[i] the (weight, action
    index) pairs of state i, weights over A, the lcm of the rows' action
    probabilities; steps[i] the step table's entry where the cell is one
    known action, else None."""
    table = mdp._integer_form[1]
    A = lcm(*(p.denominator for row in rows for _, dist in row for _, p in dist))
    phases = []
    for k, row in enumerate(rows, start=1):
        given = dict(row)
        cells, steps = [], []
        for (s, index), opts in zip(mdp._action_index.items(), table):
            pairs = []
            for a, p in given.get(s, ((None, 1),)):  # a state left out: action None
                if (j := index.get(a)) is None:
                    pairs = _Unresolved(k, s, a)
                    break
                pairs.append((p.numerator * (A // p.denominator), j))
            cells.append(pairs)
            steps.append(opts[pairs[0][1]] if len(pairs) == 1 else None)
        phases.append((cells, steps))
    return A, phases


DEFAULT_HORIZON = 4096


LEAST_HORIZON = 2  # the first repeat can be seen at the second stage's check


STRATEGY_CAP = 2_000_000  # the budget of every search and check, read on each call


def _check_horizon(max_horizon: int) -> None:
    if max_horizon < LEAST_HORIZON:
        raise ValueError(f"max_horizon must be at least {LEAST_HORIZON}, got {max_horizon}")


def _reward_stream(mdp: Mdp, rows: list, order, L: int, start: int, A: int,
                   max_horizon: int) -> tuple[int, list]:
    """The expected-reward stream from state ``start`` as (i0, rewards):
    reduced (numerator, denominator) pairs over M * A (M from
    ``Mdp._integer_form``) up to the first repeat, the cycle from index
    i0, neither part necessarily minimal.  Phase k plays ``rows[order[k]]``,
    (cells, steps) from ``_compile``; the last len(order) - L phases
    repeat.  A point mass at x is keyed by k * n + x, any other
    distribution x / sum(x) by (k, x).  The key is checked before each
    stage, so a repeat is seen within ``max_horizon`` checks only if it
    comes by stage ``max_horizon - 1``."""
    M = mdp._integer_form[0]
    n, phase_count = len(mdp.states), len(order)
    x: int | tuple = start
    seen: dict = {}
    rewards: list[tuple[int, int]] = []
    k = 0
    for _ in range(max_horizon):
        key = k * n + x if type(x) is int else (k, x)
        if key in seen:
            return seen[key], rewards
        seen[key] = len(rewards)
        row = rows[order[k]]
        if type(x) is int:
            step = row[1][x]
            if step is not None:
                reward, x = step
                rewards.append(reward)
                k = k + 1 if k + 1 < phase_count else L
                continue
            x = tuple(int(i == x) for i in range(n))
        num = 0
        nxt = [0] * n
        for xi, cell, opts in zip(x, row[0], mdp.rows):
            if xi:
                for w, j in cell:
                    scale, rhs, sparse = opts[j]
                    w *= xi * (M // scale)
                    num += w * rhs
                    for z, c in sparse:
                        nxt[z] += w * c
        den = M * A * sum(x)
        g = gcd(num, den)
        rewards.append((num // g, den // g))
        g = gcd(*nxt)
        x = tuple([v // g for v in nxt])
        if sum(x) == 1:
            x = x.index(1)
        k = k + 1 if k + 1 < phase_count else L
    raise CycleNotFound(
        f"no exact recurrence of (phase, state distribution) within {max_horizon} stages")


def expected_reward_stream(mdp: Mdp, sigma: PeriodicMarkovStrategy,
                           max_horizon: int = DEFAULT_HORIZON) -> RationalStream:
    """Exact stream of expected stage rewards.

    Iterates the state distribution as a primitive integer vector; an
    exact recurrence of (phase, distribution) certifies the cycle.
    Raises ValueError if ``max_horizon`` is below 2, CycleNotFound if no
    recurrence shows up within the horizon, and StrategyMismatch if a
    reached state has no known action.
    """
    _check_horizon(max_horizon)
    A, phases = _compile(mdp, sigma.rows)
    i0, rewards = _reward_stream(mdp, phases, range(len(phases)), sigma.preperiod_length,
                                 mdp.states.index(mdp.initial), A, max_horizon)
    values = [Fraction(n, d) for n, d in rewards]
    return stream(values[:i0], values[i0:])


def payoff(mdp: Mdp, sigma: PeriodicMarkovStrategy, mu: Charge,
           max_horizon: int = DEFAULT_HORIZON) -> CValue:
    return integrate(mu, expected_reward_stream(mdp, sigma, max_horizon))


@dataclass(frozen=True)
class SearchResult:
    best: PeriodicMarkovStrategy
    best_value: CValue
    ranking: tuple[tuple[PeriodicMarkovStrategy, CValue], ...] = field(repr=False)


def _primitive_cycles(n: int, max_period: int) -> dict[int, list[tuple[int, ...]]]:
    """Per length q = 1..max_period, the tuples over range(n) that are no
    power u**(q/d) of a shorter one, in product order: each q's list drops
    the powers of the primitive tuples of the lengths d < q dividing it."""
    primitive: dict[int, list[tuple[int, ...]]] = {}
    for q in range(1, max_period + 1):
        powers = {u * (q // d) for d in primitive if q % d == 0 for u in primitive[d]}
        primitive[q] = [c for c in itertools.product(range(n), repeat=q) if c not in powers]
    return primitive


def _canonical_pure(mdp: Mdp, max_period: int, max_preperiod: int):
    """(rows, named, groups): the phase rows of action indices, in product
    order, the same rows as strategy rows, and a generator of (L, q,
    [(row ids, strategy), ...]), one group per shape (L, q) and preperiod.
    Each canonical pure periodic strategy within the bounds comes once,
    at its own (L, q), in the product order of its row ids, so in
    declared action order.

    Such a tuple is canonical when its cycle is primitive, the power of
    no shorter word, and a preperiod, if any, ends in a row other than
    the cycle's last.  So the primitive cycles of each length, and their
    named rows, are built once, and each preperiod tuple is followed by
    those of them with another last row: no tuple is built to be dropped.
    With one row (every state has one action) only shape (0, 1) holds a
    canonical strategy, and only its group is built and yielded.
    """
    if max_period < 1 or max_preperiod < 0:
        raise ValueError("search bounds need max_period >= 1 and max_preperiod >= 0, "
                         f"got {max_period} and {max_preperiod}")
    per_phase = prod(len(acts) for acts in mdp.actions)
    # partial sums in bound order: with two or more rows per phase the terms
    # grow geometrically, so a huge request passes the cap within a few of them
    sums = itertools.accumulate(per_phase ** (L + q) for L in range(max_preperiod + 1)
                                for q in range(1, max_period + 1))
    total = ((max_preperiod + 1) * max_period if per_phase == 1  # one strategy per shape
             else next((t for t in sums if t > STRATEGY_CAP), 0))
    if total > STRATEGY_CAP:  # before anything is built: rows alone has per_phase entries
        raise BudgetExceeded(f"at least {total} raw strategies exceeds cap {STRATEGY_CAP}")
    if per_phase == 1:  # a longer cycle is a power of (0,); a preperiod ends in its row
        max_period, max_preperiod = 1, 0
    rows = list(itertools.product(*(range(len(acts)) for acts in mdp.actions)))
    by_name = sorted(range(len(mdp.states)), key=mdp.states.__getitem__)
    choices = [[(s, ((a, _ONE),)) for a in acts]
               for s, acts in zip(mdp.states, mdp.actions)]
    named = [tuple(choices[i][row[i]] for i in by_name) for row in rows]
    cycles = {q: [(c, tuple([named[k] for k in c])) for c in primitive]
              for q, primitive in _primitive_cycles(len(rows), max_period).items()}
    new = tuple.__new__  # the named tuple's own __new__ is one more Python call per strategy
    return rows, named, ((L, q, [(pre + c, new(PeriodicMarkovStrategy, (L, q, head + tail)))
                                 for c, tail in cycles[q] if not L or c[-1] != pre[-1]])
                         for L in range(max_preperiod + 1) for q in range(1, max_period + 1)
                         for pre in itertools.product(range(len(rows)), repeat=L)
                         for head in [tuple([named[k] for k in pre])])


_ZERO_WORD = ((), ((0, 1),))


def _dot_value(word: tuple, L: int, W: int, w: tuple) -> tuple[int, int]:
    """The word's value under the weights (W, w) of shape (L, q), q its
    cycle length and L at least its preperiod, as a reduced (numerator,
    denominator) pair: the dot product sum n_t * (D // d_t) * w_t / (D * W)
    over its first L + q stages n_t / d_t, the cycle unrolled, with
    D = lcm(d_t)."""
    pre, cyc = word
    m = L + len(cyc) - len(pre)
    stages = pre + (cyc * -(-m // len(cyc)))[:m]
    D = lcm(*(d for _, d in stages))
    num, den = sum(n * (D // d) * wt for (n, d), wt in zip(stages, w)), D * W
    g = gcd(num, den)
    return num // g, den // g


def _word_values(mu: Charge, words: list, checks: dict) -> list[tuple[int, int]]:
    """integrate(mu, f) for each distinct canonical reward word of a
    search, f the word's stream, as a reduced (numerator, denominator)
    pair; ``checks`` maps each nonzero cycle length q to (index, stream)
    of its first word.

    The nonzero words of one cycle length q share the weights of shape
    (Lq, q), Lq their longest preperiod, computed once.  The first word
    of each q is also valued by ``integrate``.  Both go through
    ``charges._masses``, the weights on the atoms of shape (Lq, q) and
    ``integrate`` on the word's level masks on its own shape, so a fault
    in the atoms or in ``_dot_value``'s unrolling fails here rather than
    ranking wrongly.  A zero word is (0, 1) without weights, as
    ``integrate`` never evaluates the charge on a zero stream.
    """
    longest = dict.fromkeys(checks, 0)  # q -> Lq; the zero word has no preperiod
    for pre, cyc in words:
        if len(cyc) in longest:
            longest[len(cyc)] = max(longest[len(cyc)], len(pre))
    weights = {q: (Lq, *_stage_weights(mu, Lq, q)) for q, Lq in longest.items()}
    values = [(0, 1) if word == _ZERO_WORD else _dot_value(word, *weights[len(word[1])])
              for word in words]
    for q, (k, f) in checks.items():
        level, got = integrate(mu, f), Fraction(*values[k])
        if level != got:
            raise ArithmeticError(f"stage weights of shape {(longest[q], q)} give {got}, "
                                  f"level sets give {level}")
    return values


def best_periodic(mdp: Mdp, mu: Charge, max_period: int, max_preperiod: int,
                  max_horizon: int = DEFAULT_HORIZON) -> SearchResult:
    """Exhaustive search over pure periodic Markov strategies.

    Ranking is by value, descending, with ties broken by the
    lexicographic strategy encoding in declared action order.  This
    lower-bounds the value of the MDP under the charge.  Every reward
    stream is found before the charge is evaluated, so CycleNotFound and
    StrategyMismatch come before any error of the charge.  Values are
    kept as reduced integer pairs, and ranked on integers.

    A pure strategy's reward word of shape (L, L + q) depends only on
    its actions at the (phase, state) cells its point-mass walk visits,
    so each shape has one decision tree.  A node (phase, state, kids) is a
    visited cell, its kids by action nodes or leaves, a leaf the word's
    index; no node refers to its parent.  A strategy descends by its
    actions; at a missing child it is walked again from the root by the
    step table, adding the missing nodes, to its first repeated cell.  A
    split row or the horizon is a -1 leaf: that strategy is walked by
    ``_reward_stream``, which raises at the horizon.
    """
    _check_horizon(max_horizon)
    table = mdp._integer_form[1]
    actions, named, groups = _canonical_pure(mdp, max_period, max_preperiod)
    phases = None  # named compiled, when a strategy is first walked alone
    n, start = len(mdp.states), mdp.states.index(mdp.initial)
    by_word: dict[tuple, int] = {}  # reward word, raw or canonical -> its canonical one's index
    checks: dict[int, tuple[int, RationalStream]] = {}  # q -> its first nonzero word
    fractions: dict[tuple[int, int], Fraction] = {}  # reward pair -> its Fraction
    words, found, found_word = [], [], []  # canonical words; strategies; their word indices
    roots: dict[tuple, tuple] = {}  # (L, q) -> its tree's root, the start at phase 0

    def index(i0: int, rewards: list) -> int:
        raw = (i0, tuple(rewards))
        if (k := by_word.get(raw)) is None:
            pre, cyc = rewards[:i0], rewards[i0:]
            word = _canonical(pre, cyc)
            if (k := by_word.get(word)) is None:
                k = by_word[word] = len(words)
                words.append(word)
                # every distinct word's stream is built: bench/tracer.py counts them
                fractions.update((p, Fraction(*p)) for p in rewards if p not in fractions)
                f = stream([fractions[p] for p in pre], [fractions[p] for p in cyc])
                if word != _ZERO_WORD and len(word[1]) not in checks:
                    checks[len(word[1])] = (k, f)
            by_word[raw] = k
        return k

    def grow(node: tuple, ids: tuple, L: int, P: int) -> int:
        """The leaf of strategy ``ids``, walked from its shape's root ``node``."""
        seen, rewards = {}, []
        while True:
            k, x, kids = node
            seen[k * n + x] = len(rewards)
            j = actions[ids[k]][x]
            if table[x][j] is None or len(rewards) + 1 >= max_horizon:
                kids[j] = -1
                return -1
            reward, x = table[x][j]
            rewards.append(reward)
            k = k + 1 if k + 1 < P else L
            if (key := k * n + x) in seen:
                kids[j] = index(seen[key], rewards)
                return kids[j]
            node = kids[j] = kids[j] or (k, x, [None] * len(table[x]))

    for L, q, group in groups:
        root = top = roots.setdefault((L, q), (0, start, [None] * len(table[start])))
        for ids, strat in group:
            node = top
            while type(child := node[2][actions[ids[node[0]]][node[1]]]) is tuple:
                node = child
            if child is None:
                child = grow(root, ids, L, L + q)
            if child < 0:
                phases = phases or _compile(mdp, named)[1]
                child = index(*_reward_stream(mdp, phases, ids, L, start, 1, max_horizon))
            found.append(strat)
            found_word.append(child)
            # the group's strategies share their preperiod's cells
            while top[0] < L and type(child := top[2][actions[ids[top[0]]][top[1]]]) is tuple:
                top = child
    values = _word_values(mu, words, checks)
    # rank the distinct reduced pairs on integers (they never tie), then deal
    # the strategies into one list per rank in enumeration order, the tie-break
    distinct = set(values)
    D = lcm(*(d for _, d in distinct))
    per_rank = {v: [] for v in sorted(distinct, key=lambda v: v[0] * (D // v[1]), reverse=True)}
    per_word = [per_rank[v] for v in values]
    for strat, k in zip(found, found_word):
        per_word[k].append(strat)
    entries = []
    for v, strats in per_rank.items():
        entries += zip(strats, itertools.repeat(CValue(*v)))
    return SearchResult(*entries[0], tuple(entries))


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
