"""The library's canonical worked examples, rebuilt and machine-checked.

Three constructions are covered:

* the even-or-odd MDP with the half-frequency-on-odds plus dyadic-limit
  charge, whose value 1 is approached but never attained,
* the same MDP under a charge concentrated on stages 1, 4, 5, 8, ...,
  where an alternating strategy is optimal but no stationary one is,
* a two-state quit-or-stay MDP under half discounted, half average
  aggregation, where switching later is always strictly better.

Each verifier returns a report with exact expected and computed values.

The first is checked by an exhaustive sweep over pure periodic
strategies.  A bottom-action pattern b gives the set w of reward-1
stages: odd t is in w iff b_t = 0, and t + 1 iff b_t = 1.  Let w have
even period p with 2-part 2**a and residue set R.  The multiples of
2**n fall on the residues g = gcd(2**n, p) divides, on each with density
g / (2**n * p), so mu_n(w) = 2**n * density(w & multiples(2**n)) is
g * #{r in R : g | r} / p.  Once 2**n >= 2**a, g = 2**a: the dyadic
limit is 2**a * #{r in R : 2**a | r} / p, and each check is an integer
test on w's stage bits:

* the payoff is below 1 iff 2 * #{odd r in R} + 2**a * #{r in R : 2**a | r} < 2p;
* the shift lemma -- a reward-1 stage at a multiple of 2**n follows a
  reward-0 odd stage, n = 1..8 -- holds iff w & (w + 1) misses the even
  stages: every multiple of 2**n is even, so the n = 1 case covers the
  rest;
* the dichotomy: if mu_1(w) > 0, i.e. R holds an even residue, the odd
  part has mass 2 * #{odd r in R} / p < 1; else the dyadic limit is 0.

The payoff and the dichotomy read only R, which the preperiod of the
pattern cannot reach, so they run once per cycle group, as does the
shift lemma above the preperiod; below it, the preperiods failing it
are tabled once per length.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .charges import DyadicLimit, Frequency, Geometric, Mix, Restrict, value
from . import mdp as _mdp
from .mdp import (BudgetExceeded, Mdp, PeriodicMarkovStrategy, _primitive_cycles, build_mdp,
                  payoff, periodic, stationary)
from .periodic_sets import _tail_bits, arithmetic, difference, multiples, odds, union


# ---- reports -------------------------------------------------------------

@dataclass(frozen=True)
class CheckRow:
    check_id: str
    expected: str
    got: str
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    case_id: str
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def machine_lines(self) -> list[str]:
        return [f"CASE {r.check_id} EXPECT {r.expected} GOT {r.got} "
                f"{'PASS' if r.passed else 'FAIL'}" for r in self.rows]

    def text_report(self) -> str:
        width = max(len(r.check_id) for r in self.rows)
        lines = [f"== {self.case_id}: {'PASS' if self.passed else 'FAIL'} =="]
        for r in self.rows:
            mark = "ok  " if r.passed else "FAIL"
            lines.append(f"  {mark} {r.check_id.ljust(width)}  "
                         f"expected {r.expected}, got {r.got}")
        return "\n".join(lines)


def _row(check_id: str, expected, got) -> CheckRow:
    return CheckRow(check_id, str(expected), str(got), str(expected) == str(got))


def _flag(check_id: str, condition: bool, detail: str = "") -> CheckRow:
    return CheckRow(check_id, "true", detail or str(condition).lower(), condition)


def _check_bounds(n_max: int = 1, max_period: int | None = None, max_preperiod: int = 0,
                  blocks: bool = False, switches: bool = False) -> None:
    """ValueError for a vacuous bound; BudgetExceeded, before anything is
    built, if what the checks build passes ``mdp.STRATEGY_CAP``: given
    max_period, the sweep's preperiods (2**L per L) and cycle groups (L + 1
    per primitive cycle, 2**q of length q less those of each d | q, d < q);
    with ``blocks``, also the phases of the block strategies (2**n for
    n <= n_max); with ``switches``, alone, the phases of the late-switch
    strategies (n for n <= n_max).  Past the clipped bounds one term alone
    passes it."""
    for name, got, least in (("n_max", n_max, 1), ("max_period", max_period, 1),
                             ("max_preperiod", max_preperiod, 0)):
        if got is not None and got < least:
            raise ValueError(f"{name} must be at least {least}, got {got}")
    cap = _mdp.STRATEGY_CAP
    clip = cap.bit_length()
    total = 0
    if max_period is not None:
        prim: dict[int, int] = {}
        total = (2 << min(max_preperiod, clip)) - 1
        for q in range(1, min(max_period, clip) + 1):
            prim[q] = (1 << q) - sum(n for d, n in prim.items() if q % d == 0)
            total += (max_preperiod + 1) * prim[q]
        if total > cap:
            raise BudgetExceeded(f"at least {total} cycle groups and preperiods exceeds cap {cap}")
    if blocks and (phases := (2 << min(n_max, clip)) - 2) + total > cap:
        sweep = f" and {total} cycle groups and preperiods" if total else ""
        raise BudgetExceeded(f"at least {phases} block-strategy phases{sweep} exceeds cap {cap}")
    if switches and (phases := n_max * (n_max + 1) // 2) > cap:
        raise BudgetExceeded(f"at least {phases} late-switch phases exceeds cap {cap}")


# ---- builders ------------------------------------------------------------

def even_or_odd_mdp() -> Mdp:
    """Three states; at each odd stage the top action takes reward 1 now
    and 0 next, the bottom action the other way around."""
    return build_mdp(
        states=("1", "2", "3"),
        initial="1",
        actions={"1": ("T", "B"), "2": ("c",), "3": ("c",)},
        rewards={("1", "T"): 1, ("1", "B"): 0, ("2", "c"): 0, ("3", "c"): 1},
        transitions={("1", "T"): {"2": 1}, ("1", "B"): {"3": 1},
                     ("2", "c"): {"1": 1}, ("3", "c"): {"1": 1}},
    )


def even_or_odd_charge() -> Mix:
    """Half the odds-conditioned frequency charge, half the dyadic limit."""
    return Mix(((Fraction(1, 2), Restrict(Frequency(), odds())),
                (Fraction(1, 2), DyadicLimit())))


def block_strategy(n: int) -> PeriodicMarkovStrategy:
    """Play the bottom action at the last odd stage of every block of
    2**n stages (stages congruent to 2**n - 1), top at all other odd
    stages.  Guarantees reward 1 on every block boundary."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    q = 2 ** n
    rows = [{"1": "B" if k == q - 1 else "T", "2": "c", "3": "c"}
            for k in range(1, q + 1)]
    return periodic([], rows)


def alternating_strategy() -> PeriodicMarkovStrategy:
    """Top, then bottom, alternating on the visits to state 1."""
    rows = [{"1": "T", "2": "c", "3": "c"},
            {"1": "T", "2": "c", "3": "c"},
            {"1": "B", "2": "c", "3": "c"},
            {"1": "T", "2": "c", "3": "c"}]
    return periodic([], rows)


def top_probability(q) -> PeriodicMarkovStrategy:
    """Stationary strategy playing the top action with probability q."""
    q = Fraction(q)
    return stationary({"1": {"T": q, "B": 1 - q}, "2": "c", "3": "c"})


def sparse_block_charge() -> Restrict:
    """Frequency conditioned on {1, 4, 5, 8, 9, ...}: equal halves on
    the stages 4n-3 and the stages 4n."""
    return Restrict(Frequency(), union(arithmetic(1, 4), arithmetic(4, 4)))


def late_switch_mdp() -> Mdp:
    """Stay on reward 1, or take a one-stage hit to lock in 3/2 forever."""
    return build_mdp(
        states=("1", "2"),
        initial="1",
        actions={"1": ("T", "B"), "2": ("c",)},
        rewards={("1", "T"): 1, ("1", "B"): 0, ("2", "c"): Fraction(3, 2)},
        transitions={("1", "T"): {"1": 1}, ("1", "B"): {"2": 1},
                     ("2", "c"): {"2": 1}},
    )


def late_switch_charge() -> Mix:
    """Half discounted at factor 1/2, half long-run frequency."""
    return Mix(((Fraction(1, 2), Geometric(Fraction(1, 2))),
                (Fraction(1, 2), Frequency())))


def stay_strategy() -> PeriodicMarkovStrategy:
    return stationary({"1": "T", "2": "c"})


def switch_at(n: int) -> PeriodicMarkovStrategy:
    """Play top until stage n, bottom at stage n, anything after."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    pre = [{"1": "T", "2": "c"} for _ in range(n - 1)]
    pre.append({"1": "B", "2": "c"})
    return periodic(pre, [{"1": "T", "2": "c"}])


# ---- value-gap verification ----------------------------------------------

def verify_lower_bounds(n_max: int) -> VerificationReport:
    """Block strategies earn exactly 1 - 2**-n, with both intermediate
    measure computations checked on the way.  Past the cap on the
    strategies' phases BudgetExceeded is raised."""
    _check_bounds(n_max=n_max, blocks=True)
    mdp = even_or_odd_mdp()
    mu = even_or_odd_charge()
    odd_part = Restrict(Frequency(), odds())
    rows = []
    for n in range(1, n_max + 1):
        q = 2 ** n
        got = payoff(mdp, block_strategy(n), mu, max_horizon=2 * q + 8)
        rows.append(_row(f"block-{n}-payoff", 1 - Fraction(1, q), got))
        kept = difference(odds(), arithmetic(q - 1, q))
        rows.append(_row(f"block-{n}-odd-part", 1 - Fraction(2, q), value(odd_part, kept)))
        rows.append(_row(f"block-{n}-dyadic-part", 1, value(DyadicLimit(), multiples(q))))
    return VerificationReport("lower-bounds", tuple(rows))


# ---- no-optimum probes ---------------------------------------------------

_Layout = namedtuple("_Layout", "h p two_a odd odd_res even_res top_res lemma")


@lru_cache(maxsize=256)
def _layout(m: int, p: int) -> _Layout:
    """Masks for a set w with preperiod at most m and period dividing the
    even p, read off a word whose bit t - 1 is stage t, t = 1..h + p.  h is
    the least h >= m + 1 with p | h + 1, so w and w & (w + 1) follow their
    residue rules from stage h + 1 on and bits h.. are the residue word.
    The masks: odd stages; odd, even and 2**a-divisible residues; and the
    lemma's, the even stages, which hold the multiples of every 2**n."""
    h = (m + 1 + p) // p * p - 1
    two_a = p & -p
    return _Layout(h, p, two_a, _tail_bits(0b10, 2, 1, h + p),
                   _tail_bits(0b10, 2, 0, p), _tail_bits(1, 2, 0, p),
                   _tail_bits(1, two_a, 0, p), _tail_bits(1, 2, 1, h + p))


def _reward_word(bottom: int, odd: int) -> int:
    """The reward word of the bottom-action word on the odd stages in
    ``odd``: odd t is rewarded iff b_t = 0, t + 1 iff b_t = 1."""
    return (odd & ~bottom) | (odd & bottom) << 1


def _sweep_groups(max_period: int, max_preperiod: int):
    """(L, parts, batches) per preperiod length L, for the bottom-action
    patterns ``streams._canonical`` leaves unchanged (bit i of pre is stage
    i + 1, bit j of cyc stage L + 1 + j; cyc is primitive, pre ends in the
    other bit).  A pattern's reward word is high | part: parts holds those
    of the pre ending in 0, then 1, no bit above L; batches yields per
    cycle length q the layout (h >= L + 2) and the highs, no bit below L,
    of the cycles taking each."""
    tails = {q: [[_tail_bits(sum(b << j for j, b in enumerate(c)), q, 0, 2 * lcm(2, q) + 1)
                  for c in cycles if c[-1] != end] for end in (0, 1)]
             for q, cycles in _primitive_cycles(2, max_period).items()}
    for L in range(max_preperiod + 1):
        odd = _tail_bits(0b10, 2, 1, L)
        parts = [_reward_word(pre, odd) for pre in range(1 << L)]
        half = len(parts) // 2
        yield L, (parts[:half], parts[half:]) if L else (parts, parts), \
            ((lay, [[_reward_word(t << L, lay.odd >> L << L) for t in ts] for ts in tails[q]])
             for q in tails for lay in [_layout(L + 1, lcm(2, q))])


def sweep_payoff_shortfall(max_period: int = 8, max_preperiod: int = 8,
                           stationary_grid=None) -> VerificationReport:
    """Exhaustively check every pure periodic Markov strategy within the
    bounds, plus a grid of randomized stationary strategies: payoffs all
    stay below 1 and the structural facts hold for each.

    The integer tests run once per cycle group of :func:`_sweep_groups`,
    a failure counting once per pattern.  Past the cap BudgetExceeded is
    raised.
    """
    _check_bounds(max_period=max_period, max_preperiod=max_preperiod)
    count = failures = 0
    for L, parts, batches in _sweep_groups(max_period, max_preperiod):
        low = _layout(L + 1, 2).lemma & ((4 << L) - 1)  # any layout's: h >= L + 2
        tables = [[sum(1 for part in half if (r := part | k << L) & r << 1 & low)
                   for k in range(4)] for half in parts]  # failing parts by bits L, L + 1
        for lay, highs in batches:
            h, p, two_a, _, odd_res, even_res, top_res, lemma = lay
            top = lemma >> L + 2 << L + 2  # the lemma above the parts
            for half, fails, group in zip(parts, tables, highs):
                n = len(half)
                count += n * len(group)
                for high in group:
                    res = high >> h
                    odd = (res & odd_res).bit_count()
                    dyadic = two_a * (res & top_res).bit_count()
                    failures += n * ((2 * odd + dyadic >= 2 * p)
                                     + (2 * odd >= p if res & even_res else dyadic > 0))
                    failures += n if high & high << 1 & top else fails[high >> L & 3]
    rows = [_flag("pure-periodic-sweep", not failures,
                  f"{count} strategies, {failures} failures")]
    mdp = even_or_odd_mdp()
    mu = even_or_odd_charge()
    if stationary_grid is None:
        stationary_grid = [Fraction(k, 8) for k in range(9)]
    for q in stationary_grid:
        val = payoff(mdp, top_probability(q), mu)
        rows.append(_flag(f"stationary-{q}", val < 1, f"payoff {val}"))
    return VerificationReport("payoff-shortfall-sweep", tuple(rows))


# ---- no stationary optimum -----------------------------------------------

def verify_no_stationary_optimum() -> VerificationReport:
    mdp = even_or_odd_mdp()
    mu = sparse_block_charge()
    rows = [
        _row("mass-on-4n-3", Fraction(1, 2), value(mu, arithmetic(1, 4))),
        _row("mass-on-4n", Fraction(1, 2), value(mu, arithmetic(4, 4))),
        _row("mass-on-window", 1, value(mu, mu.window)),
        _row("alternating-payoff", 1, payoff(mdp, alternating_strategy(), mu)),
    ]
    for q in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1):
        rows.append(_row(f"stationary-{q}-payoff", Fraction(1, 2),
                         payoff(mdp, top_probability(q), mu)))
    return VerificationReport("no-stationary-optimum", tuple(rows))


# ---- late-switch example -------------------------------------------------

def verify_late_switch(n_max: int) -> VerificationReport:
    """Switching at stage n earns exactly 5/4 - 2**-(n + 2).  Past the cap
    on the strategies' phases BudgetExceeded is raised."""
    _check_bounds(n_max=n_max, switches=True)
    mdp = late_switch_mdp()
    mu = late_switch_charge()
    rows = [_row("stay-forever", 1, payoff(mdp, stay_strategy(), mu))]
    prev = None
    for n in range(1, n_max + 1):
        expected = Fraction(5, 4) - Fraction(1, 2 ** (n + 2))
        got = payoff(mdp, switch_at(n), mu)
        rows.append(_row(f"switch-at-{n}", expected, got))
        if prev is not None:
            gain = got - prev
            rows.append(_row(f"switch-gain-{n - 1}",
                             Fraction(1, 2 ** (n + 2)), gain))
        prev = got
    return VerificationReport("late-switch", tuple(rows))


def verify_all(n_max: int = 12, max_period: int = 8,
               max_preperiod: int = 8) -> list[VerificationReport]:
    _check_bounds(n_max, max_period, max_preperiod, blocks=True)
    return [
        verify_lower_bounds(n_max),
        sweep_payoff_shortfall(max_period, max_preperiod),
        verify_no_stationary_optimum(),
        verify_late_switch(n_max),
    ]
