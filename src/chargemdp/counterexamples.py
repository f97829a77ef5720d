"""The library's canonical worked examples, rebuilt and machine-checked.

Three constructions are covered:

* the even-or-odd MDP with the half-frequency-on-odds plus dyadic-limit
  charge, whose value 1 is approached but never attained,
* the same MDP under a charge concentrated on stages 1, 4, 5, 8, ...,
  where an alternating strategy is optimal but no stationary one is,
* a two-state quit-or-stay MDP under half discounted, half average
  aggregation, where switching later is always strictly better.

Each verifier returns a report with exact expected and computed values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .charges import (CValue, DyadicLimit, Frequency, Geometric, Mix, Restrict,
                      dyadic_value_sequence, value)
from .mdp import (Mdp, PeriodicMarkovStrategy, StationaryStrategy, build_mdp,
                  payoff, periodic, stationary)
from .periodic_sets import (EventuallyPeriodicSet, arithmetic, density,
                            difference, intersect, is_subset, make, multiples,
                            odds, shift, union)
from .streams import _canonical, superlevel_set


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


def top_probability(q) -> StationaryStrategy:
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


def stay_strategy() -> StationaryStrategy:
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
    measure computations checked on the way."""
    mdp = even_or_odd_mdp()
    mu = even_or_odd_charge()
    odd_part = Restrict(Frequency(), odds())
    rows = []
    for n in range(1, n_max + 1):
        q = 2 ** n
        got = payoff(mdp, block_strategy(n), mu, max_horizon=2 * q + 8)
        rows.append(_row(f"block-{n}-payoff", CValue.exact(1 - Fraction(1, q)), got))
        kept = difference(odds(), arithmetic(q - 1, q))
        rows.append(_row(f"block-{n}-odd-part",
                         CValue.exact(1 - Fraction(2, q)), value(odd_part, kept)))
        rows.append(_row(f"block-{n}-dyadic-part",
                         CValue.exact(1), value(DyadicLimit(), multiples(q))))
    return VerificationReport("lower-bounds", tuple(rows))


# ---- no-optimum probes ---------------------------------------------------

# The sets of multiples of 2, 4, ..., 256 that the shift lemma is checked on.
_DYADIC_MULTIPLES = tuple(multiples(2 ** n) for n in range(1, 9))


def _shortfall_rows(prefix: str, w: EventuallyPeriodicSet,
                    payoff_value: CValue) -> list[CheckRow]:
    """The structural facts forcing the payoff below 1, for the set w of
    stages with expected reward above one half."""
    rows = [_flag(f"{prefix}-payoff-below-1", payoff_value.high < 1,
                  f"payoff {payoff_value}")]
    outside = difference(odds(), w)
    ok = all(is_subset(shift(intersect(w, m), -1), outside) for m in _DYADIC_MULTIPLES)
    rows.append(_flag(f"{prefix}-shift-lemma", ok))
    seq, cyc = dyadic_value_sequence(w)
    if any(v > 0 for v in seq):
        odd_mass = 2 * density(intersect(w, odds()))
        rows.append(_flag(f"{prefix}-dichotomy", odd_mass < 1,
                          f"odd-part mass {odd_mass}"))
    else:
        rows.append(_flag(f"{prefix}-dichotomy", set(cyc) == {0},
                          f"dyadic candidates {sorted(set(cyc))}"))
    return rows


def probe_payoff_shortfall(sigma, max_horizon: int = 4096) -> VerificationReport:
    """Evaluate one strategy on the even-or-odd MDP and check that its
    payoff stays below 1 for the structural reasons."""
    from .mdp import expected_reward_stream
    from .charges import integrate
    mdp = even_or_odd_mdp()
    mu = even_or_odd_charge()
    f = expected_reward_stream(mdp, sigma, max_horizon)
    w = superlevel_set(f, Fraction(1, 2))
    val = integrate(mu, f)
    return VerificationReport("shortfall-probe", tuple(_shortfall_rows("probe", w, val)))


def _pattern_reward_set(pre: tuple[int, ...], cyc: tuple[int, ...]) -> EventuallyPeriodicSet:
    """Stages earning reward 1 under the pure strategy whose bottom-action
    indicator per stage is the given eventually periodic pattern."""
    L, q = len(pre), len(cyc)
    head = L + 2
    period = lcm(2, q)

    def bottom(t: int) -> int:
        return pre[t - 1] if t <= L else cyc[(t - L - 1) % q]

    def reward(t: int) -> int:
        return bottom(t - 1) if t % 2 == 0 else 1 - bottom(t)

    bits = [reward(t) for t in range(1, head + 1)]
    residues = {(head + 1 + j) % period
                for j in range(period) if reward(head + 1 + j)}
    return make(bits, period, residues)


def sweep_payoff_shortfall(max_period: int = 8, max_preperiod: int = 8,
                           stationary_grid=None) -> VerificationReport:
    """Exhaustively check every pure periodic Markov strategy within the
    bounds, plus a grid of randomized stationary strategies: payoffs all
    stay below 1 and the structural facts hold for each.

    The pure sweep runs on the bottom-action indicator patterns
    directly; a pattern determines the strategy's reward set exactly
    (see the unit tests for agreement with the strategy-level probe).
    """
    half = Fraction(1, 2)
    count = 0
    failures: list[str] = []
    seen = set()
    for L in range(max_preperiod + 1):
        for q in range(1, max_period + 1):
            for pre_bits in range(1 << L):
                pre = tuple((pre_bits >> i) & 1 for i in range(L))
                for cyc_bits in range(1 << q):
                    cyc = tuple((cyc_bits >> i) & 1 for i in range(q))
                    key = _canonical(pre, cyc)
                    if key in seen:
                        continue
                    seen.add(key)
                    count += 1
                    w = _pattern_reward_set(*key)
                    odd_mass = 2 * density(intersect(w, odds()))
                    seq, cyc_vals = dyadic_value_sequence(w)
                    top = half * odd_mass + half * max(cyc_vals)
                    if not top < 1:
                        failures.append(f"payoff {top} for pattern {key}")
                        continue
                    outside = difference(odds(), w)
                    if not all(is_subset(shift(intersect(w, m), -1), outside)
                               for m in _DYADIC_MULTIPLES):
                        failures.append(f"shift lemma fails for pattern {key}")
                    if any(v > 0 for v in seq):
                        if not odd_mass < 1:
                            failures.append(f"dichotomy fails for pattern {key}")
                    elif set(cyc_vals) != {0}:
                        failures.append(f"dichotomy fails for pattern {key}")
    rows = [_flag("pure-periodic-sweep", not failures,
                  f"{count} strategies, {len(failures)} failures")]
    mdp = even_or_odd_mdp()
    mu = even_or_odd_charge()
    if stationary_grid is None:
        stationary_grid = [Fraction(k, 8) for k in range(9)]
    for q in stationary_grid:
        val = payoff(mdp, top_probability(q), mu)
        rows.append(_flag(f"stationary-{q}", val.high < 1, f"payoff {val}"))
    return VerificationReport("payoff-shortfall-sweep", tuple(rows))


# ---- no stationary optimum -----------------------------------------------

def verify_no_stationary_optimum() -> VerificationReport:
    mdp = even_or_odd_mdp()
    mu = sparse_block_charge()
    rows = [
        _row("mass-on-4n-3", CValue.exact(Fraction(1, 2)),
             value(mu, arithmetic(1, 4))),
        _row("mass-on-4n", CValue.exact(Fraction(1, 2)),
             value(mu, arithmetic(4, 4))),
        _row("mass-on-window", CValue.exact(1), value(mu, mu.window)),
        _row("alternating-payoff", CValue.exact(1),
             payoff(mdp, alternating_strategy(), mu)),
    ]
    for q in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1):
        rows.append(_row(f"stationary-{q}-payoff", CValue.exact(Fraction(1, 2)),
                         payoff(mdp, top_probability(q), mu)))
    return VerificationReport("no-stationary-optimum", tuple(rows))


# ---- late-switch example -------------------------------------------------

def verify_late_switch(n_max: int) -> VerificationReport:
    mdp = late_switch_mdp()
    mu = late_switch_charge()
    rows = [_row("stay-forever", CValue.exact(1), payoff(mdp, stay_strategy(), mu))]
    prev = None
    for n in range(1, n_max + 1):
        expected = Fraction(5, 4) - Fraction(1, 2 ** (n + 2))
        got = payoff(mdp, switch_at(n), mu)
        rows.append(_row(f"switch-at-{n}", CValue.exact(expected), got))
        if prev is not None:
            gain = got.exact_value - prev
            rows.append(_row(f"switch-gain-{n - 1}",
                             Fraction(1, 2 ** (n + 2)), gain))
        prev = got.exact_value
    return VerificationReport("late-switch", tuple(rows))


def verify_all(n_max: int = 12, max_period: int = 8,
               max_preperiod: int = 8) -> list[VerificationReport]:
    return [
        verify_lower_bounds(n_max),
        sweep_payoff_shortfall(max_period, max_preperiod),
        verify_no_stationary_optimum(),
        verify_late_switch(n_max),
    ]
