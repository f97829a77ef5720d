"""The benchmark's four workloads: seeded inputs, the timed call, the check.

Seed-to-input mapping: every workload draws all of its inputs from
``random.Random(f"{workload}/{seed}")`` in item order, so one seed gives
the same inputs on every machine and Python version that keeps
``random``'s string seeding (3.2 and later).  A claim made on some seeds
can be re-checked on a seed not used while writing it.

Each item is plain data (an ``Item``), turned into call arguments by
``prepare`` during set-up, run by ``run`` inside the timed span, and
judged by ``check`` afterwards.  ``check`` returns ``"ok"`` for a
verified answer, ``"known"`` for one of the named known failures
failing as recorded, and any other string to say what went wrong.
"""

from __future__ import annotations

import io
import itertools
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracles
from chargemdp import blackwell, cli, counterexamples, mdp, parsing

# Inputs left out because they never finish or run out of memory at the
# seed commit; each goes back in as a fast-failing item once the resource
# budgets of ROADMAP item 5 exist.
EXCLUDED = (
    ("density", "multiples(1000003) | multiples(999983)",
     "the lcm period is about 10**12 bits; the process is killed for "
     "running out of memory while tiling it"),
    ("charge-eval", "dyadiclimit multiples(1048576) | ap(3,1000)",
     "the dyadic contract chain ran past 60 s without reaching its cycle"),
    ("charge-eval", "geometric(9/10) on sets of period >= 25600",
     "6.9 s at period 25600 and over 10 s at 128000, growing with the period"),
)

# Pattern counts of sweep_payoff_shortfall(P, L) at P == L.
SHORTFALL_PATTERNS = {4: 352, 5: 1664, 6: 6784, 7: 29696, 8: 120832}
SHORTFALL_BOUND = 6

# (states, actions) of the random MDPs, 100 per batch.  Weighted towards
# the small sizes so that a batch takes well under ten seconds, with the
# two large classes big enough that the median and the 90th percentile
# fall inside a class rather than between two, which steadies both
# across seeds.
BLACKWELL_SIZES = ((3, 2),) * 50 + ((3, 3),) * 40 + ((4, 2),) * 7 \
    + ((4, 3),) * 1 + ((5, 2),) * 1 + ((5, 3),) * 1

# (states, max_period, max_preperiod) of the strategy searches, cycled.
SEARCH_SIZES = ((2, 3, 0), (2, 2, 1), (2, 2, 0), (3, 2, 0), (2, 3, 1))
SEARCH_ITEMS = 100

CLI_HORIZON = 64
BETAS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4), Fraction(1, 5))
NARROW = (2, 3, 4, 5, 6, 8, 9, 10, 12, 16)
# Leaf moduli whose lcm lies between about 1700 and 2300.
WIDE = ((16, 27, 5), (8, 9, 25), (32, 7, 9), (11, 13, 16), (7, 11, 25), (64, 27, 3))


@dataclass(frozen=True)
class Item:
    kind: str
    data: tuple
    weight: int = 1  # items this call completes, for items_per_s
    known_failure: tuple[str, str] | None = None  # (exception type, message part)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[random.Random], list[Item]]
    prepare: Callable[[Item, Path], Any]
    run: Callable[[Any], Any]
    check: Callable[[Item, Any], str]
    # Nominal seconds of one round over the batch, checks included, at the
    # seed commit on the baseline machine; a run of S seconds makes
    # round(S / round_s) rounds, the same number for every version of the
    # library.
    round_s: float


def matches_known(item: Item, exc: BaseException) -> bool:
    if item.known_failure is None:
        return False
    kind, part = item.known_failure
    return type(exc).__name__ == kind and part in str(exc)


# ---- generators shared by several workloads -------------------------------


def _leaf(rng: random.Random, d: int):
    if rng.random() < 0.3:
        return ("multiples", d)
    return ("ap", rng.randint(1, 2 * d), d)


def gen_set(rng: random.Random, moduli) -> tuple:
    tree = _leaf(rng, moduli[0])
    for d in moduli[1:]:
        leaf = _leaf(rng, d)
        if rng.random() < 0.3:
            leaf = ("not", leaf)
        tree = (rng.choice(("or", "or", "and")), tree, leaf)
    r = rng.random()
    if r < 0.15:
        tree = ("shift", tree, rng.randint(-3, 6))
    elif r < 0.3:
        tree = ("contract", tree, rng.choice((2, 3)))
    return tree


def gen_narrow_set(rng: random.Random) -> tuple:
    return gen_set(rng, [rng.choice(NARROW) for _ in range(rng.randint(1, 3))])


def gen_window(rng: random.Random, positive_density: bool) -> tuple:
    while True:
        w = gen_set(rng, [rng.choice((2, 3, 4, 6)) for _ in range(rng.randint(1, 2))])
        pre, cyc = oracles.indicator(w)
        if any(cyc) or (not positive_density and any(pre)):
            return w


CHARGE_KINDS = ("frequency", "geometric", "dyadic", "restrict", "mix", "pointmass")


def gen_charge(rng: random.Random, kind: str) -> tuple:
    if kind == "frequency":
        return ("frequency",)
    if kind == "geometric":
        return ("geometric", rng.choice(BETAS))
    if kind == "dyadic":
        return ("dyadic",)
    if kind == "pointmass":
        return ("pointmass", rng.randint(1, 12))
    if kind == "restrict":
        base = gen_charge(rng, rng.choice(("frequency", "geometric")))
        return ("restrict", base, gen_window(rng, base[0] == "frequency"))
    w = Fraction(rng.randint(1, 3), 4)
    first = gen_charge(rng, rng.choice(("frequency", "geometric", "restrict")))
    second = gen_charge(rng, rng.choice(("dyadic", "pointmass", "geometric")))
    return ("mix", ((w, first), (1 - w, second)))


def render_set(tree) -> str:
    kind = tree[0]
    if kind in ("odds", "evens", "nat", "empty"):
        return kind
    if kind == "multiples":
        return f"multiples({tree[1]})"
    if kind == "ap":
        return f"ap({tree[1]},{tree[2]})"
    if kind in ("shift", "contract"):
        return f"{kind}({render_set(tree[1])},{tree[2]})"
    if kind == "not":
        return f"!({render_set(tree[1])})"
    op = "&" if kind == "and" else "|"
    return f"({render_set(tree[1])} {op} {render_set(tree[2])})"


def render_charge(mu) -> str:
    kind = mu[0]
    if kind == "frequency":
        return "frequency"
    if kind == "dyadic":
        return "dyadiclimit"
    if kind in ("geometric", "pointmass"):
        return f"{kind}({mu[1]})"
    if kind == "restrict":
        return f"restrict({render_charge(mu[1])}, {render_set(mu[2])})"
    return "mix(" + ", ".join(f"{w}: {render_charge(c)}" for w, c in mu[1]) + ")"


def gen_deterministic(rng: random.Random, n_states: int) -> tuple:
    """``(initial, {state: {action: (reward, next_state)}})``, two actions."""
    states = [f"s{i + 1}" for i in range(n_states)]
    table = {s: {a: (Fraction(rng.randint(-6, 6), rng.choice((1, 2))), rng.choice(states))
                 for a in ("a1", "a2")}
             for s in states}
    return "s1", table


def deterministic_mdp(spec) -> mdp.Mdp:
    initial, table = spec
    return mdp.build_mdp(
        tuple(table), initial, {s: tuple(acts) for s, acts in table.items()},
        {(s, a): r for s, acts in table.items() for a, (r, _) in acts.items()},
        {(s, a): {z: 1} for s, acts in table.items() for a, (_, z) in acts.items()})


def mdp_text(m: mdp.Mdp) -> str:
    lines = ["mdp", f"initial {m.initial}"]
    for i, s in enumerate(m.states):
        lines.append(f"state {s}")
        for j, a in enumerate(m.actions[i]):
            row = m.transitions[i][j]
            if max(row) == 1:
                dest = f"goto {m.states[row.index(1)]}"
            else:
                dest = "dist " + " ".join(f"{z}: {q}" for z, q in zip(m.states, row) if q)
            lines.append(f"  action {a} reward {m.rewards[i][j]} {dest}")
    return "\n".join(lines) + "\n"


def strategy_text(rows, preperiod: int) -> str:
    if len(rows) == 1 and preperiod == 0:
        return "stationary { " + " ".join(f"{s}: {a}" for s, a in rows[0].items()) + " }\n"
    cells = " ".join(f"phase {k} state {s}: {a}"
                     for k, row in enumerate(rows, start=1) for s, a in row.items())
    return f"periodic preperiod={preperiod} period={len(rows) - preperiod} {{ {cells} }}\n"


def _policy_rows(m: mdp.Mdp, pi):
    rows = []
    for i, s in enumerate(m.states):
        j = m.actions[i].index(pi.action(s))
        rows.append((m.rewards[i][j], m.transitions[i][j]))
    return rows


def check_blackwell_answer(m: mdp.Mdp, pi, v_at_beta: dict, gain: dict,
                           beta: Fraction) -> str:
    """v(beta) must equal the numeric solve at beta, and the gain must be
    invariant and match (1-b) v(b) near b = 1."""
    numeric = blackwell.discounted_value_at(m, pi, beta)
    if any(v_at_beta[s] != numeric[s] for s in m.states):
        return f"v({beta}) differs from the numeric solve"
    eps = Fraction(1, 10 ** 6)
    near_one = blackwell.discounted_value_at(m, pi, 1 - eps)
    if not oracles.gain_is_consistent(_policy_rows(m, pi), gain, near_one, eps):
        return "average value is not the limit of (1-b) v(b)"
    return "ok"


def _frequency_matches_average(m: mdp.Mdp, actions: dict, got) -> bool:
    """ROADMAP aim 3: a stationary strategy's Frequency payoff is its
    long-run average from the initial state."""
    avg = blackwell.average_value(m, mdp.stationary(actions))[m.initial]
    return got == frozenset({avg})


# ---- shortfall-sweep ---------------------------------------------------------


def _gen_shortfall(rng: random.Random) -> list[Item]:
    grid = set()
    while len(grid) < 9:
        d = rng.randint(2, 16)
        grid.add(Fraction(rng.randint(0, d), d))
    bound = SHORTFALL_BOUND
    return [Item("sweep", (bound, bound, tuple(sorted(grid))),
                 weight=SHORTFALL_PATTERNS[bound])]


def _check_shortfall(item: Item, report) -> str:
    bound, _, grid = item.data
    if not report.passed:
        return "report failed"
    if report.rows[0].got != f"{SHORTFALL_PATTERNS[bound]} strategies, 0 failures":
        return f"pattern count: {report.rows[0].got}"
    # A stationary strategy with top probability q earns q on the odd
    # stages and 1-q on the even ones: half of each under this charge.
    payoffs = [r.got for r in report.rows[1:]]
    if payoffs != ["payoff 1/2"] * len(grid):
        return f"stationary payoffs {payoffs}"
    return "ok"


SHORTFALL = Workload(
    "shortfall-sweep",
    "criterion 2 at bounds 6/6: one sweep over 6784 canonical patterns; "
    "time goes to the periodic-set kernel and the dyadic contract chain",
    _gen_shortfall,
    lambda item, workdir: item.data,
    lambda args: counterexamples.sweep_payoff_shortfall(*args),
    _check_shortfall,
    3.0,
)


# ---- blackwell-random --------------------------------------------------------


def _gen_blackwell(rng: random.Random) -> list[Item]:
    return [Item("blackwell", (mdp.random_mdp(rng, n, a), Fraction(rng.randint(1, 98), 99)))
            for n, a in BLACKWELL_SIZES]


def _run_blackwell(m: mdp.Mdp):
    pi = blackwell.blackwell_policy(m)
    return pi, blackwell.discounted_value(m, pi), blackwell.average_value(m, pi)


def _check_blackwell(item: Item, out) -> str:
    m, beta = item.data
    pi, v, gain = out
    return check_blackwell_answer(m, pi, {s: v[s].evaluate(beta) for s in m.states},
                                  gain, beta)


BLACKWELL = Workload(
    "blackwell-random",
    "criterion 5: symbolic policy iteration on 100 random MDPs; all time in "
    "Poly/RationalFunction/Fraction, the set kernel is never touched",
    _gen_blackwell,
    lambda item, workdir: item.data[0],
    _run_blackwell,
    _check_blackwell,
    6.0,
)


# ---- strategy-search ---------------------------------------------------------


def _gen_search(rng: random.Random) -> list[Item]:
    items = []
    for i in range(SEARCH_ITEMS):
        n, period, preperiod = SEARCH_SIZES[i % len(SEARCH_SIZES)]
        spec = gen_deterministic(rng, n)
        mu = gen_charge(rng, CHARGE_KINDS[i % 5])
        items.append(Item("search", (spec, mu, period, preperiod)))
    return items


def _prepare_search(item: Item, workdir: Path):
    spec, mu, period, preperiod = item.data
    return deterministic_mdp(spec), parsing.parse_charge(render_charge(mu)), period, preperiod


def _check_search(item: Item, result) -> str:
    spec, mu, _, _ = item.data
    best = result.best
    rows = [{s: d[0][0] for s, d in row} for row in best.rows]
    expected = oracles.charge_values(mu, oracles.deterministic_stream(
        spec, rows, best.preperiod_length))
    if result.best_value.candidates != expected:
        return f"best value {result.best_value}, oracle {sorted(expected)}"
    lows = [v.low for _, v in result.ranking]
    if lows != sorted(lows, reverse=True):
        return "ranking is not sorted by guaranteed value"
    table = spec[1]
    for combo in itertools.product(*table.values()):
        actions = dict(zip(table, combo))
        rival = oracles.charge_values(mu, oracles.deterministic_stream(spec, [actions], 0))
        if min(rival) > result.best_value.low:
            return f"stationary {actions} guarantees {min(rival)} > best"
    if mu[0] == "frequency":
        m = deterministic_mdp(spec)
        for strat, val in result.ranking:
            if strat.preperiod_length == 0 and strat.period == 1:
                acts = {s: d[0][0] for s, d in strat.rows[0]}
                if not _frequency_matches_average(m, acts, val.candidates):
                    return f"stationary {acts}: {val} is not the average value"
    return "ok"


SEARCH = Workload(
    "strategy-search",
    "criterion 4 and chargemdp search: 100 exhaustive searches on small "
    "deterministic MDPs; enumeration, reward streams and the stream cache",
    _gen_search,
    _prepare_search,
    lambda args: mdp.best_periodic(*args),
    _check_search,
    3.0,
)


# ---- cli-queries -------------------------------------------------------------


def _density_item(rng, moduli):
    tree = gen_set(rng, moduli)
    return Item("density", (("density", render_set(tree)), (), tree))


def _charge_item(rng, kind, set_tree):
    mu = gen_charge(rng, kind)
    argv = ("charge-eval", render_charge(mu), render_set(set_tree))
    return Item("charge-eval", (argv, (), (mu, set_tree)))


def _integrate_item(rng):
    def vals(k):
        return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k))
    f = (vals(rng.randint(0, 4)), vals(rng.randint(1, 8)))
    mu = gen_charge(rng, rng.choice(CHARGE_KINDS))
    text = "stream([" + ",".join(map(str, f[0])) + "];[" + ",".join(map(str, f[1])) + "])"
    return Item("integrate", (("integrate", render_charge(mu), text), (), (mu, f)))


def _mdp_eval_item(rng, k):
    spec = gen_deterministic(rng, rng.randint(2, 3))
    preperiod = rng.randint(0, 2)
    period = rng.randint(1, 4)
    rows = [{s: rng.choice(("a1", "a2")) for s in spec[1]} for _ in range(preperiod + period)]
    if rng.random() < 0.3:
        rows, preperiod = rows[-1:], 0
    mu = gen_charge(rng, rng.choice(CHARGE_KINDS))
    files = ((f"e{k}.mdp", mdp_text(deterministic_mdp(spec))),
             (f"e{k}.strategy", strategy_text(rows, preperiod)))
    argv = ("mdp-eval", "--mdp", "{dir}/" + files[0][0], "--strategy", "{dir}/" + files[1][0],
            "--charge", render_charge(mu), "--horizon", str(CLI_HORIZON))
    return Item("mdp-eval", (argv, files, (spec, rows, preperiod, mu)))


def _blackwell_item(rng, k):
    m = mdp.random_mdp(rng, 2, 2)
    files = ((f"b{k}.mdp", mdp_text(m)),)
    beta = Fraction(rng.randint(1, 98), 99)
    return Item("blackwell", (("blackwell", "--mdp", "{dir}/" + files[0][0]), files, (m, beta)))


def _search_item(rng, k):
    spec = gen_deterministic(rng, 2)
    mu = gen_charge(rng, rng.choice(CHARGE_KINDS[:5]))
    files = ((f"s{k}.mdp", mdp_text(deterministic_mdp(spec))),)
    argv = ("search", "--mdp", "{dir}/" + files[0][0], "--charge", render_charge(mu),
            "--max-period", "2", "--max-preperiod", "1", "--top", "3")
    return Item("search", (argv, files, (spec, mu)))


def _stochastic_item(rng, k):
    """A two-state chain x -> p*x + q*(1-x) with p != q never revisits a
    distribution, so evaluation at the CLI horizon raises CycleNotFound."""
    p, q = rng.sample([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                       Fraction(1, 4), Fraction(3, 4)], 2)
    m = mdp.build_mdp(("s1", "s2"), "s1", {"s1": ("a1",), "s2": ("a1",)},
                      {("s1", "a1"): 1, ("s2", "a1"): 0},
                      {("s1", "a1"): {"s1": p, "s2": 1 - p},
                       ("s2", "a1"): {"s1": q, "s2": 1 - q}})
    files = ((f"c{k}.mdp", mdp_text(m)), (f"c{k}.strategy", "stationary { s1: a1 s2: a1 }\n"))
    argv = ("mdp-eval", "--mdp", "{dir}/" + files[0][0], "--strategy", "{dir}/" + files[1][0],
            "--charge", "frequency", "--horizon", str(CLI_HORIZON))
    return Item("mdp-eval-stochastic", (argv, files, m),
                known_failure=("CycleNotFound", "no exact recurrence"))


def _digits_item(rng):
    """The exact answer has about 9500 digits; printing it hits Python's
    int-to-str limit."""
    a = 20000 + rng.randint(0, 99)
    argv = ("charge-eval", "geometric(1/3)", f"ap({a},7)")
    return Item("charge-eval-digits", (argv, (), (("geometric", Fraction(1, 3)), ("ap", a, 7))),
                known_failure=("ValueError", "Exceeds the limit"))


def gen_wide_set(rng: random.Random, moduli) -> tuple:
    """(A | B) & !C with one leaf per modulus: a fixed shape, so that the
    cost of a query varies little with the seed."""
    a, b, c = (_leaf(rng, d) for d in moduli)
    return ("and", ("or", a, b), ("not", c))


def _gen_cli(rng: random.Random) -> list[Item]:
    """202 queries, the kinds in fixed numbers, shuffled, so that the
    slowest tenth is the geometric queries on wide sets, the blackwell
    runs and the upper half of the searches."""
    items = [_density_item(rng, [rng.choice(NARROW) for _ in range(rng.randint(1, 3))])
             for _ in range(40)]
    items += [Item("density", (("density", render_set(t)), (), t))
              for t in (gen_wide_set(rng, WIDE[k % len(WIDE)]) for k in range(10))]
    items += [_charge_item(rng, rng.choice(CHARGE_KINDS), gen_narrow_set(rng)) for _ in range(40)]
    items += [_charge_item(rng, ("frequency", "geometric")[k % 2],
                           gen_wide_set(rng, WIDE[k % len(WIDE)])) for k in range(8)]
    items += [_integrate_item(rng) for _ in range(30)]
    items += [_mdp_eval_item(rng, k) for k in range(30)]
    items += [_blackwell_item(rng, k) for k in range(10)]
    items += [_search_item(rng, k) for k in range(30)]
    items += [_stochastic_item(rng, k) for k in range(2)]
    items += [_digits_item(rng) for _ in range(2)]
    rng.shuffle(items)
    return items


def _prepare_cli(item: Item, workdir: Path) -> list[str]:
    argv, files, _ = item.data
    for name, text in files:
        (workdir / name).write_text(text, encoding="utf-8")
    return [a.replace("{dir}", str(workdir)) for a in argv]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def _run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _parse_blackwell_output(text: str, states):
    """Policy, v(b) text and average value per state from ``blackwell``."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for line in text.splitlines():
        if not line.startswith("  "):
            current = sections.setdefault(line.rstrip(":"), {})
        else:
            s, _, rest = line.strip().partition(": ")
            current[s] = rest
    return (sections["policy"], sections["discounted value"],
            {s: Fraction(sections["average value"][s]) for s in states})


def _parse_search_output(text: str):
    lines = text.splitlines()
    head, _, value = lines[0].partition(" value=")
    preperiod = int(head.split("preperiod=")[1].split()[0])
    rows = []
    for line in lines[1:]:
        if not line.startswith("  phase"):
            break
        cells = line.split(": ", 1)[1].split()
        rows.append(dict(cell.split(":") for cell in cells))
    return preperiod, rows, oracles.parse_value(value)


def _check_cli(item: Item, out: CliResult) -> str:
    code, stdout, stderr = out.code, out.stdout, out.stderr
    if code != 0:
        return f"exit {code}: {stderr.strip()[:200]}"
    kind, info = item.kind, item.data[2]
    if kind == "density":
        return "ok" if Fraction(stdout.strip()) == oracles.density(info) \
            else f"density {stdout.strip()} != {oracles.density(info)}"
    if kind == "blackwell":
        m, beta = info
        policy, values, gain = _parse_blackwell_output(stdout, m.states)
        pi = mdp.stationary(policy)
        v_at = {s: oracles.eval_rational_function(values[s], beta) for s in m.states}
        return check_blackwell_answer(m, pi, v_at, gain, beta)
    if kind == "search":
        spec, mu = info
        preperiod, rows, got = _parse_search_output(stdout)
        expected = oracles.charge_values(mu, oracles.deterministic_stream(spec, rows, preperiod))
        return "ok" if got == expected else f"best value {sorted(got)}, oracle {sorted(expected)}"
    if kind == "mdp-eval-stochastic":
        got = oracles.parse_value(stdout.splitlines()[0])
        return "ok" if _frequency_matches_average(info, {"s1": "a1", "s2": "a1"}, got) \
            else f"payoff {sorted(got)} is not the average value"
    if kind == "charge-eval-digits":
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            got = oracles.parse_value(stdout.splitlines()[0])
        finally:
            sys.set_int_max_str_digits(limit)
        mu, set_tree = info
        return "ok" if got == oracles.charge_values(mu, oracles.indicator(set_tree)) \
            else "wrong value"
    got = oracles.parse_value(stdout.splitlines()[0])
    if kind == "charge-eval":
        mu, set_tree = info
        expected = oracles.charge_values(mu, oracles.indicator(set_tree))
    elif kind == "integrate":
        mu, f = info
        expected = oracles.charge_values(mu, f)
    else:  # mdp-eval
        spec, rows, preperiod, mu = info
        expected = oracles.charge_values(mu, oracles.deterministic_stream(spec, rows, preperiod))
        if mu[0] == "frequency" and preperiod == 0 and len(rows) == 1 \
                and not _frequency_matches_average(deterministic_mdp(spec), rows[0], got):
            return "frequency payoff is not the average value"
    return "ok" if got == expected else f"{kind} {sorted(got)} != {sorted(expected)}"


CLI = Workload(
    "cli-queries",
    "README commands in process: the only workload through parsing and cli; "
    "a few wide sets, single payoffs without the search's stream cache",
    _gen_cli,
    _prepare_cli,
    _run_cli,
    _check_cli,
    1.5,
)

WORKLOADS = {w.name: w for w in (SHORTFALL, BLACKWELL, SEARCH, CLI)}


def generate(name: str, seed: int) -> list[Item]:
    return WORKLOADS[name].generate(random.Random(f"{name}/{seed}"))
