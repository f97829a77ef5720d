"""Exact CLI and library outputs, pinned: one row per scenario.

A row's ``run`` is either an argv for ``cli.run``, or a function that
returns the pinned text.  A ``process`` row runs its argv as
``python -m chargemdp`` in a subprocess instead, for what only a process
shows: ``sys.argv``, argparse's exits and interpreter start.  An argv word
``@name`` is the path of the input file ``name`` that :func:`write_inputs`
writes.  ``tests/test_pins.py`` runs the table.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from chargemdp import cli
from chargemdp.blackwell import (average_value, blackwell_policy, discounted_value,
                                 discounted_value_at)
from chargemdp.charges import Frequency, Geometric, integrate, value
from chargemdp.counterexamples import sweep_payoff_shortfall
from chargemdp.mdp import best_periodic, build_mdp, payoff, random_mdp, stationary
from chargemdp.parsing import parse_charge
from chargemdp.periodic_sets import density, make, multiples, odds, union
from chargemdp.streams import stream
from conftest import ref_discounted_value_at

ROOT = Path(__file__).resolve().parent.parent


class Pin(NamedTuple):
    """One scenario and what it must give.

    ``out`` and ``err`` are the exact stdout and stderr, or a pattern that
    must occur in them; ``out`` is None where ``sha256`` alone pins stdout.
    A function row's text is its stdout.  ``seconds`` bounds the row's wall
    time; a process row is killed at it.  An in-process row's bound is
    checked only once the call returns, so a row that could hang runs as a
    process row: a hang in process would stall the whole run until CI's
    job timeout.
    """
    id: str
    run: tuple[str, ...] | Callable[[], str]
    out: str | re.Pattern | None = ""
    sha256: str | None = None
    err: str | re.Pattern = ""
    code: int = 0
    seconds: float | None = None
    process: bool = False


# ---- inputs ----------------------------------------------------------------

def mdp_text(m) -> str:
    """The .mdp file of ``m``: one ``dist`` line per action."""
    lines = ["mdp", f"initial {m.initial}"]
    for i, s in enumerate(m.states):
        lines.append(f"state {s}")
        for j, a in enumerate(m.actions[i]):
            dist = " ".join(f"{z}:{q}" for z, q in zip(m.states, m.transitions[i][j]) if q)
            lines.append(f"  action {a} reward {m.rewards[i][j]} dist {dist}")
    return "\n".join(lines) + "\n"


def cycle_mdp_text(n: int, header: str = "mdp") -> str:
    """An n-state goto cycle s0 -> s1 -> ... -> s0, reward (i % 7)/2 at s{i}."""
    return f"{header}\ninitial s0\n" + "".join(
        f"state s{i}\n  action x reward {i % 7}/2 goto s{(i + 1) % n}\n" for i in range(n))


SMALL_INPUTS = {
    "one.mdp": "mdp\ninitial a\nstate a\n  action x reward 1/2 goto a\n",
    "two.mdp": ("mdp\ninitial a\nstate a\n  action x reward 1 goto b\n  action y reward 0 goto a\n"
                "state b\n  action x reward 0 goto a\n"),
    "half.mdp": ("mdp\ninitial a\nstate a\n  action x reward 1 dist b:1/2\n"
                 "state b\n  action x reward 0 goto a\n"),
    "split.mdp": ("mdp\ninitial s\nstate s\n  action x reward 0 dist a:1/2 b:1/2\n"
                  "  action y reward 0 dist a:1/3 b:2/3\n"
                  "state a\n  action x reward 1 goto b\n  action y reward 0 goto a\n"
                  "state b\n  action x reward 0 goto a\n  action y reward 1/2 goto b\n"),
    "xy.mdp": "mdp\ninitial a\nstate a\n  action x reward 1 goto a\n  action y reward 0 goto a\n",
    "two.strategy": "stationary { a: x b: x }\n",
    "half.strategy": "stationary { a: x:1/2 }\n",
    "twice.strategy": "stationary {\n  a: x\n  a: y\n}\n",
    "long.strategy": "periodic preperiod=100000 period=1 { }\n",
    "huge.strategy": "periodic preperiod=1000000000000 period=1 { }\n",
    "split.strategy": "stationary { s: x:1/2 y:1/2 a: x b: x }\n",
    "split-periodic.strategy": ("periodic preperiod=0 period=1 { phase 1 state s: x:1/2 y:1/2 "
                                "phase 1 state a: x phase 1 state b: x }\n"),
}


def write_inputs(directory: Path) -> None:
    """Write every input file the table names into ``directory``."""
    inputs = dict(SMALL_INPUTS)
    for n in (6, 12):
        inputs[f"random{n}.mdp"] = mdp_text(random_mdp(random.Random(n), n, 3))
    inputs["cycle.mdp"] = cycle_mdp_text(20000)
    inputs["cycle.strategy"] = ("periodic preperiod=0 period=2 {\n" + "".join(
        f"phase {k} state s{i}: x\n" for k in (1, 2) for i in range(20000)) + "}\n")
    inputs["mdq.mdp"] = cycle_mdp_text(200000, header="mdq")
    inputs["many.mdp"] = "mdp\ninitial a\nstate a\n" + "".join(
        f"  action x{i} reward {i % 7}/2 goto a\n" for i in range(40000))
    inputs["many.strategy"] = ("stationary { a: " + " ".join(
        f"x{i}:1/20000" for i in range(20000)) + " }\n")
    # phase k names s{k-1}: 2001 rows of 2000 states, past the cell cap
    inputs["cells.mdp"] = "mdp\ninitial s0\n" + "".join(
        f"state s{i}\n  action x reward 0 goto s{(i + 1) % 2000}\n  action y reward 1 goto s0\n"
        for i in range(2000))
    inputs["cells.strategy"] = ("periodic preperiod=0 period=2000 {\n" + "".join(
        f"phase {k} state s{k - 1}: y\n" for k in range(1, 2001)) + "}\n")
    for name, text in inputs.items():
        (directory / name).write_text(text, encoding="utf-8")


# ---- library calls ---------------------------------------------------------

def blackwell_solve(n: int) -> str:
    """Per state of a random n-state MDP: its Blackwell-optimal discounted
    value (checked against the numeric one at b = 99/100, and that against
    the dense reference) and average value."""
    m = random_mdp(random.Random(n), n, 3)
    pi = blackwell_policy(m)
    v = discounted_value(m, pi)
    beta = Fraction(99, 100)
    at = discounted_value_at(m, pi, beta)
    assert at == ref_discounted_value_at(m, pi, beta)
    assert all(v[s].evaluate(beta) == at[s] for s in m.states)
    g = average_value(m, pi)
    return "".join(f"{s} {v[s].render()} {g[s]}\n" for s in m.states)


def goto_cycle_payoff() -> str:
    """Frequency payoff on a 3000-state goto cycle, by payoff and by search."""
    n = 3000
    states = [str(i) for i in range(n)]
    m = build_mdp(states, "0", {s: ("x",) for s in states},
                  {(s, "x"): Fraction(i % 7, 2) for i, s in enumerate(states)},
                  {(s, "x"): {states[(i + 1) % n]: 1} for i, s in enumerate(states)})
    v = payoff(m, stationary({s: "x" for s in states}), Frequency())
    assert v == best_periodic(m, Frequency(), 1, 0).best_value
    return f"{v}\n"


MIXED = "mix(1/2: restrict(geometric(1/2), odds), 1/2: dyadiclimit)"


def ranked_search(seed: int, max_period: int, max_preperiod: int):
    """best_periodic under MIXED on a seeded deterministic 3-state, 2-action MDP."""
    rng = random.Random(seed)
    states, acts = ("s1", "s2", "s3"), ("a1", "a2")
    rewards = {(s, a): Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
               for s in states for a in acts}
    goto = {(s, a): {rng.choice(states): 1} for s in states for a in acts}
    m = build_mdp(states, "s1", {s: acts for s in states}, rewards, goto)
    return best_periodic(m, parse_charge(MIXED), max_period, max_preperiod)


def ranking_3_2() -> str:
    r = ranked_search(16, 3, 2)
    assert len(r.ranking) == 36352, len(r.ranking)
    return "".join(f"{s.preperiod_length} {s.period} {s.rows} {v}\n" for s, v in r.ranking)


def ranking_4_2() -> str:
    r = ranked_search(19, 4, 2)
    assert len(r.ranking) == 294400, len(r.ranking)
    assert r.best_value == Fraction(4059, 1360), r.best_value
    names = [" ".join(d[0][0] for row in s.rows for _, d in row) for s, _ in r.ranking]
    return "".join(f"{s.preperiod_length} {s.period} {a} {v}\n"
                   for (s, v), a in zip(r.ranking, names))


def geometric_25600() -> str:
    """Bit lengths of the geometric(9/10) value of a set of period 25600."""
    s = make([], 25600, {r for r in range(25600) if r % 7 == 3 or r % 11 == 0})
    v = value(Geometric(Fraction(9, 10)), s)
    assert 0 < v < 1
    return f"{v.numerator.bit_length()} {v.denominator.bit_length()}\n"


def geometric_79998() -> str:
    """Bit lengths of the geometric(1/1000) value of odds | multiples(79998),
    whose period is 79998."""
    v = value(Geometric(Fraction(1, 1000)), union(odds(), multiples(79998)))
    return f"{v.numerator.bit_length()} {v.denominator.bit_length()}\n"


def integrate_16384_levels() -> str:
    """integrate over 16384 distinct values, 1..16384 on one cycle: the
    dyadic limit alone, and mixed with the frequency restricted to odds."""
    f = stream([], range(1, 16385))
    return " ".join(str(integrate(parse_charge(mu), f)) for mu in (
        "dyadiclimit", "mix(1/2: restrict(frequency, odds), 1/2: dyadiclimit)")) + "\n"


def make_2_20() -> str:
    """A seeded half-dense residue set of period 2**20 and a 3-bit
    preperiod: its shape, density and residue mask mod 2**61 - 1."""
    p, rng = 2 ** 20, random.Random(20)
    s = make([1, 0, 1], p, [r for r in range(p) if rng.getrandbits(1)])
    return f"{s.pre_len} {s.period} {density(s)} {s.res_mask % (2 ** 61 - 1)}\n"


def integrate_1200000_stages() -> str:
    """integrate under the frequency over one cycle of 1200000 stages on 7
    levels, stage i + 1 at level (popcount(i) mod 7) / 7."""
    levels = [Fraction(k, 7) for k in range(7)]
    f = stream([], [levels[i.bit_count() % 7] for i in range(1_200_000)])
    return f"{len(f.cycle)} {integrate(Frequency(), f)}\n"


def charge_queries() -> str:
    """charge-eval and integrate over every charge kind: each call's stdout
    and stderr in one stream, and ``exit N`` after a call that exits N != 0."""
    nested = "geometric(1/3)"
    for i in range(1, 21):
        nested = f"restrict({nested}, !multiples({i % 5 + 2}))"
    charges = ["frequency", "dyadiclimit", "geometric(2/3)", "pointmass(4)",
               "restrict(dyadiclimit, !multiples(3))", "restrict(pointmass(2), odds)", nested,
               "mix(1/4: restrict(geometric(9/10), ap(5,3) | multiples(4)), "
               "1/4: pointmass(3), 1/2: dyadiclimit)"]
    sets = ["odds", "ap(3,11)", "multiples(12) | ap(2,5)", "shift(odds, 3) & !multiples(9)",
            "ap(5,32) | multiples(27) | ap(2,5)"]
    streams = ["stream([1, 1/2, 0]; [0, -3/4, 2, 2, 0, 1/3])", "stream([]; [1, 0])",
               "stream([5, -1]; [0])"]
    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        for mu in charges:
            for argv in ([["charge-eval", mu, s] for s in sets]
                         + [["integrate", mu, f] for f in streams]):
                if code := cli.run(argv):
                    print(f"exit {code}")
    return both.getvalue()


def sweep_14_14() -> str:
    rep = sweep_payoff_shortfall(14, 14, [])
    assert rep.passed
    return rep.rows[0].got


def bench_round(workload: str, timeout: float) -> str:
    """One oracle-checked round of a benchmark workload, run as
    ``python3 bench/run.py --workload W --seed 1 --seconds 0 --trace 0`` from
    the repository root: its verdict from the last JSON line, or the tail
    of stderr if it exits nonzero.  The subprocess is killed at ``timeout``."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                           "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, encoding="utf-8", timeout=timeout)
    if proc.returncode:
        return proc.stderr[-2000:]
    r = json.loads(proc.stdout.splitlines()[-1])
    return f"correct={r['correct']} failed={r['failed']} attempted={r['attempted']}\n"


# ---- the table -------------------------------------------------------------

SEARCH_TWO = ("search", "--mdp", "@two.mdp", "--charge", "frequency",
              "--max-period", "2", "--max-preperiod", "1")
SEARCH_TWO_TOP_3 = """best: preperiod=0 period=1 value=1/2
  phase 1: a:x b:x
ranking:
  value=1/2 preperiod=0 period=1 phases=a:x b:x
  value=1/2 preperiod=0 period=2 phases=a:x b:x | a:y b:x
  value=1/2 preperiod=0 period=2 phases=a:y b:x | a:x b:x
"""
CAP_EXIT = re.compile(r"\Aerror: at least \d+ cycle groups and preperiods exceeds cap 2000000\n\Z")

PINS = [
    *(Pin(f"blackwell-{n}", functools.partial(blackwell_solve, n), out=None, sha256=sha, seconds=20)
      for n, sha in ((24, "8068b84cbdbae3c15569c5737da01dd55d2afa012e79ab2e898f7cccc74cd9d6"),
                     (40, "2c6299eb959aa86ecd6079b6ce189a2e3d8b1bccd06aced6020041d22d9ba6ff"))),
    *(Pin(f"cli-blackwell-{n}", ("blackwell", "--mdp", f"@random{n}.mdp"), out=None, sha256=sha,
          seconds=20)
      for n, sha in ((6, "d27c16af2fb5eb0e1027b832bef617cc2fbfc5f857a8acf7aa0a39f4bf9b64ea"),
                     (12, "8ce56cda7b04689855d0e14f6e95d7974f7d3ca59c384e0defecdd255003b9fb"))),
    # sum(i % 7 for i in range(3000)) / 6000
    Pin("goto-cycle-3000", goto_cycle_payoff, out="1499/1000\n", seconds=20),
    Pin("mdp-eval-20000", ("mdp-eval", "--mdp", "@cycle.mdp", "--strategy", "@cycle.strategy",
                           "--charge", "frequency", "--horizon", "50000"),
        out="59997/40000\n", seconds=20),
    # one state of 40000 actions, and a cell randomized over the first 20000: about 1 s
    # (Python 3.11, 2 cores); scanning a state's action names for each name read took 17 s
    Pin("mdp-eval-40000-actions", ("mdp-eval", "--mdp", "@many.mdp", "--strategy",
                                   "@many.strategy", "--charge", "frequency"),
        out="59997/40000\n", seconds=3, process=True),
    Pin("parse-error-200000", ("mdp-eval", "--mdp", "@mdq.mdp", "--strategy", "@cycle.strategy",
                               "--charge", "frequency"),
        err="parse error: line 1, col 1: expected 'mdp' header\n", code=2, seconds=5),
    *(Pin(f"one-action-{p}-{pre}", ("search", "--mdp", "@one.mdp", "--charge", "frequency",
                                    "--max-period", p, "--max-preperiod", pre),
          out="best: preperiod=0 period=1 value=1/2\n  phase 1: a:x\nranking:\n"
              "  value=1/2 preperiod=0 period=1 phases=a:x\n", seconds=5)
      for p, pre in (("2000000", "0"), ("1", "1999999"))),
    Pin("ranking-3-2", ranking_3_2, out=None,
        sha256="eafe4c80db38c64dd26cf501dc2903469b654198be7378a24f1bbcab896d2b4c", seconds=20),
    Pin("ranking-4-2", ranking_4_2, out=None,
        sha256="29e8f774974683607318a25b812c9b1bee96202aa5d32c69e96e988ef4633ee6", seconds=60),
    Pin("smoke-search", SEARCH_TWO, out=re.compile(r"\Abest: preperiod=0 period=1 value=1/2\n"),
        process=True),
    Pin("smoke-period-0", SEARCH_TWO[:5] + ("--max-period", "0", "--max-preperiod", "1"),
        err="error: --max-period must be at least 1, got 0\n", code=2, process=True),
    Pin("smoke-half-row", ("search", "--mdp", "@half.mdp") + SEARCH_TWO[3:],
        err="error: RowSumError: ('a', 'x'): row sums to 1/2\n", code=2, process=True),
    # the table read and argparse print the same bytes: both rows pin one text
    *(Pin(f"mdp-eval-{route}", argv, out="2/3\n", seconds=10) for route, argv in (
        ("table", ("mdp-eval", "--mdp", "@two.mdp", "--strategy", "@two.strategy",
                   "--charge", "geometric(1/2)", "--horizon", "64")),
        ("argparse", ("mdp-eval", "--mdp=@two.mdp", "--strat", "@two.strategy",
                      "--ch=geometric(1/2)", "--hor", "64")))),
    *(Pin(f"search-{route}", argv, out=SEARCH_TWO_TOP_3, seconds=10) for route, argv in (
        ("table", SEARCH_TWO + ("--top", "3")),
        ("argparse", ("search", "--mdp=@two.mdp", "--ch", "frequency", "--max-period=2",
                      "--max-pre", "1", "--to=3")))),
    Pin("horizon-negative", ("mdp-eval", "--mdp", "@two.mdp", "--strategy", "@two.strategy",
                             "--charge", "frequency", "--horizon", "-5"),
        err="error: --horizon must be at least 2, got -5\n", code=2, seconds=10),
    Pin("argv-none", (), err=re.compile(r"^usage: chargemdp", re.M), code=2, seconds=10,
        process=True),
    Pin("argv-search-help", ("search", "-h"), out=re.compile(r"^usage: chargemdp search", re.M),
        seconds=10, process=True),
    Pin("argv-density", ("density", "odds | multiples(4)"), out="3/4\n", seconds=10,
        process=True),
    Pin("argv-leftover-word", ("density", "odds", "extra"),
        err=re.compile(r"^chargemdp: error: unrecognized arguments: extra$", re.M), code=2,
        seconds=10, process=True),
    Pin("search-mixed", SEARCH_TWO[:4] + (MIXED, "--max-period", "4", "--max-preperiod", "2"),
        out=re.compile(r"^best: preperiod=1 period=4 value=31/32$", re.M)),
    Pin("search-every-branch", SEARCH_TWO[:4] + (
            "mix(1/4: restrict(geometric(2/3), ap(5,3) | multiples(4)), 1/4: pointmass(3), "
            "1/2: restrict(dyadiclimit, !multiples(3)))", "--max-period", "4", "--max-preperiod", "2"),
        out=re.compile(r"^best: preperiod=1 period=4 value=3294325/4207068$", re.M),
        sha256="780b398dcdb6c49a6ae6a021d1589ffd282476cec5812ad988f865ccd81868b4"),
    Pin("search-split", ("search", "--mdp", "@split.mdp", "--charge",
                         "mix(1/2: geometric(2/3), 1/2: dyadiclimit)",
                         "--max-period", "3", "--max-preperiod", "1"),
        out=re.compile(r"^best: preperiod=0 period=2 value=121/180$", re.M),
        sha256="3ce415f6a914cb1292de46f793f01192874f36ae4ac04c9c40a785f57f85cacc"),
    # a randomized strategy, stationary and as a one-phase periodic strategy
    *(Pin(f"payoff-{form}-{charge}", ("mdp-eval", "--mdp", "@split.mdp",
                                      "--strategy", f"@{form}.strategy", "--charge", charge),
          out=f"{want}\n")
      for form in ("split", "split-periodic")
      for charge, want in (("frequency", "1/2"), ("dyadiclimit", "5/12"),
                           ("geometric(2/3)", "29/90"))),
    # contract on wide sets: period 2**16 * 125 (the dyadic walk and one step), preperiod 10**6
    *(Pin(f"wide-contract-{name}", argv, out=f"{want}\n", seconds=5, process=True)
      for name, argv, want in (
          ("dyadiclimit", ("charge-eval", "dyadiclimit", "multiples(65536) | ap(3,1000)"), "1"),
          ("by-2", ("density", "contract(multiples(65536) | ap(3,1000), 2)"), "1/32768"),
          ("by-3", ("density", "contract(!shift(evens,1000000),3)"), "1/2"))),
    # a DyadicLimit inside a Mix is the closed form on the set's masks, no halving walk
    Pin("mix-dyadic-2-20", ("charge-eval", "mix(1/2: frequency, 1/2: dyadiclimit)",
                            "multiples(1048576) | ap(3,1000)"),
        out="131203197/262144000\n", seconds=1, process=True),
    # the output of a window measured on the lcm shape with the period-2160 set
    Pin("restrict-geometric-2160", ("charge-eval", "restrict(geometric(1/3), ap(2,4))",
                                    "(ap(3,16) | ap(5,27)) & !multiples(5)"),
        out=None, sha256="279c4962b8e4d492548dbb886331302e872ad590c6e0a32967e0677c5b3774ce",
        seconds=1, process=True),
    # past the set kernel's mask limit, refused before any mask is built or factored
    *(Pin(f"mask-limit-{name}", ("density", query), err=f"error: {message}\n", code=2, seconds=5,
          process=True)
      for name, query, message in (
          ("prime-period", "multiples(99999999999999999999999)",
           "mask width of 2**76 bits or more exceeds limit 134217728"),
          ("lcm", "multiples(1000003) | multiples(999983)",
           "mask width of 2**39 bits or more exceeds limit 134217728"),
          ("preperiod", "ap(1000000000000,3)",
           "mask width of 2**39 bits or more exceeds limit 134217728"))),
    Pin("geometric-25600", geometric_25600, out="85040 85042\n", seconds=20),
    # about 0.15 s; geometric sums quadratic in the period take about 3 s here
    Pin("geometric-79998", geometric_79998, out="797231 797231\n", seconds=1),
    # 13500000 stages of a 10-bit denominator: refused before any power is formed
    Pin("geometric-sums-limit", ("charge-eval", "geometric(999/1000)", "multiples(13500000)"),
        err="error: geometric sums over 13500000 stages at 10 bits each exceed limit 134217728\n",
        code=2, seconds=1, process=True),
    Pin("restrict-20-deep", ("charge-eval", "restrict(" * 20 + "frequency" + ", nat)" * 20, "odds"),
        out="1/2\n", seconds=10),
    # the dyadic limit sits on the multiples of 16384, valued 16384; the odd stages average 8192
    Pin("integrate-16384-levels", integrate_16384_levels, out="16384 12288\n", seconds=1),
    # masks built in one pass per level: about 0.6 s (Python 3.11, 2 cores); or-ing one bit per
    # stage into growing masks took 7 s
    Pin("integrate-1200000-stages", integrate_1200000_stages, out="1200000 3568721/8400000\n",
        seconds=1.5),
    # a mask built in one pass: about 0.15 s; or-ing one bit per residue into a growing mask
    # took 2.5 s
    Pin("make-2-20", make_2_20, out="2 1048576 130959/262144 367689694110292546\n", seconds=1),
    # 64 calls under one bound
    Pin("charge-queries", charge_queries, out=None,
        sha256="f259b658e74a7759b62ff48d107a8203e7c6fc0d5807d1b2ed04b77dfc5b7d16", seconds=10),
    Pin("bad-probabilities", ("mdp-eval", "--mdp", "@two.mdp", "--strategy", "@half.strategy",
                              "--charge", "frequency"),
        err=re.compile(r"\Aparse error: .*action distribution at state 'a' must sum to 1.*\n\Z"),
        code=2),
    Pin("state-given-twice", ("mdp-eval", "--mdp", "@xy.mdp", "--strategy", "@twice.strategy",
                              "--charge", "frequency"),
        err="parse error: line 3, col 3: state 'a' given twice in phase 1\n", code=2, seconds=10),
    # 100001 default phases canonicalize to preperiod 0: two.strategy's payoff, as in mdp-eval-table
    Pin("strategy-100000-phases", ("mdp-eval", "--mdp", "@two.mdp", "--strategy", "@long.strategy",
                                   "--charge", "geometric(1/2)", "--horizon", "64"),
        out="2/3\n", seconds=0.5),
    Pin("strategy-phases-cap", ("mdp-eval", "--mdp", "@two.mdp", "--strategy", "@huge.strategy",
                                "--charge", "frequency"),
        err="error: 1000000000001 strategy phases exceeds cap 2000000\n", code=2, seconds=1),
    # (2000 named phases + 1) * 2000 states: building every row took 16 s at a 1.4 GB peak
    # (Python 3.11, 2 cores), over the 1 GiB cap; refused before any row is built
    Pin("strategy-2000-cells", ("mdp-eval", "--mdp", "@cells.mdp", "--strategy", "@cells.strategy",
                                "--charge", "frequency"),
        err="error: 4002000 strategy cells exceeds cap 2000000\n", code=2, seconds=1,
        process=True),
    Pin("verify-all", ("verify", "all"), out=re.compile("120832 strategies, 0 failures"),
        sha256="2c976aaa0e046530589809ead72602e7946e266507e716ae430485f2b8e82081"),
    Pin("verify-all-period-0", ("verify", "all", "--max-period", "0"),
        err="error: --max-period must be at least 1, got 0\n", code=2),
    Pin("sweep-14-14", sweep_14_14, out="532086784 strategies, 0 failures", seconds=20),
    # every workload's items checked against bench/oracles.py, 100 searches included
    *(Pin(f"bench-round-{w}", functools.partial(bench_round, w, 30),
          out=f"correct=True failed=0 attempted={n}\n", seconds=30)
      for w, n in (("shortfall-sweep", 1), ("blackwell-random", 100), ("strategy-search", 100),
                   ("cli-queries", 202))),
    *(Pin(f"verify-all-cap{flag[1:]}", ("verify", "all", flag, bound), err=CAP_EXIT, code=2,
          seconds=10)
      for flag, bound in (("--max-period", "30"), ("--max-preperiod", "40"))),
]
