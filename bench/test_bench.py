"""Tests of the benchmark itself (not part of the Tier-1 suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
import chargemdp  # noqa: E402
from chargemdp import blackwell, charges, mdp, periodic_sets  # noqa: E402


def _run(workload, item, tmp_path):
    return workload.run(workload.prepare(item, tmp_path))


# ---- one seed, one input set -------------------------------------------------


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_regenerates_identical_inputs(name):
    first = wl.generate(name, 7)
    assert first == wl.generate(name, 7)
    assert first != wl.generate(name, 8)


def test_cli_mix_has_fixed_known_failure_share():
    for seed in (1, 2, 3):
        items = wl.generate("cli-queries", seed)
        assert sum(item.known_failure is not None for item in items) == 4
        assert len(items) == 202


# ---- every oracle rejects a wrong answer -------------------------------------


def test_shortfall_check_rejects_wrong_count_and_payoff(tmp_path):
    item = wl.generate("shortfall-sweep", 1)[0]
    item = replace(item, data=(4, 4, item.data[2]))  # small bounds for a unit test
    report = _run(wl.SHORTFALL, item, tmp_path)
    assert wl.SHORTFALL.check(item, report) == "ok"
    rows = list(report.rows)
    rows[0] = replace(rows[0], got="351 strategies, 0 failures")
    assert wl.SHORTFALL.check(item, replace(report, rows=tuple(rows))) != "ok"
    rows = list(report.rows)
    rows[1] = replace(rows[1], got="payoff 3/5")
    assert wl.SHORTFALL.check(item, replace(report, rows=tuple(rows))) != "ok"


def test_blackwell_check_rejects_wrong_values(tmp_path):
    item = wl.generate("blackwell-random", 3)[0]
    pi, v, gain = _run(wl.BLACKWELL, item, tmp_path)
    assert wl.BLACKWELL.check(item, (pi, v, gain)) == "ok"
    nudge = blackwell.RationalFunction.const(Fraction(1, 1000))
    assert wl.BLACKWELL.check(item, (pi, {s: f + nudge for s, f in v.items()}, gain)) != "ok"
    assert wl.BLACKWELL.check(item, (pi, v, {s: g + Fraction(1, 100)
                                             for s, g in gain.items()})) != "ok"
    first = next(iter(gain))
    assert wl.BLACKWELL.check(item, (pi, v, {**gain, first: gain[first] + 1})) != "ok"


@pytest.mark.parametrize("kind", ["frequency", "geometric", "dyadic", "restrict", "mix"])
def test_search_check_rejects_wrong_best_value(kind, tmp_path):
    item = next(i for i in wl.generate("strategy-search", 4) if i.data[1][0] == kind)
    result = _run(wl.SEARCH, item, tmp_path)
    assert wl.SEARCH.check(item, result) == "ok"
    wrong = charges.CValue.exact(result.best_value.low + Fraction(1, 7))
    assert wl.SEARCH.check(item, replace(result, best_value=wrong)) != "ok"


def _bump_first_line(text: str) -> str:
    first, _, rest = text.partition("\n")
    return f"{next(iter(oracles.parse_value(first))) + Fraction(1, 7)}\n{rest}"


def _bump_search(text: str) -> str:
    head, _, rest = text.partition("\n")
    prefix, _, value = head.partition(" value=")
    return f"{prefix} value={next(iter(oracles.parse_value(value))) + 1}\n{rest}"


def _bump_average(text: str) -> str:
    lines = text.splitlines()
    k = lines.index("average value:") + 1
    state, _, value = lines[k].partition(": ")
    lines[k] = f"{state}: {Fraction(value) + Fraction(1, 100)}"
    return "\n".join(lines) + "\n"


def _bump_discounted(text: str) -> str:
    lines = text.splitlines()
    k = lines.index("discounted value:") + 1
    lines[k] = lines[k].replace("(", "(1/1000 + ", 1)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind, bump", [
    ("density", _bump_first_line),
    ("charge-eval", _bump_first_line),
    ("integrate", _bump_first_line),
    ("mdp-eval", _bump_first_line),
    ("search", _bump_search),
    ("blackwell", _bump_average),
    ("blackwell", _bump_discounted),
])
def test_cli_check_rejects_wrong_output(kind, bump, tmp_path):
    items = [i for i in wl.generate("cli-queries", 5) if i.kind == kind]
    for item in items[:4]:
        out = _run(wl.CLI, item, tmp_path)
        assert wl.CLI.check(item, out) == "ok", item
        assert wl.CLI.check(item, replace(out, stdout=bump(out.stdout))) != "ok", item
    assert wl.CLI.check(items[0], replace(out, code=1)) != "ok"


def test_known_failures_fail_as_recorded(tmp_path):
    items = [i for i in wl.generate("cli-queries", 6) if i.known_failure]
    for item in items:
        with pytest.raises(Exception) as info:
            _run(wl.CLI, item, tmp_path)
        assert wl.matches_known(item, info.value)
        assert not wl.matches_known(item, RuntimeError("something else"))
        assert wl.CLI.check(item, wl.CliResult(2, "", "parse error")) not in ("ok", "known")
        assert wl.CLI.check(item, wl.CliResult(0, "7/3\n", "")) != "ok"


def test_stochastic_item_accepts_the_exact_average(tmp_path):
    item = next(i for i in wl.generate("cli-queries", 6) if i.kind == "mdp-eval-stochastic")
    pi = mdp.stationary({"s1": "a1", "s2": "a1"})
    avg = blackwell.average_value(item.data[2], pi)["s1"]
    assert wl.CLI.check(item, wl.CliResult(0, f"{avg}\n", "")) == "ok"


def test_oracle_dyadic_and_geometric_agree_with_known_values():
    f = oracles.indicator(("multiples", 8))
    assert oracles.charge_values(("dyadic",), f) == {Fraction(1)}
    assert oracles.charge_values(("geometric", Fraction(1, 2)), ((), (Fraction(1), Fraction(0)))) \
        == {Fraction(2, 3)}
    half_odds = ("mix", ((Fraction(1, 2), ("restrict", ("frequency",), ("odds",))),
                         (Fraction(1, 2), ("dyadic",))))
    assert oracles.charge_values(half_odds, oracles.indicator(("nat",))) == {Fraction(1)}
    assert oracles.density(("or", ("odds",), ("multiples", 4))) == Fraction(3, 4)


# ---- tracing -----------------------------------------------------------------


def _traced(name: str, count: int, tmp_path):
    workload = wl.WORKLOADS[name]
    prepared = [(item, workload.prepare(item, tmp_path))
                for item in wl.generate(name, 2)[:count]]
    tracer = tracing.Tracer()
    tracer.install(chargemdp)
    try:
        outs = [tracer.root(workload.run, arg) for _, arg in prepared]
    finally:
        tracer.uninstall()
    return tracer, outs


@pytest.mark.parametrize("name", ["cli-queries", "strategy-search"])
def test_self_times_sum_to_traced_wall(name, tmp_path):
    tracer, outs = _traced(name, 30, tmp_path)
    own, calls, wall = tracer.self_times()
    assert math.isclose(sum(own), wall, rel_tol=1e-9)
    assert math.isclose(wall, sum(dt for _, dt, _ in outs), rel_tol=1e-9)
    assert calls[-1] == 30 and sum(calls) == len(tracer.span_name)
    for i in range(len(tracer.span_name)):
        p = tracer.parent[i]
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]


def test_tracer_sees_cross_module_calls_only_and_restores(tmp_path):
    original = periodic_sets.contract
    tracer, _ = _traced("strategy-search", 10, tmp_path)
    names = {tracer.names[n] for n in tracer.span_name}
    assert "mdp.best_periodic" in names and "streams.stream" in names
    assert "mdp.expected_reward_stream" not in names  # called inside mdp only
    assert charges.contract is original and periodic_sets.contract is original
    metrics = tracer.layer_metrics(1)
    assert metrics["mdp.strategies_enumerated"][0] > 0
    assert 0 < metrics["mdp.stream_cache_hit_ratio"][0] < 1


def test_tracer_counts_dyadic_steps_through_the_charges_binding(tmp_path):
    tracer = tracing.Tracer()
    tracer.install(chargemdp)
    try:
        tracer.root(lambda s: charges.value(charges.DyadicLimit(), s),
                    periodic_sets.arithmetic(3, 11))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    assert metrics["charges.dyadic_steps_mean"][0] >= 10  # halving cycles the residue 3 mod 11
    assert metrics["charges.dyadic_cycle_len_max"][0] == 10


# ---- the runner ----------------------------------------------------------------


def test_item_times_are_scaled_to_full_speed():
    import run
    slow, fast = run.Rounds(1), run.Rounds(1)
    for k in range(5):
        slow.speed.at.append(k)
        slow.speed.took.append(2 * run.REFERENCE_S)
        slow.times[0].append((0.2 + 0.01 * k, k, k + 0.2))
        fast.speed.at.append(k)
        fast.speed.took.append(run.REFERENCE_S)
        fast.times[0].append((0.1 + 0.005 * k, k, k + 0.1))
    assert slow.cost == pytest.approx([0.11]) and fast.cost == pytest.approx([0.11])
    assert slow.wall == pytest.approx(0.11)


def test_speed_is_sampled_inside_a_long_call():
    import run
    speed = run.Speedometer()
    with speed:
        spent, t0 = speed.spent, time.perf_counter()
        sum(i * i for i in range(2 * 10**6))
        t1 = time.perf_counter()
    inside = [t for t in speed.at if t0 < t < t1]
    assert len(inside) >= 3
    assert 0 < speed.spent - spent < 0.5 * (t1 - t0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_runner_prints_one_json_line(tmp_path):
    root = tmp_path / "checkout"
    shutil.copytree(HERE.parent / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-queries",
                           "--seed", "3", "--seconds", "0.1", "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "items_per_s", "item_p50_ms", "item_p90_ms",
                                      "setup_s", "peak_rss_mb"}
    assert not (root / ".bench_build").exists() or not any((root / ".bench_build").iterdir())


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-queries",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
