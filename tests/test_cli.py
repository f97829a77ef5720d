"""Command-line interface: output text and exit codes."""

import os
import subprocess
import sys
import time

import pytest

from chargemdp import mdp as mdp_module
from chargemdp.cli import build_parser, run
from chargemdp.mdp import CycleNotFound

EO_MDP_TEXT = """mdp
initial 1
state 1
  action T reward 1 goto 2
  action B reward 0 goto 3
state 2
  action c reward 0 goto 1
state 3
  action c reward 1 goto 1
"""

LATE_MDP_TEXT = """mdp
initial 1
state 1
  action T reward 1 goto 1
  action B reward 0 goto 2
state 2
  action c reward 3/2 goto 2
"""


HALF_ROW_MDP_TEXT = """mdp
initial a
state a
  action x reward 1 dist b:1/2
state b
  action x reward 0 goto a
"""

TWO_STATE_MDP_TEXT = """mdp
initial a
state a
  action x reward 1 goto b
  action y reward 0 goto a
state b
  action x reward 0 goto a
"""


@pytest.fixture
def eo_mdp_file(tmp_path):
    path = tmp_path / "eo.mdp"
    path.write_text(EO_MDP_TEXT)
    return str(path)


@pytest.fixture
def late_mdp_file(tmp_path):
    path = tmp_path / "late.mdp"
    path.write_text(LATE_MDP_TEXT)
    return str(path)


def test_density(capsys):
    assert run(["density", "odds | multiples(4)"]) == 0
    assert capsys.readouterr().out.strip() == "3/4"


def test_charge_eval(capsys):
    assert run(["charge-eval", "dyadiclimit", "multiples(8)"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run(["charge-eval", "restrict(frequency, odds)", "ap(1,4)"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_integrate(capsys):
    assert run(["integrate", "geometric(1/2)", "stream([];[1,0])"]) == 0
    assert capsys.readouterr().out.strip() == "2/3"


def test_mdp_eval(capsys, tmp_path, eo_mdp_file):
    strat = tmp_path / "alt.strategy"
    strat.write_text("periodic preperiod=0 period=4 { phase 3 state 1: B }")
    code = run(["mdp-eval", "--mdp", eo_mdp_file, "--strategy", str(strat),
                "--charge", "restrict(frequency, ap(1,4) | ap(4,4))"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"


def test_mdp_eval_stationary(capsys, tmp_path, eo_mdp_file):
    strat = tmp_path / "top.strategy"
    strat.write_text("stationary { 1: T }")
    code = run(["mdp-eval", "--mdp", eo_mdp_file, "--strategy", str(strat),
                "--charge", "frequency"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_blackwell(capsys, late_mdp_file):
    assert run(["blackwell", "--mdp", late_mdp_file]) == 0
    out = capsys.readouterr().out
    assert "1: B" in out
    assert "average value:" in out
    assert "1: 3/2" in out


def test_blackwell_validates_its_mdp_once(monkeypatch, capsys, late_mdp_file):
    calls = []
    real = mdp_module.validate
    monkeypatch.setattr(mdp_module, "validate", lambda m: calls.append(m) or real(m))
    assert run(["blackwell", "--mdp", late_mdp_file]) == 0
    assert len(calls) == 1


def test_search(capsys, eo_mdp_file):
    code = run(["search", "--mdp", eo_mdp_file,
                "--charge", "mix(1/2: restrict(frequency, odds), 1/2: dyadiclimit)",
                "--max-period", "4", "--max-preperiod", "0", "--top", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "value=3/4" in out
    assert "period=4" in out


@pytest.mark.parametrize("flag, value", [
    ("--max-period", "0"), ("--max-preperiod", "-1"), ("--top", "-1"),
])
def test_search_rejects_bad_bounds(capsys, eo_mdp_file, flag, value):
    argv = {"--max-period": "2", "--max-preperiod": "1", "--top": "3", flag: value}
    code = run(["search", "--mdp", eo_mdp_file, "--charge", "frequency",
                *(x for item in argv.items() for x in item)])
    assert code == 2
    assert flag in capsys.readouterr().err


def test_python_dash_m_entry_point(eo_mdp_file):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, "-m", "chargemdp", "search", "--mdp", eo_mdp_file,
            "--charge", "frequency", "--max-period", "2", "--max-preperiod", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("best: preperiod=0 period=")
    # argparse rejects an unknown verification target before _cmd_verify runs
    proc = subprocess.run([sys.executable, "-m", "chargemdp", "verify", "nope"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "invalid choice: 'nope'" in proc.stderr


def test_verify_all(capsys):
    code = run(["verify", "all", "--nmax", "2",
                "--max-period", "2", "--max-preperiod", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "== lower-bounds: PASS ==" in out
    assert "CASE block-1-payoff EXPECT 1/2 GOT 1/2 PASS" in out
    assert "== late-switch: PASS ==" in out


@pytest.mark.parametrize("flag, value, least", [
    ("--nmax", "0", 1), ("--max-period", "0", 1), ("--max-preperiod", "-1", 0),
])
def test_verify_rejects_bad_bounds(capsys, flag, value, least):
    # before the fix these printed "0 strategies, 0 failures" PASS, or a
    # traceback from an empty report
    argv = {"--nmax": "2", "--max-period": "2", "--max-preperiod": "0", flag: value}
    assert run(["verify", "all", *(x for item in argv.items() for x in item)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be at least {least}, got {value}\n"


def test_parse_error_exit_code(capsys):
    assert run(["density", "odds |"]) == 2
    assert "parse error" in capsys.readouterr().err
    # '²'.isdigit() holds, but it is not a decimal digit
    assert run(["density", "multiples(²)"]) == 2
    assert capsys.readouterr().err == "parse error: line 1, col 11: expected a number, got '²'\n"


def test_bad_strategy_probabilities_exit_code(capsys, tmp_path):
    mdp = tmp_path / "two.mdp"
    mdp.write_text(TWO_STATE_MDP_TEXT)
    strat = tmp_path / "half.strategy"
    strat.write_text("stationary { a: x:1/2 }")
    assert run(["mdp-eval", "--mdp", str(mdp), "--strategy", str(strat),
                "--charge", "frequency"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 1, col 1: action distribution at state 'a' must sum to 1")
    assert err.count("\n") == 1


@pytest.mark.parametrize("charge", ["restrict(frequency,empty)",
                                    "mix(1/2: frequency, 1/2: restrict(geometric(1/2), empty))"])
def test_null_restriction_window_exit_code(capsys, charge):
    assert run(["charge-eval", charge, "odds"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: restriction window has base measure 0\n"


def test_repeated_runs_in_one_process_agree(capsys, eo_mdp_file):
    argvs = [["charge-eval", "mix(1/2: frequency, 1/2: dyadiclimit)", "multiples(2)"],
             ["search", "--mdp", eo_mdp_file, "--charge", "frequency",
              "--max-period", "2", "--max-preperiod", "0"],
             ["density", "odds |"],
             ["verify", "all", "--nmax", "0"]]
    first = []
    for argv in argvs:
        first.append((run(argv), capsys.readouterr()))
    assert [(run(argv), capsys.readouterr()) for argv in argvs] == first
    assert [code for code, _ in first] == [0, 0, 2, 2]


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_missing_file_exit_code(capsys, tmp_path):
    assert run(["blackwell", "--mdp", str(tmp_path / "nope.mdp")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["mdp", "strategy"])
def test_undecodable_file_exit_code(capsys, tmp_path, eo_mdp_file, bad):
    strat = tmp_path / "top.strategy"
    strat.write_text("stationary { 1: T }")
    path = {"mdp": tmp_path / "eo.mdp", "strategy": strat}[bad]
    path.write_bytes(path.read_bytes() + b"\xe9\n")
    assert run(["mdp-eval", "--mdp", str(eo_mdp_file), "--strategy", str(strat),
                "--charge", "frequency"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xe9")
    assert err.count("\n") == 1


def test_undecodable_mdp_file_in_blackwell_exit_code(capsys, tmp_path):
    path = tmp_path / "latin1.mdp"
    path.write_bytes(b"\xe9")
    assert run(["blackwell", "--mdp", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec")


@pytest.mark.parametrize("command", ["search", "mdp-eval"])
def test_invalid_mdp_exit_code(capsys, tmp_path, command):
    mdp = tmp_path / "half.mdp"
    mdp.write_text(HALF_ROW_MDP_TEXT)
    strat = tmp_path / "x.strategy"
    strat.write_text("stationary { a: x }")
    extra = {"search": ["--max-period", "2", "--max-preperiod", "1"],
             "mdp-eval": ["--strategy", str(strat)]}[command]
    assert run([command, "--mdp", str(mdp), "--charge", "frequency", *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row sums to 1/2" in err
    assert err.count("\n") == 1


def test_search_budget_exit_code(capsys, tmp_path):
    mdp = tmp_path / "two.mdp"
    mdp.write_text(TWO_STATE_MDP_TEXT)
    for bound, seconds in (("12", 5), ("1000000", 1)):
        start = time.perf_counter()
        code = run(["search", "--mdp", str(mdp), "--charge", "frequency",
                    "--max-period", bound, "--max-preperiod", bound])
        assert time.perf_counter() - start < seconds
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceeds cap" in err and len(err) < 100
        assert err.count("\n") == 1


def test_cycle_not_found_is_not_caught(tmp_path):
    # an evaluation that runs out of horizon is not a bad input: it stays
    # an exception out of run
    mdp = tmp_path / "chain.mdp"
    mdp.write_text("mdp\ninitial a\nstate a\n  action x reward 1 dist a:1/2 b:1/2\n"
                   "state b\n  action x reward 0 dist a:1/3 b:2/3\n")
    strat = tmp_path / "x.strategy"
    strat.write_text("stationary { a: x b: x }")
    with pytest.raises(CycleNotFound):
        run(["mdp-eval", "--mdp", str(mdp), "--strategy", str(strat),
             "--charge", "frequency", "--horizon", "64"])


@pytest.mark.parametrize("horizon", ["1", "0", "-5"])
def test_mdp_eval_rejects_horizon_below_two(capsys, tmp_path, eo_mdp_file, horizon):
    # before the range check these printed a CycleNotFound traceback
    # ("within -5 stages")
    strat = tmp_path / "top.strategy"
    strat.write_text("stationary { 1: T }")
    code = run(["mdp-eval", "--mdp", eo_mdp_file, "--strategy", str(strat),
                "--charge", "frequency", "--horizon", horizon])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --horizon must be at least 2, got {horizon}\n"


def test_mdp_eval_self_loop_at_the_least_horizon(capsys, tmp_path):
    mdp = tmp_path / "loop.mdp"
    mdp.write_text("mdp\ninitial a\nstate a\n  action x reward 1/3 goto a\n")
    strat = tmp_path / "x.strategy"
    strat.write_text("stationary { a: x }")
    argv = ["mdp-eval", "--mdp", str(mdp), "--strategy", str(strat), "--charge", "frequency"]
    assert run(argv + ["--horizon", "1"]) == 2
    assert capsys.readouterr().err == "error: --horizon must be at least 2, got 1\n"
    assert run(argv + ["--horizon", "2"]) == 0
    assert capsys.readouterr().out == "1/3\n"


# (command, opening, closing, innermost) for each construct that opens a
# nesting level; every expression below evaluates to 1/2 at any depth
NESTED = [("density", "(", ")", "odds"),
          ("density", "!", "", "odds"),
          ("density", "shift(", ",2)", "odds"),
          ("density", "contract(", ",1)", "odds"),
          ("charge-eval", "mix(1:", ")", "frequency"),
          ("charge-eval", "restrict(", ", nat)", "frequency")]


def nested_argv(command, opening, closing, inner, depth):
    text = opening * depth + inner + closing * depth
    return [command, text] + (["odds"] if command == "charge-eval" else [])


@pytest.mark.parametrize("command, opening, closing, inner", NESTED)
def test_nesting_at_the_bound_evaluates(capsys, command, opening, closing, inner):
    assert run(nested_argv(command, opening, closing, inner, 100)) == 0
    assert capsys.readouterr() == ("1/2\n", "")


@pytest.mark.parametrize("depth", [101, 5000])
@pytest.mark.parametrize("command, opening, closing, inner", NESTED)
def test_nesting_past_the_bound_exits_2(capsys, command, opening, closing, inner, depth):
    # deep input used to end in a RecursionError traceback with exit 1
    assert run(nested_argv(command, opening, closing, inner, depth)) == 2
    captured = capsys.readouterr()
    col = 100 * len(opening) + 1  # the token that opens level 101
    assert captured == ("", f"parse error: line 1, col {col}: nesting deeper than 100 levels\n")

