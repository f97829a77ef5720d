"""Command-line interface: output text and exit codes."""

import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargemdp import cli
from chargemdp import mdp as mdp_module
from chargemdp.cli import _parse, build_parser, run
from chargemdp.mdp import DEFAULT_HORIZON, CycleNotFound

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


@pytest.mark.parametrize("flag, value", [("--max-period", "30"), ("--max-preperiod", "40")])
def test_verify_past_the_sweep_cap_exits_2(capsys, flag, value):
    # these ran out of memory in _primitive_cycles, or ran unbounded
    # building 2**41 preperiod words; now nothing is printed or built
    assert run(["verify", "all", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: at least \d+ cycle groups and preperiods exceeds cap 2000000\n",
                        captured.err), captured.err


def test_verify_past_the_phase_cap_exits_2(capsys):
    # --nmax 30 asked for block strategies of up to 2**30 phases
    start = time.perf_counter()
    assert run(["verify", "all", "--nmax", "30"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: at least 4194302 block-strategy phases and \d+ cycle groups "
                        r"and preperiods exceeds cap 2000000\n", captured.err), captured.err


def test_parse_error_exit_code(capsys):
    assert run(["density", "odds |"]) == 2
    assert "parse error" in capsys.readouterr().err
    # '²'.isdigit() holds, but it is not a decimal digit
    assert run(["density", "multiples(²)"]) == 2
    assert capsys.readouterr().err == "parse error: line 1, col 11: expected a number, got '²'\n"


def test_repeated_strategy_state_exit_code(capsys, tmp_path, eo_mdp_file):
    strat = tmp_path / "twice.strategy"
    strat.write_text("stationary {\n  1: T\n  1: B\n}\n")
    assert run(["mdp-eval", "--mdp", eo_mdp_file, "--strategy", str(strat),
                "--charge", "frequency"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: line 3, col 3: state '1' given twice in phase 1\n"


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


COMMAND_ARGVS = [
    ["density", "odds | multiples(4)"],
    ["density"],
    ["density", "odds", "extra"],
    ["density", "--", "-odds"],
    ["density", "odds", "--", "extra"],
    ["density", "-h"],
    ["density", "odds", "--he"],
    ["density", "--bogus", "odds"],
    ["charge-eval", "dyadiclimit", "multiples(8)"],
    ["charge-eval", "dyadiclimit"],
    ["charge-eval", "a", "b", "c", "d"],
    ["integrate", "geometric(1/2)", "stream([];[1,0])"],
    ["integrate", "--help"],
    ["mdp-eval", "--mdp", "m", "--strategy", "s", "--charge", "frequency"],
    ["mdp-eval", "--mdp=m", "--strategy=s", "--charge=frequency", "--horizon=64"],
    ["mdp-eval", "--md", "m", "--str", "s", "--ch", "frequency", "--hor", "8"],
    ["mdp-eval", "--mdp", "m", "--strategy", "s"],
    ["mdp-eval", "--mdp", "m", "--strategy", "s", "--charge", "f", "--horizon", "x"],
    ["mdp-eval", "--mdp", "m", "--strategy", "s", "--charge", "f", "--bogus"],
    ["mdp-eval", "--mdp", "m", "--strategy", "s", "--charge", "f", "extra"],
    ["blackwell", "--mdp", "m"],
    ["blackwell", "--mdp"],
    ["blackwell"],
    ["blackwell", "--mdp", "a", "--mdp", "b"],
    ["search", "--mdp", "m", "--charge", "f", "--max-period", "2", "--max-preperiod", "1",
     "--top", "3"],
    ["search", "--mdp", "m", "--charge", "f", "--max-p", "2", "--max-preperiod", "1"],
    ["search", "--mdp", "m", "--charge", "f", "--max-period", "-1", "--max-preperiod=0"],
    ["search", "--charge", "f", "--max-period", "2", "--max-preperiod", "1"],
    ["verify", "all"],
    ["verify", "all", "--nmax", "2", "--max-period", "2", "--max-preperiod", "0"],
    ["verify", "nope"],
    ["verify"],
    ["verify", "all", "--nmax"],
    ["verify", "--", "all"],
]

# no command as the first word: the full parser prints help or a usage error
OTHER_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["--he", "density", "odds"],
    ["-x", "density", "odds"],
    ["nope"],
    ["dens", "odds"],
    ["DENSITY", "odds"],
    [""],
    ["-"],
]

# argparse's handling of a leading "--" differs across Python versions (3.11
# reads it as the command name and exits), so it is compared but need not exit
LEADING_DASHES = [["--", "density", "odds"]]


def parse_outcome(parse, argv, capsys):
    """The Namespace ``parse(argv)`` returns, or its exit code and output."""
    try:
        return parse(argv)
    except SystemExit as exc:
        return exc.code, capsys.readouterr()


@pytest.mark.parametrize("argv", COMMAND_ARGVS + OTHER_ARGVS + LEADING_DASHES, ids=str)
def test_run_parses_as_the_full_parser(capsys, argv):
    got = parse_outcome(_parse, argv, capsys)
    assert got == parse_outcome(build_parser().parse_args, argv, capsys)
    if argv in OTHER_ARGVS:
        assert isinstance(got, tuple)  # exited inside argparse


def reference_parser():
    """The hand-written parser the command table replaced: the full parser
    and its command parsers by name."""
    parser = argparse.ArgumentParser(
        prog="chargemdp",
        description="Exact MDP payoffs under finitely additive aggregation charges.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="exact natural density of a set expression")
    p.add_argument("set")
    p.set_defaults(fn=cli._cmd_density)

    p = sub.add_parser("charge-eval", help="evaluate a charge on a set")
    p.add_argument("charge")
    p.add_argument("set")
    p.set_defaults(fn=cli._cmd_charge_eval)

    p = sub.add_parser("integrate", help="integrate a stream against a charge")
    p.add_argument("charge")
    p.add_argument("stream")
    p.set_defaults(fn=cli._cmd_integrate)

    p = sub.add_parser("mdp-eval", help="payoff of a strategy file on an MDP file")
    p.add_argument("--mdp", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--charge", required=True)
    p.add_argument("--horizon", type=int, default=4096)
    p.set_defaults(fn=cli._cmd_mdp_eval)

    p = sub.add_parser("blackwell", help="Blackwell-optimal pure stationary policy")
    p.add_argument("--mdp", required=True)
    p.set_defaults(fn=cli._cmd_blackwell)

    p = sub.add_parser("search", help="exhaustive pure periodic strategy search")
    p.add_argument("--mdp", required=True)
    p.add_argument("--charge", required=True)
    p.add_argument("--max-period", type=int, required=True)
    p.add_argument("--max-preperiod", type=int, required=True)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(fn=cli._cmd_search)

    p = sub.add_parser("verify", help="run the bundled verification suite")
    p.add_argument("what", choices=["all"])
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--max-period", type=int, default=8)
    p.add_argument("--max-preperiod", type=int, default=8)
    p.set_defaults(fn=cli._cmd_verify)

    return parser, sub.choices


def test_table_parser_prints_the_reference_help():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    reference, reference_commands = reference_parser()
    assert parser.format_help() == reference.format_help()
    assert list(commands) == list(reference_commands)
    for name, command in commands.items():
        assert command.format_help() == reference_commands[name].format_help()


@pytest.mark.parametrize("argv", COMMAND_ARGVS + OTHER_ARGVS, ids=str)
def test_table_parser_parses_as_the_reference(capsys, argv):
    got = parse_outcome(build_parser().parse_args, argv, capsys)
    assert got == parse_outcome(reference_parser()[0].parse_args, argv, capsys)


def test_mdp_eval_horizon_defaults_to_the_library_default():
    argv = ["mdp-eval", "--mdp", "m", "--strategy", "s", "--charge", "frequency"]
    assert _parse(argv).horizon == build_parser().parse_args(argv).horizon == DEFAULT_HORIZON


SEARCH = ["search", "--mdp", "m", "--charge", "f", "--max-period", "2", "--max-preperiod", "1"]
MDP_EVAL = ["mdp-eval", "--mdp", "m", "--strategy", "s", "--charge", "frequency"]

# one well-formed call per command, read without argparse
WELL_FORMED = [
    ["density", "odds | multiples(4)"],
    ["charge-eval", "dyadiclimit", "multiples(8)"],
    ["integrate", "geometric(1/2)", "stream([];[1,0])"],
    MDP_EVAL,
    ["mdp-eval", "--horizon", "64", "--charge", "frequency", "--strategy", "s", "--mdp", "m"],
    ["blackwell", "--mdp", "m"],
    SEARCH,
    SEARCH + ["--top", "3"],
    ["verify", "all"],
]

# each form the reader leaves to argparse
DECLINED = [
    ["mdp-eval", "--md", "m", "--strategy", "s", "--charge", "frequency"],
    ["blackwell", "--mdp=m"],
    ["blackwell", "--mdp", "a", "--mdp", "b"],
    ["density", "-h"],
    ["density", "--", "odds"],
    MDP_EVAL + ["--horizon", "-5"],
    SEARCH + ["--top", "x"],
    SEARCH[:1] + SEARCH[3:],
    ["density", "odds", "extra"],
    ["verify", "nope"],
]


class ArgparseCalled(Exception):
    pass


def test_well_formed_calls_bypass_argparse(monkeypatch):
    def refuse(*args, **kwargs):
        raise ArgparseCalled

    with monkeypatch.context() as patched:
        patched.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        patched.setattr(argparse.ArgumentParser, "parse_args", refuse)
        got = [_parse(argv) for argv in WELL_FORMED]
        for argv in DECLINED:
            with pytest.raises(ArgparseCalled):
                _parse(argv)
    assert got == [build_parser().parse_args(argv) for argv in WELL_FORMED]


# values argparse reads in its own way: signed, spaced, underscored and
# non-ASCII digits (int() reads each), empty, dashes and the help flag
INT_WORDS = ["3", "+5", " 7", "1_0", "\u0663"]
FUZZ_VALUES = INT_WORDS + ["", "-5", "-", "--", "-h", "all", "odds", "x"]
FUZZ_FLAGS = sorted({name for _, _, arguments in cli._COMMANDS.values()
                     for name in arguments if name[0] == "-"})


@st.composite
def argument_words(draw, name, keywords, tidy):
    """Words giving one argument.  Tidy: a flag in full and, four times in
    five, a value it accepts; else also abbreviated or ``=``-joined."""
    accepted = tidy and draw(st.integers(0, 4)) > 0
    value = draw(st.sampled_from(keywords.get("choices", INT_WORDS) if accepted else FUZZ_VALUES))
    form = "full" if tidy else draw(st.sampled_from(["full", "abbreviated", "joined"]))
    if name[0] != "-":
        return [value]
    if form == "abbreviated":
        name = name[:draw(st.integers(3, len(name) - 1))]
    return [f"{name}={value}"] if form == "joined" else [name, value]


@st.composite
def table_argvs(draw):
    """A command and its arguments.  A tidy call gives each argument once,
    or leaves out one with a default; the others may also repeat or leave
    out any, and put in a few words from the whole vocabulary anywhere."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    tidy = draw(st.booleans())
    words = []
    for name, keywords in draw(st.permutations(list(cli._COMMANDS[command][2].items()))):
        counts = [1, 1, 1, 0, 2]
        if tidy:
            counts = [0, 1] if "default" in keywords else [1]
        for _ in range(draw(st.sampled_from(counts))):
            words += draw(argument_words(name, keywords, tidy))
    vocabulary = FUZZ_VALUES + FUZZ_FLAGS + list(cli._COMMANDS)
    for word in draw(st.lists(st.sampled_from(vocabulary), max_size=0 if tidy else 2)):
        words.insert(draw(st.integers(0, len(words))), word)
    return [command] + words


def captured_outcome(parse, argv):
    """``parse_outcome`` without pytest's capture fixture."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return parse(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(table_argvs())
def test_parse_agrees_with_the_full_parser_on_table_words(argv):
    got = captured_outcome(_parse, argv)
    assert got == captured_outcome(build_parser().parse_args, argv)


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



# ---- run() on generated expressions ------------------------------------------
#
# Set, charge and stream texts from the grammar, numbers from 1 to 10**3,
# and one-character edits of their expressions.  A binary set operator and
# a restriction window take a set of modulus at most 4, so every period
# stays within lcm(1000, 12) and a geometric query takes milliseconds; an
# edit inserts or substitutes no digit, so it cannot widen a number either.

NUMBERS = st.integers(1, 10**3)


def set_texts(modulus):
    leaves = st.one_of(
        st.sampled_from(["odds", "evens", "nat", "empty"]),
        st.builds("multiples({})".format, modulus),
        st.builds("ap({},{})".format, NUMBERS, modulus))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds("!{}".format, inner),
        st.builds("({})".format, inner),
        st.builds("shift({},{})".format, inner, st.integers(-10**3, 10**3)),
        st.builds("contract({},{})".format, inner, NUMBERS)), max_leaves=3)


NARROW_SETS = set_texts(st.integers(1, 4))
SET_TEXTS = st.one_of(
    set_texts(NUMBERS),
    st.builds("{} {} {}".format, set_texts(NUMBERS), st.sampled_from("|&"), NARROW_SETS))
RATIONAL_TEXTS = st.builds(lambda sign, n, d: f"{sign}{n}" + (f"/{d}" if d is not None else ""),
                           st.sampled_from(["", "-"]), NUMBERS, st.none() | NUMBERS)


@st.composite
def mix_texts(draw, parts):
    parts = draw(parts)
    weights = draw(st.lists(st.integers(1, 5), min_size=len(parts), max_size=len(parts)))
    total = draw(st.sampled_from([sum(weights), 1 + sum(weights)]))  # weights summing to 1, or not
    return "mix(" + ", ".join(f"{w}/{total}: {c}" for w, c in zip(weights, parts)) + ")"


CHARGE_TEXTS = st.recursive(
    st.one_of(st.sampled_from(["frequency", "dyadiclimit"]),
              st.integers(2, 10**3).flatmap(
                  lambda d: st.builds("geometric({}/{})".format, st.integers(1, d - 1), st.just(d))),
              st.builds("pointmass({})".format, NUMBERS)),
    lambda inner: st.one_of(st.builds("restrict({}, {})".format, inner, NARROW_SETS),
                            mix_texts(st.lists(inner, min_size=1, max_size=3))),
    max_leaves=4)
STREAM_TEXTS = st.builds(lambda pre, cyc: f"stream([{', '.join(pre)}]; [{', '.join(cyc)}])",
                         st.lists(RATIONAL_TEXTS, max_size=4),
                         st.lists(RATIONAL_TEXTS, min_size=1, max_size=4))
GRAMMAR_ARGVS = st.one_of(
    st.tuples(st.just("density"), SET_TEXTS),
    st.tuples(st.just("charge-eval"), CHARGE_TEXTS, SET_TEXTS),
    st.tuples(st.just("integrate"), CHARGE_TEXTS, STREAM_TEXTS))
# what an edit puts in: the grammar's punctuation, letters, a blank and a
# character that starts no token
EDIT_CHARS = st.sampled_from(list("()[]{}|&!,:;/=-") + list("aemsx _@"))


@st.composite
def edited(draw, words):
    """One expression of an argv with one character deleted, inserted or
    replaced."""
    words = list(words)
    k = draw(st.integers(1, len(words) - 1))
    word = words[k]
    i = draw(st.integers(0, len(word)))
    kind = draw(st.sampled_from(["delete", "insert", "replace"]))
    cut = i + (kind != "insert")
    words[k] = word[:i] + ("" if kind == "delete" else draw(EDIT_CHARS)) + word[cut:]
    return tuple(words)


def _digit_limit(exc: ValueError) -> bool:
    """The printed answer passed Python's int-to-string digit limit."""
    return type(exc) is ValueError and "integer string conversion" in str(exc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(GRAMMAR_ARGVS, GRAMMAR_ARGVS.flatmap(edited)))
def test_run_exits_0_or_2_on_grammar_texts(argv):
    """Every outcome is an answer or a typed error's exit 2; the one other
    exception let through is the printing limit of answers past 4300
    digits (a known failure)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    except SystemExit as exc:  # argparse refuses a word starting with '-'
        code = exc.code
    except ValueError as exc:
        if not _digit_limit(exc):
            raise
        return
    assert code in (0, 2), err.getvalue()
    assert (code == 0) == (err.getvalue() == "") != (out.getvalue() == "")
