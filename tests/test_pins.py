"""Run the pin table of ``tests/pins.py``, and check the runner on made-up rows."""

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import time

import pytest

from chargemdp import cli

from pins import PINS, Pin, write_inputs

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


@pytest.fixture(scope="session")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pins")
    write_inputs(directory)
    return directory


def outcome(pin: Pin, directory) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of a row, once its wall time is checked."""
    start = time.perf_counter()
    if callable(pin.run):
        code, out, err = 0, pin.run(), ""
    else:
        argv = [re.sub(r"@([\w.-]+)", lambda m: str(directory / m[1]), w) for w in pin.run]
        if pin.process:
            proc = subprocess.run([sys.executable, "-m", "chargemdp", *argv], capture_output=True,
                                  encoding="utf-8", env=ENV, timeout=pin.seconds)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        else:
            out_buf, err_buf = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
                code = cli.run(argv)
            out, err = out_buf.getvalue(), err_buf.getvalue()
    elapsed = time.perf_counter() - start
    assert pin.seconds is None or elapsed < pin.seconds, f"{elapsed:.2f} s"
    return code, out, err


def fits(want, got: str) -> bool:
    """got is the text want, or holds a match of the pattern want."""
    return got == want if isinstance(want, str) else want.search(got) is not None


def check(pin: Pin, directory) -> None:
    code, out, err = outcome(pin, directory)
    assert code == pin.code, err
    assert fits(pin.err, err), err
    assert pin.out is None or fits(pin.out, out), out[:2000]
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert pin.sha256 in (None, digest), digest


@pytest.mark.parametrize("pin", PINS, ids=[pin.id for pin in PINS])
def test_pin(pin, inputs):
    check(pin, inputs)


# ---- the runner itself, on rows made up here --------------------------------

HALF = hashlib.sha256(b"1/2\n").hexdigest()
ODDS = Pin("odds", ("density", "odds"), out="1/2\n", sha256=HALF, seconds=10)
BROKEN = Pin("broken", ("density", "odds |"), err=re.compile(r"\Aparse error: "), code=2)


@pytest.mark.parametrize("pin, change", [
    (ODDS, {"sha256": HALF[:-1] + ("0" if HALF[-1] != "0" else "1")}),
    (ODDS, {"out": "1/3\n"}),
    (ODDS, {"seconds": 1e-9}),
    (BROKEN, {"code": 0}),
    (BROKEN, {"err": "parse error: something else\n"}),
], ids=["digest", "out", "seconds", "code", "err"])
def test_runner_fails_a_row_with_one_field_changed(pin, change, tmp_path):
    check(pin, tmp_path)
    with pytest.raises(AssertionError):
        check(pin._replace(**change), tmp_path)


def test_runner_kills_a_process_row_past_its_bound(tmp_path):
    check(ODDS._replace(process=True), tmp_path)
    with pytest.raises(subprocess.TimeoutExpired):
        check(ODDS._replace(process=True, seconds=1e-3), tmp_path)
