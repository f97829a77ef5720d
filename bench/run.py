"""Run one chargemdp benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The workload's fixed batch (see ``workloads.py``) is run in
``round(seconds / round_s)`` whole rounds, a number fixed by the
workload's nominal round time, so that every version of the library is
measured with the same number of samples.  Each item is timed on its own
and checked afterwards, outside the timed span.

Every time is scaled to the machine's full speed.  While the rounds
run, a timer signal every 20 ms times a fixed piece of standard-library
work, the reference kernel, which no version of the library changes;
an item's time, less the time spent in those samples, is multiplied by
the kernel's full-speed time (``REFERENCE_S``) over the median of the
kernel's times from a quarter of a second before the item to a quarter
after it.  A machine that runs at two thirds of its speed for a minute
then reads the same as at full speed, while a change to the library
still moves every figure.  An item's time is the median of its scaled
times over the rounds.

With ``--trace 0`` the metrics are the end-to-end ones: the batch's
wall time (the sum of the items' times), items per second, per-item
latency, set-up time (the median of seven fresh processes, started
between the rounds, that import the library and build the inputs,
scaled the same way) and the peak resident memory of this process.  With
``--trace 1`` half the rounds run untraced and half traced
(``tracer.py``), and the metrics are per layer; the spans are written to
``.bench_build/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SETUP_PROBES = 7
# Seconds of one reference kernel at full speed on the baseline machine
# (2 vCPUs, Python 3.11.7): the fastest of 10**5 runs.
REFERENCE_S = 102e-6
SAMPLE_EVERY_S = 0.02  # how often the speed is sampled while rounds run
SPEED_WINDOW_S = 0.25  # samples this close to an item set its speed


def _kernel() -> None:
    """A bytecode loop on small ints, then fractions, big integers used as
    bit sets, tuples, a dict and str: the kinds of work the library does,
    from the standard library only."""
    x = 0
    for i in range(1500):
        x += i
    acc, bits, table = Fraction(0), 1, {}
    for i in range(1, 25):
        acc += Fraction(i, i + 7)
        bits = (bits << 13) | i
        table[i] = (acc, bits & 0xFFFF, str(i))


def _kernel_seconds() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Speedometer:
    """The machine's speed while rounds run.

    Inside ``with``, a SIGALRM handler times the reference kernel every
    ``SAMPLE_EVERY_S``; it runs in the main thread between bytecodes, so
    it samples the speed in the middle of long calls too.  ``spent`` is
    the handler's total time, which item timings leave out.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:  # a signal that came during a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        took = _kernel_seconds()
        self.at.append(t0)
        self.took.append(took)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time near [start, end]."""
        lo = bisect.bisect_left(self.at, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + SPEED_WINDOW_S)
        if lo >= hi:  # no sample that close: the nearest one
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        return REFERENCE_S / statistics.median(self.took[lo:hi])


def _setup(name: str, seed: int, workdir: Path):
    """Import the library and build the workload's inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    workload = workloads.WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    items = workloads.generate(name, seed)
    return workload, [(item, workload.prepare(item, workdir)) for item in items]


def _timed(fn, arg):
    t0 = time.perf_counter()
    try:
        out, raised = fn(arg), False
    except Exception as exc:
        out, raised = exc, True
    return out, time.perf_counter() - t0, raised


class Rounds:
    """Outcomes of whole rounds over one workload's fixed batch.

    Each item keeps its time from every round, with the moments it started
    and ended.  The machine's speed drifts by up to 1.9x for seconds to
    minutes, so each time is scaled by the speed sampled around it, and an
    item's time is the median of its scaled times; the batch's wall time is
    the sum over items of those.
    """

    def __init__(self, size: int):
        self.times: list[list[tuple[float, float, float]]] = [[] for _ in range(size)]
        self.speed = Speedometer()
        self.rounds = 0
        self.done = 0  # weight of the items checked correct in the first round
        self.attempted = self.failed = self.known = 0
        self.digits = 0
        self.problems: list[str] = []

    @property
    def cost(self) -> list[float]:
        """Each item's median time, scaled to full speed."""
        return [statistics.median([dt * self.speed.scale(t0, t1) for dt, t0, t1 in t])
                for t in self.times]

    @property
    def wall(self) -> float:
        return sum(self.cost)

    def run(self, workload, prepared, rounds: int, timer, after_round=None) -> None:
        """Run ``rounds`` rounds; ``after_round`` runs between rounds,
        outside the timed spans and with the speed sampler off."""
        for _ in range(rounds):
            with self.speed:
                for i, (item, arg) in enumerate(prepared):
                    spent, t0 = self.speed.spent, time.perf_counter()
                    out, dt, raised = timer(workload.run, arg)
                    self.times[i].append(
                        (dt - (self.speed.spent - spent), t0, time.perf_counter()))
                    self._judge(workload, item, out, raised)
            self.rounds += 1
            if after_round is not None:
                after_round()

    def _judge(self, workload, item, out, raised: bool) -> None:
        from workloads import CliResult, matches_known
        if raised:
            status = "known" if matches_known(item, out) \
                else f"raised {type(out).__name__}: {out}"
        else:
            try:
                status = workload.check(item, out)
            except Exception as exc:
                status = f"check raised {type(exc).__name__}: {exc}"
            if isinstance(out, CliResult):
                self.digits = max([self.digits] + [
                    len(d) for d in re.findall(r"\d+", out.stdout)])
        self.attempted += 1
        if status == "ok":
            if self.rounds == 0:
                self.done += item.weight
        elif status == "known":
            self.known += 1
        else:
            self.failed += 1
            self.problems.append(f"{item.kind}: {status}"[:300])


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _probe_setup(name: str, seed: int) -> float:
    """Set-up seconds of a fresh interpreter, scaled to full speed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--probe-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _result(rounds: Rounds, metrics: dict) -> dict:
    return {
        "correct": rounds.failed == 0,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chargemdp benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chargemdp" / "__init__.py").is_file():
        print(f"error: no chargemdp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = BUILD / f"work-{os.getpid()}"
    try:
        workload, prepared = _setup(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - SETUP_START
        if args.probe_setup:
            speed = statistics.median(_kernel_seconds() for _ in range(9))
            print(repr(setup_s * REFERENCE_S / speed))
            return 0
        return _measure(args, workload, prepared)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, prepared) -> int:
    rounds = Rounds(len(prepared))
    count = max(1, round(args.seconds / workload.round_s))
    if args.trace == 0:
        # Set-up probes go between rounds, so that they span the run.
        setups: list[float] = []

        def probe():
            if len(setups) < SETUP_PROBES:
                setups.append(_probe_setup(args.workload, args.seed))

        rounds.run(workload, prepared, count, _timed, probe)
        while len(setups) < SETUP_PROBES:
            probe()
        cost = rounds.cost
        item_ms = [1000 * x for x in cost]
        metrics = {
            "wall_s": (sum(cost), "s"),
            "items_per_s": (rounds.done / sum(cost), "1/s"),
            "item_p50_ms": (_percentile(item_ms, 50), "ms"),
            "item_p90_ms": (_percentile(item_ms, 90), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        import chargemdp
        import tracer as tracing
        half = max(1, count // 2)
        rounds.run(workload, prepared, half, _timed)
        traced = Rounds(len(prepared))
        tracer = tracing.Tracer()
        tracer.install(chargemdp)
        try:
            traced.run(workload, prepared, half, tracer.root)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(traced.rounds)
        metrics["trace.overhead_ratio"] = (traced.wall / rounds.wall, "ratio")
        metrics["cli.output_digits_max"] = (max(rounds.digits, traced.digits), "digits")
        rounds.attempted += traced.attempted
        rounds.failed += traced.failed
        rounds.known += traced.known
        rounds.problems += traced.problems
        metrics["workload.error_rate"] = (
            (rounds.failed + rounds.known) / rounds.attempted, "ratio")
        BUILD.mkdir(exist_ok=True)
        tracer.write(BUILD / f"spans-{args.workload}.tsv")

    for problem in rounds.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {rounds.rounds} rounds, "
          f"{rounds.attempted} items, {rounds.known} known failures, "
          f"{rounds.failed} unexpected failures, error rate "
          f"{(rounds.failed + rounds.known) / rounds.attempted}")
    print(json.dumps(_result(rounds, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
