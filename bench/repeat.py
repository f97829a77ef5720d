"""Run the benchmark on several seeds and summarise each metric.

    python3 bench/repeat.py --workload NAME [--workload NAME ...] \\
        --seeds 1-10 --seconds 18 [--trace 0|1] [--out results.json]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for
every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  ``--out`` also writes
every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for name in args.workload:
        runs = []
        for seed in _seeds(args.seeds):
            began = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["elapsed_s"] = time.perf_counter() - began
            ok = ok and result["correct"]
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"in {result['elapsed_s']:.1f} s", flush=True)
        metrics = {k: summarise([r["metrics"][k]["value"] for r in runs])
                   | {"unit": runs[0]["metrics"][k]["unit"]} for k in runs[0]["metrics"]}
        report["workloads"][name] = {"summary": metrics, "runs": runs}
        for k, m in metrics.items():
            print(f"  {name:16} {k:34} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {m['spread']:.4f} {m['unit']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
