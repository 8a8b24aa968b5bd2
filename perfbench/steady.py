"""Steadiness check: run workloads repeatedly and show each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload fleet-hollow --runs 5
    python3 perfbench/steady.py --runs 10            # every workload

Run i uses seed i (1, 2, ..., ``--runs``) and lasts ``run_seconds``
from ``BENCHMARK.json``.  For every end-to-end
metric the table gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` computes them), the spread
(Q3 - Q1) / median, and the metric's bound from ``BENCHMARK.json``;
``ok`` means the spread is below a third of the bound, ``setup_s``
included.  The figures of the ``detail`` line (the workload's own
latencies and counts) follow, without bounds.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    detail = {}
    for line in lines[:-1]:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    if not result["correct"]:
        print(f"  seed {seed}: INCORRECT\n{proc.stderr}", file=sys.stderr)
    return result, detail


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        results = [run_once(workload, seed, bench["run_seconds"])
                   for seed in range(1, args.runs + 1)]
        shares = sorted({r["failed"] / r["attempted"] for r, _ in results})
        correct = all(r["correct"] for r, _ in results)
        print(f"\n{workload}: {args.runs} runs, seeds 1..{args.runs}, correct={correct}, "
              f"failed shares={shares}")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r, _ in results]
            med, q1, q3, sp = spread(values)
            bound = bounds[name]
            ok = sp < bound / 3
            steady &= ok
            verdict = "ok" if ok else "WIDE"
            unit = results[0][0]["metrics"][name]["unit"]
            print(f"  {name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.3f} "
                  f"{bound:>6} {verdict} [{unit}]")
            print(f"  {'':32} runs: {' '.join(f'{v:.4g}' for v in values)}")
        for key, value in results[0][1].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool) and key != "seed":
                values = [d.get(key, 0.0) for _, d in results]
                med, q1, q3, sp = spread(values)
                print(f"  {'detail.' + key:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.3f}")
    print("\nsteady" if steady else "\nnot steady: a spread is at or above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
