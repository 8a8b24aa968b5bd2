"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve-dense --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the same checkout.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run is traced (see
``tracing.py``) and the JSON carries the per-layer metrics instead.
Everything the run writes goes under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"

#: Program settings read from the environment; the benchmark clears them
#: so that it measures the program's defaults.
PROGRAM_ENV = ("REPRO_SRGEMM_BACKEND", "REPRO_FAULT_PLAN", "REPRO_SERVE_CACHE_BYTES",
               "REPRO_KERNEL_BYTE_BUDGET")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_environment() -> None:
    """Clear the program's settings, keep its compile cache and every
    temporary file (the C compiler's too) inside the checkout, and cap
    native thread pools at the cores this process may run on.  Must run
    before numpy is imported."""
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_CNATIVE_CACHE"] = str(OUT / "cnative-cache")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    cores = str(len(os.sched_getaffinity(0)))
    for name in THREAD_ENV:
        os.environ[name] = cores
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, str(HERE), os.environ.get("PYTHONPATH")) if p)


def fill_compile_cache() -> None:
    """Compile the native kernel into the on-disk cache now, outside
    every timed region, so that no set-up probe pays for a compile."""
    import numpy as np
    from repro.semiring.backends import registered_backends

    backend = registered_backends().get("cnative")
    if backend is not None and backend.available:
        backend.srgemm_accumulate(np.zeros((4, 4)), np.ones((4, 4)), np.ones((4, 4)))


def measure_setup(workload: str, seed: int, probes: int, workdir: Path) -> list[float]:
    """Time the workload's set-up in fresh interpreters (``probe.py``),
    one after the other; the first probe only warms the byte-code cache."""
    times = []
    for i in range(probes + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


#: Peak memory is read after this many rounds (or at the end of a
#: shorter run), so it does not grow with the number of rounds a run fits
#: (serve-mixed's grows with every re-solve).
RSS_ROUNDS = 2


def rss_mb() -> float:
    """This process's resident set now."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """This process's largest resident set so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare_environment()
    if not (ROOT / "src" / "repro").is_dir():
        parser.error(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")

    from workloads import WORKLOADS, Recorder, quantile

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        # Inputs and oracles first, before the program is loaded: the
        # memory the harness holds then is not the program's.
        wl.make_inputs()
        rss_base = rss_mb()
        fill_compile_cache()
        setup = measure_setup(args.workload, args.seed, wl.PROBES, workdir)
        wl.setup()

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        rec = Recorder(tracer)
        problems: list[str] = []
        attempted = failed = rounds = 0
        round_rates = []  # operations per second of time in calls, per round
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            before, busy = rec.ops, rec.wall_s
            try:
                problems += wl.run_round(rounds, rec)
            except Exception as exc:  # the program refused an operation
                failed += 1
                attempted += 1
                print(f"FAILED: round {rounds}: {type(exc).__name__}: {exc}", file=sys.stderr)
            attempted += rec.ops - before
            if rec.ops > before:
                round_rates.append((rec.ops - before) / (rec.wall_s - busy))
            rounds += 1
            # Collect the round's cyclic garbage now, untimed, so that
            # every round starts from the same heap: peak memory and
            # in-call collections then do not depend on where a run's
            # full collections happen to fall.
            gc.collect()
            if rounds == RSS_ROUNDS:
                rss = peak_rss_mb() - rss_base
        if rounds < RSS_ROUNDS:
            rss = peak_rss_mb() - rss_base
        problems += wl.final_check()

        detail = wl.detail(rec)
        detail.update(rounds=rounds, ops=rec.ops, setup_probes=setup, harness_rss_mb=rss_base)
        op_times = rec.all_wall()
        if tracer is None:
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (rss, "MB"),
                "op_ms_p50": (1e3 * quantile(op_times, 0.5), "ms"),
                "ops_per_s": (statistics.median(round_rates), "1/s"),
            }
        else:
            import tracing

            metrics = tracing.layer_metrics(tracer, rounds, rec.ops, rec.wall_s, rec.cpu_s,
                                            wl.makespan())
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
            detail["traced_op_ms_p50"] = 1e3 * quantile(op_times, 0.5)
    finally:
        wl.close()
        try:
            workdir.rmdir()
        except OSError:
            pass

    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("detail " + json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
