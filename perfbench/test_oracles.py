"""The benchmark's own test: every output check passes the program's real
output and rejects a deliberately corrupted one.

Run from the root of a checkout (it is not part of the repository's
test suite, whose ``testpaths`` is ``tests/``)::

    python3 -m pytest -q perfbench/test_oracles.py

The workloads run here at reduced sizes; the checks are the same code
the benchmark runs.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import workloads  # noqa: E402
from workloads import FleetHollow, Recorder, ServeMixed, SolveDense  # noqa: E402


class SmallSolve(SolveDense):
    N = 256
    POOL = 1


class SmallFleet(FleetHollow):
    SHAPES = (("async", 6, 4, 6), ("offload", 4, 2, 6), ("baseline", 4, 2, 4))
    CRASH_AFTER = 0.002  # the small jobs end within ~0.015 simulated seconds


class SmallServe(ServeMixed):
    N = 128
    TILE = 32
    READS = {"point": 40, "knn": 4, "submatrix": 4, "batch": 2}


def test_apsp_oracle_matches_a_plain_floyd_warshall():
    w = workloads.integer_graph(np.random.default_rng(3), 24)
    d = w.copy()
    for k in range(len(d)):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    assert np.array_equal(oracles.apsp_oracle(w), d)


def test_solve_check_rejects_a_corrupted_distance(tmp_path, monkeypatch):
    wl = SmallSolve(seed=1, workdir=tmp_path)
    wl.prepare()
    assert wl.run_round(0, Recorder()) == []
    real_solve = wl.repro.solve

    def corrupt(graph, config):
        result = real_solve(graph, config)
        result.dist[3, 5] -= 1.0
        return result

    monkeypatch.setattr(wl.repro, "solve", corrupt)
    problems = wl.run_round(1, Recorder())
    assert problems and "differ" in problems[0]


def test_solve_check_rejects_a_changed_makespan(tmp_path):
    wl = SmallSolve(seed=1, workdir=tmp_path)
    wl.prepare()
    assert wl.run_round(0, Recorder()) == []
    wl.makespans[0] *= 1.5
    assert any("makespan" in p for p in wl.run_round(1, Recorder()))


def test_fleet_checks_reject_a_failed_job_and_an_impossible_span(tmp_path):
    wl = SmallFleet(seed=1, workdir=tmp_path)
    wl.prepare()
    assert wl.run_round(0, Recorder()) == []
    sched = wl.ClusterScheduler(n_nodes=wl.N_NODES, dim_scale=wl.DIM_SCALE, resilience=wl.policy)
    reports = wl._drain(sched)
    flat = sched.fleet_metrics().flat()
    args = (wl.jobs, flat["fleet.makespan"], wl.peak_flops_per_node, wl.nic_bw, 4)
    assert oracles.check_fleet(reports, *args) == []

    failed = [dataclasses.replace(reports[0], status="failed")] + reports[1:]
    assert any("status failed" in p for p in oracles.check_fleet(failed, *args))

    r = reports[1]
    too_fast = [reports[0], dataclasses.replace(r, finished_at=r.submitted_at + 1e-9)] + reports[2:]
    assert any("below its bound" in p for p in oracles.check_fleet(too_fast, *args))

    short = (wl.jobs, 1e-9, wl.peak_flops_per_node, wl.nic_bw, 4)
    assert any("fleet makespan" in p for p in oracles.check_fleet(reports, *short))


def test_fleet_checks_reject_crashes_that_never_struck(tmp_path):
    wl = SmallFleet(seed=1, workdir=tmp_path)
    wl.prepare()
    sched = wl.ClusterScheduler(n_nodes=wl.N_NODES, dim_scale=wl.DIM_SCALE, resilience=wl.policy)
    reports = wl._drain(sched)
    flat = sched.fleet_metrics().flat()
    retries, quarantines = flat["fleet.resilience.retries"], flat["fleet.resilience.quarantines"]
    assert [r.attempts for r in reports] == [2, 1, 2]
    assert oracles.check_recovery(reports, wl.jobs, retries, quarantines) == []

    unstruck = [dataclasses.replace(reports[0], attempts=1)] + reports[1:]
    assert any("struck by a crash but ran 1" in p
               for p in oracles.check_recovery(unstruck, wl.jobs, retries - 1, quarantines))
    rerun = [reports[0], dataclasses.replace(reports[1], attempts=2)] + reports[2:]
    assert any("not struck" in p for p in oracles.check_recovery(rerun, wl.jobs, retries + 1,
                                                                  quarantines))
    assert any("retries" in p for p in oracles.check_recovery(reports, wl.jobs, 0.0, quarantines))
    assert any("quarantined" in p for p in oracles.check_recovery(reports, wl.jobs, retries, 0.0))

    # A crash drawn after its job has ended never fires.
    late = SmallFleet(seed=1, workdir=tmp_path)
    late.CRASH_AFTER = 1.0
    late.prepare()
    assert any("struck by a crash" in p for p in late.run_round(0, Recorder()))


def test_fleet_bounds_are_the_paper_formulas():
    compute, comm = oracles.job_lower_bounds(1000.0, 4, 10.0, 5.0, 4)
    assert compute == pytest.approx(2e9 / 40.0)
    assert comm == pytest.approx(1e6 * 4 * (1 / 2 + 1 / 2) / 5.0)
    assert oracles.job_lower_bounds(1000.0, 1, 10.0, 5.0, 4)[1] == 0.0


@pytest.fixture
def serve(tmp_path):
    wl = SmallServe(seed=2, workdir=tmp_path)
    wl.prepare()
    yield wl
    wl.close()


def test_serve_round_passes_on_the_real_program(serve):
    assert serve.run_round(0, Recorder()) == []
    assert serve.final_check() == []
    assert serve.patch_fast["decrease"] == [True] * 4
    assert serve.patch_fast["increase"] == [False]


@pytest.mark.parametrize("method", ["distance", "batch", "k_nearest", "submatrix"])
def test_serve_read_checks_reject_corrupted_answers(serve, method):
    srv = serve.server
    real = getattr(srv, method)

    def corrupt(*args):
        out = real(*args)
        if method == "distance":
            return out + 1.0
        if method == "k_nearest":
            return out[::-1] if len(out) > 1 else [(out[0][0], out[0][1] + 1.0)]
        out = np.array(out, copy=True)
        out.flat[0] += 1.0
        return out

    setattr(srv, method, corrupt)
    assert serve.run_round(0, Recorder())


def test_serve_checks_reject_a_lost_write(serve):
    srv = serve.server
    srv.update_edge = lambda u, v, weight: True  # acknowledged, never applied
    problems = serve.run_round(0, Recorder()) + serve.final_check()
    assert any("full matrix" in p for p in problems)
