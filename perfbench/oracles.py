"""Checks of the program's outputs that share no code with the program.

Distances are checked against SciPy's Floyd-Warshall; the fleet is
checked against the paper's lower bounds on time (compute at peak rate,
and the minimum per-node communication volume over the NIC).  Each
check returns a list of problems; empty means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse.csgraph import floyd_warshall


def apsp_oracle(weights: np.ndarray) -> np.ndarray:
    """All-pairs distances by SciPy.  ``weights`` uses ``inf`` for a
    missing edge and has no zero-weight edges off the diagonal (SciPy
    reads a dense zero as "no edge")."""
    return floyd_warshall(weights, directed=True)


def check_matrix(got, want: np.ndarray, what: str) -> list[str]:
    got = np.asarray(got)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    if not np.array_equal(got, want):
        bad = np.argwhere(got != want)
        i = tuple(int(x) for x in bad[0])
        return [f"{what}: {len(bad)} entries differ, first at {i}: {got[i]} != {want[i]}"]
    return []


def expected_k_nearest(dist_row: np.ndarray, s: int, k: int) -> list[tuple[int, float]]:
    """The k nearest reachable vertices to ``s`` from an oracle row,
    ordered by distance then vertex id, ``s`` itself excluded."""
    order = sorted(
        (float(d), v) for v, d in enumerate(dist_row) if v != s and math.isfinite(d)
    )
    return [(v, d) for d, v in order[:k]]


def check_k_nearest(got, dist_row: np.ndarray, s: int, k: int) -> list[str]:
    want = expected_k_nearest(dist_row, s, k)
    got = [(int(v), float(d)) for v, d in got]
    if got != want:
        return [f"k_nearest({s}, {k}): {got[:3]}... != {want[:3]}..."]
    return []


def job_lower_bounds(n_virtual: float, n_nodes: int, peak_flops_per_node: float,
                     nic_bw: float, itemsize: int) -> tuple[float, float]:
    """(compute, communication) lower bounds in seconds on one
    n-vertex Floyd-Warshall sweep over ``n_nodes`` nodes: 2n^3 flops at
    the nodes' peak, and the minimum bytes any node must send,
    n^2 * itemsize * (1/kr + 1/kc) at the most square node grid, at the
    NIC's bandwidth (zero on one node, which sends nothing)."""
    compute = 2.0 * n_virtual ** 3 / (n_nodes * peak_flops_per_node)
    if n_nodes < 2:
        return compute, 0.0
    kr = max(d for d in range(1, int(math.isqrt(n_nodes)) + 1) if n_nodes % d == 0)
    kc = n_nodes // kr
    volume = n_virtual * n_virtual * itemsize * (1.0 / kr + 1.0 / kc)
    return compute, volume / nic_bw


def check_fleet(reports, jobs, fleet_makespan: float, peak_flops_per_node: float,
                nic_bw: float, itemsize: int) -> list[str]:
    """Every job done, no job faster than its lower bounds, and the
    fleet no faster than its slowest job's bound."""
    problems = []
    if len(reports) != len(jobs):
        return [f"{len(reports)} job reports for {len(jobs)} jobs"]
    largest = 0.0
    for rep, job in zip(reports, jobs):
        if rep.status != "done":
            problems.append(f"job {job.name}: status {rep.status} ({rep.error})")
            continue
        bound = max(job_lower_bounds(job.n_virtual, job.n_nodes, peak_flops_per_node,
                                     nic_bw, itemsize))
        largest = max(largest, bound)
        span = rep.finished_at - rep.submitted_at
        if not span >= bound:
            problems.append(f"job {job.name}: span {span:.6g}s below its bound {bound:.6g}s")
    if not fleet_makespan >= largest:
        problems.append(f"fleet makespan {fleet_makespan:.6g}s below the largest job bound {largest:.6g}s")
    return problems


def check_recovery(reports, jobs, retries: float, quarantines: float) -> list[str]:
    """The injected crashes happened and were recovered from: every
    struck job ran more than once, every other job exactly once, the
    fleet counted one retry per extra run, and at least one device was
    quarantined (each crash blames the device it struck)."""
    problems = []
    for rep, job in zip(reports, jobs):
        if job.crash_at and rep.attempts < 2:
            problems.append(f"job {job.name}: struck by a crash but ran {rep.attempts} time(s)")
        if not job.crash_at and rep.attempts != 1:
            problems.append(f"job {job.name}: not struck but ran {rep.attempts} times")
    extra = sum(rep.attempts - 1 for rep in reports)
    if retries != extra:
        problems.append(f"fleet counted {retries:g} retries for {extra} extra runs")
    if not quarantines >= 1:
        problems.append(f"no device quarantined after {sum(1 for j in jobs if j.crash_at)} crashes")
    return problems
