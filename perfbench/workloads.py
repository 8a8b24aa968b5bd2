"""The three workloads: closed-loop solves, a hollow fleet under GPU
crashes, and a serve client mixing reads and edge writes.

Each workload is made only from its seed, drives the program through
its public entry points (``repro.solve``, ``repro.sched.ClusterScheduler``,
``repro.serve``), and checks every output against :mod:`oracles` outside
the timed calls.  One *round* is the workload's fixed unit of work; a
run repeats whole rounds until its time is up.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from probe import init_default_backend

#: The solve shape shared by solve-dense and the serve artifact.
SOLVE_SHAPE = dict(variant="async", block_size=64, n_nodes=2, ranks_per_node=4)


def integer_graph(rng: np.random.Generator, n: int, high: int = 100) -> np.ndarray:
    """Dense digraph with integer weights in [1, high): every path sum
    is exact in float64, and no off-diagonal zero (SciPy reads a dense
    zero as "no edge")."""
    w = rng.integers(1, high, size=(n, n)).astype(np.float64)
    np.fill_diagonal(w, 0.0)
    return w


class Recorder:
    """Wall and CPU time of each timed operation, by kind."""

    def __init__(self, tracer=None):
        self.wall: dict[str, list[float]] = {}
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.ops = 0
        self.tracer = tracer

    def timed(self, kind: str, fn, *args):
        if self.tracer is not None:
            self.tracer.request = self.ops
        c0 = time.process_time()
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.cpu_s += time.process_time() - c0
        self.wall_s += t1 - t0
        self.wall.setdefault(kind, []).append(t1 - t0)
        self.ops += 1
        return out

    def all_wall(self) -> list[float]:
        return [t for ts in self.wall.values() for t in ts]

    def total(self, *kinds: str) -> float:
        return sum(sum(self.wall.get(k, ())) for k in kinds)

    def count(self, *kinds: str) -> int:
        return sum(len(self.wall.get(k, ())) for k in kinds)


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


class Workload:
    """What :mod:`run` drives: ``make_inputs`` (inputs and oracles from
    the seed; the program is not loaded), ``setup`` (the program's
    set-up in this process; untimed), ``probe_extra`` (the part of the
    set-up beyond importing the program, timed by :mod:`probe`) and
    ``run_round``, which returns the problems its checks found."""

    name = ""
    #: Set-up probes per run; ``setup_s`` is their median.
    PROBES = 6

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.makespans: list[float] = []

    def prepare(self) -> None:
        self.make_inputs()
        self.setup()

    def probe_extra(self) -> float:
        return 0.0

    def check_makespan(self, makespan: float) -> list[str]:
        """Simulated time is deterministic: every round repeats the first."""
        self.makespans.append(makespan)
        if makespan != self.makespans[0]:
            return [f"makespan {makespan!r} != first round's {self.makespans[0]!r}"]
        return []

    def makespan(self) -> float:
        return self.makespans[0] if self.makespans else 0.0

    def final_check(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


# -- solve-dense ---------------------------------------------------------------

class SolveDense(Workload):
    """One caller runs ``repro.solve()`` in a closed loop with numerics
    on, cycling through a small seeded pool of dense integer graphs.
    Everything but the shape is left at the program's defaults."""

    name = "solve-dense"
    N = 768
    POOL = 3

    def make_inputs(self) -> None:
        self.graphs = [integer_graph(np.random.default_rng([self.seed, i]), self.N)
                       for i in range(self.POOL)]
        self.expected = [oracles.apsp_oracle(w) for w in self.graphs]

    def setup(self) -> None:
        import repro

        self.repro = repro
        self.backend = init_default_backend()
        self.config = repro.SolveConfig(**SOLVE_SHAPE)

    def run_round(self, r: int, rec: Recorder) -> list[str]:
        i = r % self.POOL
        result = rec.timed("solve", self.repro.solve, self.graphs[i], self.config)
        return (oracles.check_matrix(result.dist, self.expected[i], f"solve of graph {i}")
                + self.check_makespan(result.makespan))

    def detail(self, rec: Recorder) -> dict:
        return {"solve_s": quantile(rec.wall["solve"], 0.5),
                "makespan_sim_s": self.makespan(), "kernel_backend": self.backend}


# -- fleet-hollow --------------------------------------------------------------

@dataclass(frozen=True)
class HollowJob:
    name: str
    variant: str
    nb: int  # block rows; virtual n = nb * DIM_SCALE at block size 1
    n_nodes: int
    ranks_per_node: int
    arrival: float
    crash_at: float  # absolute simulated time; 0 = not struck

    @property
    def n_virtual(self) -> float:
        return self.nb * FleetHollow.DIM_SCALE


class FleetHollow(Workload):
    """Paper-scale hollow jobs drain through one resilience-armed
    ``ClusterScheduler`` of 16 Summit nodes.  The mix of shapes is
    fixed; the seed draws the simulated arrivals and crash times.
    Every other job is struck by a GPU crash, so retry, checkpoint
    restore and quarantine all run."""

    name = "fleet-hollow"
    N_NODES = 16
    DIM_SCALE = 768.0
    #: Job i arrives at about i * ARRIVAL_GAP simulated seconds, and a
    #: struck job crashes about CRASH_AFTER seconds after its arrival;
    #: the seed stretches each by up to JITTER of the gap.
    ARRIVAL_GAP = 0.05
    CRASH_AFTER = 0.05
    JITTER = 0.2
    #: (variant, block rows, nodes, ranks per node): up to 96 ranks.
    SHAPES = (
        ("async", 24, 16, 6),
        ("offload", 16, 4, 6),
        ("baseline", 20, 8, 4),
        ("pipelined", 20, 8, 6),
        ("async", 20, 4, 6),
        ("offload", 16, 2, 6),
    )

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        jobs = []
        for i, (variant, nb, nodes, rpn) in enumerate(self.SHAPES):
            arrival = self.ARRIVAL_GAP * (i + float(rng.uniform(0.0, self.JITTER)))
            crash_at = 0.0
            if i % 2 == 0:
                crash_at = arrival + self.CRASH_AFTER * (1.0 + float(rng.uniform(0.0, self.JITTER)))
            jobs.append(HollowJob(f"job{i}", variant, nb, nodes, rpn, arrival, crash_at))
        self.jobs = jobs

    def setup(self) -> None:
        from repro.faults import FaultPlan
        from repro.machine import MACHINES
        from repro.sched import ClusterScheduler, HealthPolicy, ResiliencePolicy, RetryPolicy

        self.backend = init_default_backend()
        self.ClusterScheduler = ClusterScheduler
        self.policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3),
            health=HealthPolicy(fault_threshold=2, probation=0.5),
            retry_budget=16,
        )
        spec = MACHINES["summit"]
        self.peak_flops_per_node = spec.node_peak_flops()
        self.nic_bw = spec.node.nic_bw
        self.plans = [
            FaultPlan.from_specs([f"crash:rank=1,at={j.crash_at!r}"], seed=self.seed).replace(
                max_restarts=0, checkpoint_interval=2)
            if j.crash_at else None
            for j in self.jobs
        ]

    def _drain(self, sched):
        """From the first submit to ``run()`` returning."""
        for job, plan in zip(self.jobs, self.plans):
            sched.submit(
                np.zeros((job.nb, job.nb)),
                name=job.name, arrival=job.arrival, variant=job.variant, block_size=1,
                n_nodes=job.n_nodes, ranks_per_node=job.ranks_per_node,
                dim_scale=self.DIM_SCALE, compute_numerics=False, collect=False,
                check_negative_cycles=False, fault_plan=plan,
            )
        return sched.run()

    def run_round(self, r: int, rec: Recorder) -> list[str]:
        sched = self.ClusterScheduler(n_nodes=self.N_NODES, dim_scale=self.DIM_SCALE,
                                      resilience=self.policy)
        reports = rec.timed("drain", self._drain, sched)
        flat = sched.fleet_metrics().flat()
        makespan = flat["fleet.makespan"]
        self.retries = flat.get("fleet.resilience.retries", 0.0)
        self.quarantines = flat.get("fleet.resilience.quarantines", 0.0)
        return (oracles.check_fleet(reports, self.jobs, makespan, self.peak_flops_per_node,
                                    self.nic_bw, itemsize=4)
                + oracles.check_recovery(reports, self.jobs, self.retries, self.quarantines)
                + self.check_makespan(makespan))

    def detail(self, rec: Recorder) -> dict:
        return {"drain_s": quantile(rec.wall["drain"], 0.5), "makespan_sim_s": self.makespan(),
                "retries_per_drain": self.retries, "quarantines_per_drain": self.quarantines,
                "jobs": len(self.jobs),
                "kernel_backend": self.backend}


# -- serve-mixed ---------------------------------------------------------------

class ServeMixed(Workload):
    """One client in a closed loop against an on-disk artifact of an
    n=512 solve (tile 64).  The cache holds about one tile row; reads
    lean on one hot tile row.  Each round is 10864 reads (points, 256-pair
    batches, k-nearest, submatrices) with five edge writes interleaved:
    four decreases, which the rank-1 patch absorbs, and one increase of
    an edge that is itself a shortest path, which re-solves.  The mix
    gives reads and writes each about half of the time in calls."""

    name = "serve-mixed"
    N = 512
    TILE = 64
    CACHE_TILES = 10
    PROBES = 4
    READS = {"point": 9600, "knn": 720, "submatrix": 480, "batch": 64}
    WRITES = ("decrease", "decrease", "increase", "decrease", "decrease")
    BATCH = 256
    K = 8

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.server = None
        self.patch_fast = {"decrease": [], "increase": []}

    def _graph(self) -> np.ndarray:
        return integer_graph(np.random.default_rng([self.seed, 0]), self.N)

    def _open(self, weights: np.ndarray, path: Path):
        """Solve, persist the artifact, open a server on it: the
        serving set-up a user pays before the first query."""
        import repro

        result = repro.solve(weights, repro.SolveConfig(**SOLVE_SHAPE))
        result.save(path, block_size=self.TILE, graph=weights)
        return repro.serve(path, cache_bytes=self.CACHE_TILES * self.TILE * self.TILE * 8)

    def probe_extra(self) -> float:
        weights = self._graph()
        path = self.workdir / "probe-artifact"
        shutil.rmtree(path, ignore_errors=True)
        t0 = time.perf_counter()
        server = self._open(weights, path)
        elapsed = time.perf_counter() - t0
        server.close()
        shutil.rmtree(path, ignore_errors=True)
        return elapsed

    def make_inputs(self) -> None:
        self.weights = self._graph()
        self.expected = oracles.apsp_oracle(self.weights)
        self.rng = np.random.default_rng([self.seed, 1])
        self.hot = int(self.rng.integers(0, self.N // self.TILE))

    def setup(self) -> None:
        self.backend = init_default_backend()
        self.path = self.workdir / "artifact"
        shutil.rmtree(self.path, ignore_errors=True)
        self.server = self._open(self.weights.copy(), self.path)

    def _vertex(self, hot_share: float) -> int:
        if self.rng.random() < hot_share:
            return self.hot * self.TILE + int(self.rng.integers(0, self.TILE))
        return int(self.rng.integers(0, self.N))

    def _read(self, kind: str, rec: Recorder) -> list[str]:
        srv, want = self.server, self.expected
        if kind == "point":
            s, t = self._vertex(0.95), int(self.rng.integers(0, self.N))
            got = rec.timed(kind, srv.distance, s, t)
            return [] if got == want[s, t] else [f"distance({s}, {t}) = {got} != {want[s, t]}"]
        if kind == "batch":
            pairs = self.rng.integers(0, self.N, size=(self.BATCH, 2))
            got = rec.timed(kind, srv.batch, pairs)
            return oracles.check_matrix(got, want[pairs[:, 0], pairs[:, 1]], "batch")
        if kind == "knn":
            s = self._vertex(0.95)
            got = rec.timed(kind, srv.k_nearest, s, self.K)
            return oracles.check_k_nearest(got, want[s], s, self.K)
        rows = np.sort(self.rng.choice(np.arange(self.hot * self.TILE, (self.hot + 1) * self.TILE),
                                       16, replace=False))
        cols = np.sort(self.rng.choice(self.N, 64, replace=False))
        got = rec.timed(kind, srv.submatrix, rows, cols)
        return oracles.check_matrix(got, want[np.ix_(rows, cols)], "submatrix")

    def _write(self, kind: str, rec: Recorder) -> list[str]:
        w, d = self.weights, self.expected
        if kind == "decrease":
            while True:
                u, v = (int(x) for x in self.rng.integers(0, self.N, size=2))
                if u != v:
                    break
            weight = float(max(1.0, d[u, v] // 2))
        else:
            # An edge that is itself a shortest path: raising it must
            # invalidate the distances that ran through it.
            cand = np.argwhere((w == d) & ~np.eye(self.N, dtype=bool))
            u, v = (int(x) for x in cand[self.rng.integers(0, len(cand))])
            weight = float(w[u, v] + 1 + self.rng.integers(0, 50))
        fast = rec.timed(kind, self.server.update_edge, u, v, weight)
        self.patch_fast[kind].append(bool(fast))
        w[u, v] = weight
        self.expected = oracles.apsp_oracle(w)
        return []

    def run_round(self, r: int, rec: Recorder) -> list[str]:
        reads = [k for k, count in self.READS.items() for _ in range(count)]
        self.rng.shuffle(reads)
        every = len(reads) // len(self.WRITES)
        problems = []
        for i, kind in enumerate(reads):
            problems += self._read(kind, rec)
            if (i + 1) % every == 0:
                problems += self._write(self.WRITES[(i + 1) // every - 1], rec)
        return problems

    def final_check(self) -> list[str]:
        """The whole matrix after the last write."""
        full = self.server.submatrix(np.arange(self.N), np.arange(self.N))
        return oracles.check_matrix(full, self.expected, "full matrix after the last write")

    def detail(self, rec: Recorder) -> dict:
        reads = tuple(self.READS)
        writes = ("decrease", "increase")
        stats = self.server.cache_stats()
        return {
            "queries_per_s": rec.count(*reads) / rec.total(*reads),
            "point_us_p50": 1e6 * quantile(rec.wall["point"], 0.5),
            "point_us_p99": 1e6 * quantile(rec.wall["point"], 0.99),
            "point_samples": rec.count("point"),
            "batch_ms_p50": 1e3 * quantile(rec.wall["batch"], 0.5),
            "update_ms_p50": 1e3 * quantile(rec.wall["decrease"], 0.5),
            "resolve_ms_p50": 1e3 * quantile(rec.wall["increase"], 0.5),
            "updates_per_s": rec.count(*writes) / rec.total(*writes),
            "hit_ratio": stats["hit_rate"],
            "decreases_patched": f"{sum(self.patch_fast['decrease'])}/{len(self.patch_fast['decrease'])}",
            "increases_resolved": f"{self.patch_fast['increase'].count(False)}/{len(self.patch_fast['increase'])}",
            "kernel_backend": self.backend,
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        shutil.rmtree(self.workdir / "artifact", ignore_errors=True)


WORKLOADS = {w.name: w for w in (SolveDense, FleetHollow, ServeMixed)}
