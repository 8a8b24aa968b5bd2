"""Span tracing of the program's layers, installed from outside ``src/``.

:func:`install` wraps public functions and methods of each layer's
modules so that every call records a span (layer, name, start, end,
parent span, request id) and bumps counters at the same boundary.
Spans stay in memory, capped at :data:`SPAN_CAP`; :meth:`Tracer.write`
dumps them when the run ends.  Self time is computed online: when a
span closes, its duration minus the time its direct children covered is
added to its layer.

Simulated actors are generators stepped by the sim engine, so a
generator call returns before any of its work runs.  Two devices cover
that: a wrapped generator function returns :func:`_traced_gen`, which
opens a span around every resume of the underlying generator; and
``Process._step`` (the engine's hand-off to an actor) opens a span in
the layer that owns the actor's generator code.  Whatever remains of
``Environment.run`` after its children is the engine's own dispatch
cost (``sim.self_s``).

Importing this module changes nothing; only :func:`install` patches.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Spans kept in memory for the span dump; later spans still count
#: toward self times and counters.
SPAN_CAP = 200_000

#: Layer that owns each package under ``repro`` (by directory name).
_PACKAGE_LAYER = {
    "semiring": "semiring",
    "sim": "sim",
    "core": "core",
    "mpi": "mpi",
    "machine": "machine",
    "faults": "faults",
    "sched": "sched",
}

#: Every span layer; serve is split by component.
LAYERS = ("semiring", "sim", "core", "mpi", "machine", "faults", "sched",
          "serve.cache", "serve.artifact", "serve.query", "serve.patch")


class Tracer:
    """Span stack, per-layer self time, inclusive time by span name,
    and counters."""

    def __init__(self):
        self._stack: list[list] = []  # [span_id, layer, name, start, child_time]
        self._next_id = 0
        self.request = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped = 0

    def enter(self, layer: str, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, layer, name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, layer, name, start, child = self._stack.pop()
        dur = end - start
        self.self_s[layer] += dur - child
        self.incl_s[name] += dur
        parent = 0
        if self._stack:
            top = self._stack[-1]
            top[4] += dur
            parent = top[0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, self.request, layer, name, start, end))
        else:
            self.dropped += 1

    def current_layer(self):
        return self._stack[-1][1] if self._stack else None

    def inside(self, layer: str) -> bool:
        return any(frame[1] == layer for frame in self._stack)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def write(self, path: Path) -> None:
        """Dump the kept spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, parent, request, layer, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "layer": layer, "name": name, "start": start, "end": end,
                }) + "\n")
            fh.write(json.dumps({"dropped": self.dropped}) + "\n")


# -- wrappers ----------------------------------------------------------------

def _traced_gen(tracer: Tracer, layer: str, name: str, gen):
    """Drive ``gen`` by hand, with one span per resume."""
    send, exc = None, None
    while True:
        tracer.enter(layer, name)
        try:
            item = gen.send(send) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            tracer.exit()
        try:
            send, exc = (yield item), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as err:  # thrown in by the engine; forward it
            send, exc = None, err


def _wrap_call(tracer, layer, name, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        tracer.enter(layer, name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(args, kwargs, out)
        return out

    return wrapper


def _wrap_gen(tracer, layer, name, fn, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        return _traced_gen(tracer, layer, name, fn(*args, **kwargs))

    return wrapper


def _rebind(orig, new) -> None:
    """Point every ``repro`` module attribute bound to ``orig`` (the
    defining module and every ``from x import f`` site) at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _patch_function(module, attr, make):
    orig = getattr(module, attr)
    _rebind(orig, make(orig))


def _patch_method(cls, attr, make):
    setattr(cls, attr, make(cls.__dict__[attr]))


# -- installation --------------------------------------------------------------

def install(tracer: Tracer) -> None:
    """Wrap every listed layer boundary of the imported program."""
    import repro.core.driver as driver
    import repro.core.executor as executor
    import repro.core.oog_srgemm as oog
    import repro.faults.checkpoint as checkpoint
    import repro.faults.injector as injector
    import repro.machine.gpu as gpu
    import repro.mpi.collectives as collectives
    import repro.mpi.comm as comm
    import repro.sched.admission as admission
    import repro.sched.health as health
    import repro.sched.resilience as resilience
    import repro.sched.scheduler as scheduler
    import repro.semiring.closure as closure
    import repro.serve.artifact as artifact
    import repro.serve.cache as cache
    import repro.serve.incremental as incremental
    import repro.serve.query as query
    import repro.sim.engine as engine
    from repro.semiring.backends import registered_backends

    T = tracer
    call = functools.partial(_wrap_call, T)
    gen = functools.partial(_wrap_gen, T)

    # semiring: the kernel backends' SrGemm entry points, counted at the
    # layer boundary (nested calls inside a backend are not new calls).
    def kernel_counter(phase, dims):
        def before(args, kwargs):
            if T.current_layer() == "semiring":
                return
            m, n, k = dims(args)
            T.count("semiring.calls")
            if phase:
                T.count(f"semiring.{phase}.calls")
            T.count("semiring.flops", 2.0 * m * n * k)
        return before

    def cab(args):  # (c, a, b): c is m x n, a is m x k
        return args[0].shape[0], args[0].shape[1], args[1].shape[1]

    def row_panel(args):  # (panel, diag): diag (b x b) times panel (b x w)
        return args[1].shape[0], args[0].shape[1], args[1].shape[1]

    def col_panel(args):  # (panel, diag): panel (h x b) times diag (b x b)
        return args[0].shape[0], args[1].shape[1], args[1].shape[0]

    entries = {
        "srgemm_accumulate": (None, cab),
        "srgemm_diag": ("diag", cab),
        "srgemm_panel": ("panel", cab),
        "srgemm_outer": ("outer", cab),
        "panel_row_update": ("panel", row_panel),
        "panel_col_update": ("panel", col_panel),
    }
    for backend in registered_backends().values():
        for attr, (phase, dims) in entries.items():
            bound = getattr(backend, attr)
            setattr(backend, attr, call("semiring", f"semiring.{attr}", bound,
                                        before=kernel_counter(phase, dims)))

    def fw_dims(args):
        n = args[0].shape[0]
        return n, n, n

    _patch_function(closure, "fw_inplace", lambda f: call(
        "semiring", "semiring.fw_inplace", f, before=kernel_counter("diag", fw_dims)))

    # sim: the run loop is a span; every dispatched event is counted;
    # every hand-off to an actor is a span in the actor's layer.
    _patch_method(engine.Environment, "run", lambda f: call("sim", "sim.run", f))
    step = engine.Environment.__dict__["step"]

    def counted_step(self):
        T.counts["sim.events"] += 1
        return step(self)

    engine.Environment.step = counted_step
    code_layer: dict = {}
    traced_code = _traced_gen.__code__

    def layer_of(code):
        layer = code_layer.get(code, False)
        if layer is False:
            parts = Path(code.co_filename).parts
            layer = None
            if "repro" in parts:
                i = len(parts) - 1 - parts[::-1].index("repro")
                if i + 1 < len(parts):
                    layer = _PACKAGE_LAYER.get(parts[i + 1])
            code_layer[code] = layer
        return layer

    proc_step = engine.Process.__dict__["_step"]

    def traced_step(self, send=None, throw=None):
        code = getattr(self._generator, "gi_code", None)
        layer = None if code is None or code is traced_code else layer_of(code)
        if layer is None:
            return proc_step(self, send, throw)
        T.enter(layer, f"{layer}.actor")
        try:
            return proc_step(self, send, throw)
        finally:
            T.exit()

    engine.Process._step = traced_step

    # core: planning, the rank-program builder, result assembly and the
    # ooGSrGemm tile pipeline.
    _patch_function(driver, "plan_run", lambda f: call("core", "core.plan_run", f))
    _patch_function(driver, "build_result", lambda f: call("core", "core.build_result", f))
    _patch_function(driver, "apsp", lambda f: call("core", "core.apsp", f))

    def rank_program(f):
        # The program's generator runs inside whichever actor supervises
        # it (the driver's or the scheduler's); its resumes are core work.
        build = call("core", "core.execute_schedule", f)

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            return _traced_gen(T, "core", "core.rank_program", build(*args, **kwargs))
        return wrapper

    _patch_function(executor, "execute_schedule", rank_program)

    def count_tiles(args, kwargs):
        tiles = kwargs["tiles"] if "tiles" in kwargs else args[3]
        T.count("core.oog_tiles", len(tiles))

    _patch_function(oog, "run_oog_pipeline", lambda f: gen("core", "core.oog_pipeline", f, before=count_tiles))

    # mpi: point-to-point (messages and virtual bytes counted at send)
    # and the collectives.
    def count_send(args, kwargs):
        self, _dst, payload = args[:3]
        nbytes = kwargs.get("nbytes", args[4] if len(args) > 4 else None)
        if nbytes is None:
            nbytes = self.mpi.virtual_nbytes(payload)
        T.count("mpi.messages")
        T.count("mpi.virtual_bytes", nbytes)

    _patch_method(comm.Comm, "send", lambda f: gen("mpi", "mpi.send", f, before=count_send))
    _patch_method(comm.Comm, "recv", lambda f: gen("mpi", "mpi.recv", f))
    _patch_method(comm.Comm, "recv_message", lambda f: gen("mpi", "mpi.recv_message", f))
    _patch_method(comm.Comm, "isend", lambda f: call("mpi", "mpi.isend", f))
    for name in ("bcast_tree", "bcast_ring", "bcast_ring_segmented", "barrier", "gather",
                 "recv_with_retry"):
        _patch_function(collectives, name, lambda f, name=name: gen("mpi", f"mpi.{name}", f))

    # machine: CUDA stream submissions.
    def count_gpu_op(args, kwargs):
        T.count("machine.gpu_ops")

    for name in ("kernel", "kernel_time", "h2d", "d2h"):
        _patch_method(gpu.CudaStream, name,
                      lambda f, name=name: call("machine", f"machine.{name}", f, before=count_gpu_op))

    # faults: checkpoint store, the checkpoint hook, the injector.
    _patch_method(checkpoint.CheckpointStore, "save", lambda f: call(
        "faults", "faults.save", f, before=lambda a, k: T.count("faults.checkpoints")))
    _patch_method(checkpoint.CheckpointStore, "restore", lambda f: call(
        "faults", "faults.restore", f, before=lambda a, k: T.count("faults.restores")))
    _patch_method(checkpoint.CheckpointStore, "restore_nxt", lambda f: call("faults", "faults.restore_nxt", f))
    _patch_function(checkpoint, "reshard", lambda f: call("faults", "faults.reshard", f))
    _patch_function(checkpoint, "checkpoint_hook", lambda f: gen("faults", "faults.checkpoint_hook", f))
    for name in ("next_seq", "first_delivery", "mark_undelivered", "process_send", "nic_factor",
                 "compute_factor", "fire_block_flips", "fire_checkpoint_flips", "take_oog_flip",
                 "should_oom", "reset_world"):
        _patch_method(injector.FaultInjector, name, lambda f, name=name: call("faults", f"faults.{name}", f))
    _patch_method(injector.FaultInjector, "request_retransmit",
                  lambda f: gen("faults", "faults.request_retransmit", f))

    # sched: submission, the drain loop, admission and resilience.
    _patch_method(scheduler.ClusterScheduler, "submit", lambda f: call("sched", "sched.submit", f))
    _patch_method(scheduler.ClusterScheduler, "run", lambda f: call("sched", "sched.run", f))
    _patch_method(admission.AdmissionController, "check", lambda f: call(
        "sched", "sched.admission.check", f, before=lambda a, k: T.count("sched.admission_checks")))
    _patch_method(resilience.RetryPolicy, "delay", lambda f: call(
        "sched", "sched.retry.delay", f, before=lambda a, k: T.count("sched.retries")))

    def count_quarantine(args, kwargs, out):
        if out:
            T.count("sched.quarantines")

    _patch_method(health.DeviceHealthMonitor, "record_fault", lambda f: call(
        "sched", "sched.health.record_fault", f, after=count_quarantine))

    # serve: cache, artifact tile I/O, query engine, patcher.
    cache_get = cache.BlockCache.__dict__["get"]

    def traced_get(self, key, loader):
        missed = []

        def counting_loader():
            missed.append(True)
            return loader()

        evictions = self.evictions
        T.enter("serve.cache", "serve.cache.get")
        try:
            out = cache_get(self, key, counting_loader)
        finally:
            T.exit()
        T.count("serve.cache.misses" if missed else "serve.cache.hits")
        if not T.inside("serve.patch"):
            T.count("serve.cache.read_misses" if missed else "serve.cache.read_hits")
        T.count("serve.cache.evictions", self.evictions - evictions)
        return out

    cache.BlockCache.get = traced_get
    for cls in (artifact.Artifact, artifact.MemoryArtifact):
        _patch_method(cls, "load_block", lambda f: call(
            "serve.artifact", "serve.artifact.load_block", f,
            after=lambda a, k, out: (T.count("serve.artifact.tile_loads"),
                                     T.count("serve.artifact.tile_bytes", out.nbytes))))
        _patch_method(cls, "rewrite_block", lambda f: call(
            "serve.artifact", "serve.artifact.rewrite_block", f,
            before=lambda a, k: T.count("serve.artifact.tile_rewrites")))
        _patch_method(cls, "rewrite_graph", lambda f: call("serve.artifact", "serve.artifact.rewrite_graph", f))
        _patch_method(cls, "flush", lambda f: call("serve.artifact", "serve.artifact.flush", f))
    for name in ("block", "distance", "row", "col", "batch", "k_nearest", "submatrix"):
        _patch_method(query.QueryEngine, name, lambda f, name=name: call("serve.query", f"serve.query.{name}", f))

    def count_patch(args, kwargs, out):
        T.count("serve.patch.fast" if out else "serve.patch.resolves")

    _patch_method(incremental.ArtifactPatcher, "update_edge", lambda f: call(
        "serve.patch", "serve.patch.update_edge", f, after=count_patch))


def layer_metrics(tracer: Tracer, rounds: int, ops: int, op_wall_s: float, op_cpu_s: float,
                  makespan_s: float) -> dict:
    """The per-layer metric set, normalized per round of the workload
    (the host figures per operation)."""
    r = float(max(rounds, 1))
    n_ops = float(max(ops, 1))
    c, s, incl = tracer.counts, tracer.self_s, tracer.incl_s
    hits, misses = c["serve.cache.hits"], c["serve.cache.misses"]
    read_hits, read_misses = c["serve.cache.read_hits"], c["serve.cache.read_misses"]
    sem_self = s["semiring"]
    sim_self = s["sim"]
    attributed = sum(s[layer] for layer in LAYERS)
    out = {
        "semiring.calls": (c["semiring.calls"] / r, "count/round"),
        "semiring.diag.calls": (c["semiring.diag.calls"] / r, "count/round"),
        "semiring.panel.calls": (c["semiring.panel.calls"] / r, "count/round"),
        "semiring.outer.calls": (c["semiring.outer.calls"] / r, "count/round"),
        "semiring.self_s": (sem_self / r, "s/round"),
        "semiring.gflops": (c["semiring.flops"] / sem_self / 1e9 if sem_self > 0 else 0.0, "GFLOP/s"),
        "sim.events": (c["sim.events"] / r, "count/round"),
        "sim.self_s": (sim_self / r, "s/round"),
        "sim.events_per_s": (c["sim.events"] / sim_self if sim_self > 0 else 0.0, "1/s"),
        "sim.makespan_s": (makespan_s, "sim_s"),
        "core.plan_s": (incl["core.plan_run"] / r, "s/round"),
        "core.self_s": (s["core"] / r, "s/round"),
        "core.oog_tiles": (c["core.oog_tiles"] / r, "count/round"),
        "mpi.messages": (c["mpi.messages"] / r, "count/round"),
        "mpi.virtual_bytes": (c["mpi.virtual_bytes"] / r, "B/round"),
        "mpi.self_s": (s["mpi"] / r, "s/round"),
        "machine.gpu_ops": (c["machine.gpu_ops"] / r, "count/round"),
        "machine.self_s": (s["machine"] / r, "s/round"),
        "faults.checkpoints": (c["faults.checkpoints"] / r, "count/round"),
        "faults.restores": (c["faults.restores"] / r, "count/round"),
        "faults.self_s": (s["faults"] / r, "s/round"),
        "sched.admission_checks": (c["sched.admission_checks"] / r, "count/round"),
        "sched.retries": (c["sched.retries"] / r, "count/round"),
        "sched.quarantines": (c["sched.quarantines"] / r, "count/round"),
        "sched.self_s": (s["sched"] / r, "s/round"),
        "serve.cache.hits": (hits / r, "count/round"),
        "serve.cache.misses": (misses / r, "count/round"),
        "serve.cache.evictions": (c["serve.cache.evictions"] / r, "count/round"),
        "serve.cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "serve.cache.read_hit_ratio": (read_hits / (read_hits + read_misses)
                                       if read_hits + read_misses else 0.0, "ratio"),
        "serve.artifact.tile_loads": (c["serve.artifact.tile_loads"] / r, "count/round"),
        "serve.artifact.tile_bytes": (c["serve.artifact.tile_bytes"] / r, "B/round"),
        "serve.artifact.load_s": (incl["serve.artifact.load_block"] / r, "s/round"),
        "serve.query.self_s": (s["serve.query"] / r, "s/round"),
        "serve.artifact.tile_rewrites": (c["serve.artifact.tile_rewrites"] / r, "count/round"),
        "serve.artifact.rewrite_s": (incl["serve.artifact.rewrite_block"] / r, "s/round"),
        "serve.artifact.graph_rewrite_s": (incl["serve.artifact.rewrite_graph"] / r, "s/round"),
        "serve.artifact.flush_s": (incl["serve.artifact.flush"] / r, "s/round"),
        "serve.patch.fast": (c["serve.patch.fast"] / r, "count/round"),
        "serve.patch.resolves": (c["serve.patch.resolves"] / r, "count/round"),
        "serve.patch.self_s": (s["serve.patch"] / r, "s/round"),
        "host.cpu_s": (op_cpu_s / n_ops, "s/op"),
        "host.wall_s": (op_wall_s / n_ops, "s/op"),
        "host.unattributed_share": (max(0.0, op_wall_s - attributed) / op_wall_s if op_wall_s > 0 else 0.0,
                                    "ratio"),
    }
    return out
