"""Per-layer measurement for traced passes.

Three sources, all taken from outside the program:

* cProfile self time, grouped by ``repro.<pkg>``.  Self time of C
  builtins and of standard-library code is charged to the nearest
  ``repro`` caller through the profile's callers table, so the package
  shares sum to the whole traced self time.  Blocking waits (lock
  acquires, sleeps, polls) are charged to ``wait`` instead: they are
  the parent idling on its pool, not work of the package that waits.
* :class:`Probe`, which wraps public calls of the program (cache
  reads and writes, payload checksums, run-index records and loads,
  report digests, spec resolution, ``Simulator.run``) and counts their
  calls and inclusive wall time.
* the sweep's own telemetry channel (``run_sweep(telemetry=...)``) for
  pool spawn, queue wait, dispatch and worker utilisation.

Pool workers are traced by :func:`install_worker_tracing`, which the
benchmark's main module runs at import in each ``spawn`` worker.
"""

from __future__ import annotations

import atexit
import cProfile
import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional

#: ``host_s.<name>`` buckets.  ``other`` holds every other ``repro``
#: module and code with no ``repro`` caller at all.
PACKAGES = (
    "simkernel", "network", "mpi", "deep", "ompss", "hardware",
    "resilience", "parastation", "apps", "fidelity", "fsutil", "sweep",
    "obs",
)
HOST_BUCKETS = PACKAGES + ("wait", "other")

#: Builtins whose self time is blocking, not computing.
WAIT_FUNCTIONS = frozenset({
    "<method 'acquire' of '_thread.lock' objects>",
    "<method 'acquire' of '_thread.RLock' objects>",
    "<built-in method time.sleep>",
    "<built-in method select.select>",
    "<method 'poll' of 'select.poll' objects>",
    "<method 'poll' of 'select.epoll' objects>",
    "<built-in method posix.waitpid>",
})


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: The end-to-end metric and workload this layer should move.
    moves: str


def _host(pkg: str, moves: str) -> LayerMetric:
    return LayerMetric(f"host_s.{pkg}", "s", "lower", moves)


_SIM_MOVES = "wall_s on sim_serial; less on sweep_cold; none on sweep_warm"
_POOL_MOVES = "wall_s on sweep_cold; none on sim_serial (jobs=1) or sweep_warm (no pool)"
_WRITE_MOVES = "wall_s on sweep_cold only"
_READ_MOVES = "wall_s on sweep_warm; setup_s on every workload"

LAYER_METRICS = (
    *(_host(p, _SIM_MOVES) for p in (
        "simkernel", "network", "mpi", "deep", "ompss", "hardware",
        "resilience", "parastation", "apps", "fidelity")),
    _host("other", _SIM_MOVES),
    LayerMetric("simkernel.events", "count", "lower", _SIM_MOVES),
    LayerMetric("simkernel.run_s", "s", "lower", _SIM_MOVES),
    LayerMetric("sim.build_s", "s", "lower", _SIM_MOVES),
    LayerMetric("simkernel.ns_per_event", "ns", "lower", _SIM_MOVES),
    LayerMetric("network.bytes", "B", "lower", _SIM_MOVES),
    LayerMetric("sweep.pool_spawn_s", "s", "lower", _POOL_MOVES),
    LayerMetric("sweep.queue_wait_s", "s", "lower", _POOL_MOVES),
    LayerMetric("sweep.dispatch_s", "s", "lower", _POOL_MOVES),
    LayerMetric("sweep.worker_util", "frac", "higher", _POOL_MOVES),
    LayerMetric("sweep.n_retries", "count", "lower", _POOL_MOVES),
    LayerMetric("sweep.n_pool_restarts", "count", "lower", _POOL_MOVES),
    _host("wait", _POOL_MOVES),
    LayerMetric("sweep.cache_put_s", "s", "lower", _WRITE_MOVES),
    LayerMetric("sweep.cache_puts", "count", "lower", _WRITE_MOVES),
    LayerMetric("sweep.checksum_s", "s", "lower", _WRITE_MOVES),
    LayerMetric("sweep.bytes_promoted", "B", "lower", _WRITE_MOVES),
    LayerMetric("obs.manifest_s", "s", "lower", _WRITE_MOVES),
    LayerMetric("obs.manifests", "count", "lower", _WRITE_MOVES),
    _host("fsutil", _WRITE_MOVES),
    LayerMetric("sweep.execute_s", "s", "lower", _WRITE_MOVES),
    LayerMetric("sweep.cache_get_s", "s", "lower", _READ_MOVES),
    LayerMetric("sweep.cache_gets", "count", "lower", _READ_MOVES),
    LayerMetric("sweep.cache_hit_frac", "frac", "higher", _READ_MOVES),
    LayerMetric("obs.index_load_s", "s", "lower", _READ_MOVES),
    LayerMetric("sweep.report_digest_s", "s", "lower", _READ_MOVES),
    LayerMetric("sweep.resolve_s", "s", "lower", _READ_MOVES),
    _host("sweep", _READ_MOVES),
    _host("obs", _READ_MOVES),
    LayerMetric("trace_overhead_frac", "frac", "lower", "nothing: traced over untraced wall, minus 1"),
)


# ---------------------------------------------------------------------------
# Self time by package
# ---------------------------------------------------------------------------


def package_of(filename: str, pkg_root: str) -> Optional[str]:
    """The bucket of a profiled function's file, ``None`` outside ``repro``."""
    root = pkg_root.rstrip(os.sep) + os.sep
    if not filename.startswith(root):
        return None
    first = filename[len(root):].split(os.sep, 1)[0]
    name = first[:-3] if first.endswith(".py") else first
    return name if name in PACKAGES else "other"


def group_self_time(stats: Mapping, pkg_root: str) -> dict[str, float]:
    """Sum profile self time per bucket of :data:`HOST_BUCKETS`.

    *stats* is a ``pstats.Stats.stats`` table: ``{(file, line, name):
    (cc, nc, tt, ct, callers)}`` where ``callers`` maps each caller to
    the ``(cc, nc, tt, ct)`` of calls made from it.  Time in ``repro``
    files goes to their package.  Time in builtins and other non-repro
    code is split over its callers by the self time spent on behalf of
    each, then up the call graph by cumulative time, until it reaches
    ``repro`` code; with no ``repro`` caller it lands in ``other``.
    """
    out = {b: 0.0 for b in HOST_BUCKETS}
    memo: dict = {}

    def spread(func, weight: int, visiting: frozenset) -> tuple[dict, bool]:
        """Split one unit of *func*'s time over the buckets of its callers.

        *weight* indexes the per-caller ``(cc, nc, tt, ct)`` entry used
        as the split.  Callers reachable only through a cycle are left
        out and the rest renormalised; the flag says whether any was.
        """
        dist: dict[str, float] = defaultdict(float)
        total, cut = 0.0, False
        for caller, info in stats[func][4].items() if func in stats else ():
            w = info[weight]
            if w <= 0:
                continue
            pkg = package_of(caller[0], pkg_root)
            sub = {pkg: 1.0} if pkg is not None else (
                {} if caller in visiting else share_of(caller, visiting | {func})
            )
            if not sub:
                cut = True
                continue
            total += w
            for bucket, frac in sub.items():
                dist[bucket] += frac * w
        return {b: v / total for b, v in dist.items()} if total else {}, cut

    def share_of(func, visiting: frozenset) -> dict[str, float]:
        """Buckets of the time flowing out of non-repro *func*, by
        cumulative time per caller; ``{}`` if it only leads into a cycle."""
        if func in memo:
            return memo[func]
        dist, cut = spread(func, 3, visiting)
        if not dist and not cut:
            dist = {"other": 1.0}  # a root: no repro code above it
        if not cut:
            memo[func] = dist
        return dist

    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt <= 0:
            continue
        pkg = package_of(func[0], pkg_root)
        if pkg is not None:
            out[pkg] += tt
        elif func[2] in WAIT_FUNCTIONS:
            out["wait"] += tt
        else:
            # First hop: the exact self time spent on behalf of each caller.
            dist, _cut = spread(func, 2, frozenset({func}))
            for bucket, frac in (dist or {"other": 1.0}).items():
                out[bucket] += tt * frac
    return out


# ---------------------------------------------------------------------------
# Wrapped public calls
# ---------------------------------------------------------------------------


@dataclass
class Probe:
    """Calls and inclusive seconds of wrapped program calls."""

    seconds: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    #: Extra counts: cache hits, manifests written, simulated events.
    counts: dict = field(default_factory=lambda: defaultdict(int))
    #: Epoch time each ``ResultCache.put`` started, by job digest: the
    #: moment the parent had the job's result in hand.
    put_started: dict = field(default_factory=dict)

    def _wrap(self, owner, attr: str, key: str, hook=None):
        """Time ``owner.attr`` under *key*; returns the undo function.

        ``hook(args)`` runs before each call and may return
        ``finish(result)``, run after it returns.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            finish = hook(args) if hook is not None else None
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - t0
                self.calls[key] += 1
            if finish is not None:
                finish(result)
            return result

        setattr(owner, attr, wrapper)
        return lambda: setattr(owner, attr, original)

    def install(self, sim_only: bool = False):
        """Patch the program's public calls; returns the undo function.

        With *sim_only* only the calls a pool worker makes are wrapped
        (``Simulator.run`` and the payload checksum).
        """
        from repro.simkernel.simulator import Simulator
        from repro.sweep import digests

        counts = self.counts

        def events(args):
            # The kernel's own processed-event counter, read around run().
            sim, before = args[0], args[0]._events_processed

            def finish(_result):
                counts["simkernel.events"] += sim._events_processed - before

            return finish

        undo = [
            self._wrap(Simulator, "run", "simkernel.run", events),
            self._wrap(digests, "payload_checksum", "sweep.checksum"),
        ]
        if not sim_only:
            from repro.obs.fleet import FleetIndex
            from repro.sweep import ResultCache, SweepReport, SweepSpec

            def put_started(args):
                self.put_started[args[1]] = time.time()

            def hit(_args):
                def finish(result):
                    counts["sweep.cache_hits"] += result is not None

                return finish

            def written(_args):
                def finish(result):
                    counts["obs.manifests"] += bool(result)

                return finish

            undo += [
                self._wrap(ResultCache, "put", "sweep.cache_put", put_started),
                self._wrap(ResultCache, "get", "sweep.cache_get", hit),
                self._wrap(FleetIndex, "record", "obs.manifest", written),
                self._wrap(FleetIndex, "run_ids", "obs.index_load"),
                self._wrap(SweepReport, "digest", "sweep.report_digest"),
                self._wrap(SweepSpec, "resolve", "sweep.resolve"),
            ]

        def restore():
            for fn in reversed(undo):
                fn()

        return restore

    def as_dict(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def merge(self, doc: Mapping) -> None:
        for name in ("seconds", "calls", "counts"):
            target = getattr(self, name)
            for key, value in doc.get(name, {}).items():
                target[key] += value


# ---------------------------------------------------------------------------
# Pool workers
# ---------------------------------------------------------------------------


def install_worker_tracing(out_dir: str) -> None:
    """Trace this pool worker; results land in *out_dir* at exit.

    The profiler runs only inside ``execute_job`` and the payload
    checksum, so a worker's idle wait for its next task is not counted.
    """
    from repro.sweep import digests, engine

    probe = Probe()
    probe.install(sim_only=True)
    profiler = cProfile.Profile()

    def profiled(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            profiler.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                profiler.disable()

        return wrapper

    engine.execute_job = profiled(engine.execute_job)
    digests.payload_checksum = profiled(digests.payload_checksum)

    def dump() -> None:
        base = Path(out_dir) / f"worker-{os.getpid()}"
        if probe.calls:  # pstats cannot load the profile of a worker that ran no job
            profiler.dump_stats(f"{base}.prof")
        with open(f"{base}.json", "w") as fh:
            json.dump(probe.as_dict(), fh)

    atexit.register(dump)


def collect_worker_traces(out_dir: Path) -> tuple[list[str], Probe]:
    """The profile files and the summed counters the workers left."""
    probe = Probe()
    profiles = []
    for path in sorted(Path(out_dir).glob("worker-*.json")):
        with open(path) as fh:
            probe.merge(json.load(fh))
        prof = path.with_suffix(".prof")
        if prof.exists():
            profiles.append(str(prof))
    return profiles, probe


# ---------------------------------------------------------------------------
# Telemetry channel
# ---------------------------------------------------------------------------


def pool_metrics(events: Iterable[Mapping], put_started: Mapping[str, float]) -> dict:
    """Pool-layer figures of one pass from its telemetry records.

    ``dispatch_s`` sums, over simulated jobs, the parent-observed
    latency (``job.submit`` to the parent holding the result: the start
    of its cache write, else ``job.end``) minus the worker's own
    ``wall_s``.
    """
    from repro.obs.telemetry import FleetState, summarize

    events = list(events)
    state = FleetState().apply_all(events)
    summary = summarize(events)
    ran = [j for j in state.jobs.values() if not j.cached and j.t_start is not None]
    spawn = (
        min(j.t_start for j in ran) - state.t_sweep_start
        if ran and state.t_sweep_start is not None else 0.0
    )
    dispatch = 0.0
    for j in ran:
        done = put_started.get(j.digest, j.t_end)
        if done is not None and j.t_submit is not None and j.wall_s is not None:
            dispatch += (done - j.t_submit) - j.wall_s
    queue = summary.get("queue_wait") or {}
    return {
        "sweep.pool_spawn_s": spawn,
        "sweep.queue_wait_s": queue.get("total", 0.0),
        "sweep.dispatch_s": dispatch,
        "sweep.worker_util": summary.get("utilization") or 0.0,
    }
