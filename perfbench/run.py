"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout (the program under test is
``./src/repro``)::

    python3 perfbench/run.py --workload sim_serial --seed 0 --seconds 10 --trace 0

``--trace 0`` times untraced sweep passes for ``--seconds`` and reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics.  Every pass is checked
against ``perfbench/references.json``.  The result's times (``*_ref_*``
and ``setup_s``, whose name the benchmark format fixes) are scaled to
a reference machine speed (``perfbench/speed.py``), because raw times
on a shared host drift too far between runs to be bounded; the raw
ones (``raw_*``) are printed beside them, and on the ``raw`` line as
JSON for ``perfbench/compare.py``.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it give each metric's median, quartiles, 95%
order-statistic CI and sample count, and the machine stamp.  The exit
code is 1 when any output check failed and 2 when the benchmark cannot
run at all.
"""

from __future__ import annotations

import os
import sys

BENCH_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if BENCH_ROOT not in sys.path:
    sys.path.insert(0, BENCH_ROOT)

from perfbench import WORKER_TRACE_ENV  # noqa: E402

if __name__ == "__mp_main__" and os.environ.get(WORKER_TRACE_ENV):
    # A spawn pool worker of a traced pass imports this file as its
    # main module; that is the one place to hook it from outside.
    from perfbench.layers import install_worker_tracing

    install_worker_tracing(os.environ[WORKER_TRACE_ENV])


#: ``(name, unit, better)`` of every end-to-end metric.
E2E_METRICS = (
    ("wall_ref_s", "s", "lower"),
    ("jobs_per_ref_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("ok_frac", "frac", "higher"),
)

#: ``(name, unit, better)`` of the raw host times, on the ``raw`` line.
RAW_METRICS = (
    ("raw_wall_s", "s", "lower"),
    ("raw_jobs_per_s", "1/s", "higher"),
    ("raw_setup_s", "s", "lower"),
)

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 7

#: Environment the benchmark must not inherit: observability exports,
#: an ambient run index, a non-default start method, a pinned code
#: version or a user cache would each change what is measured.
CLEARED_ENV = (
    "REPRO_OBS_DIR",
    "REPRO_FLEET_INDEX",
    "REPRO_SWEEP_START_METHOD",
    "REPRO_SWEEP_CODE_VERSION",
    "REPRO_SWEEP_CACHE",
    WORKER_TRACE_ENV,
)

#: Runs in a fresh interpreter; prints the seconds set-up took.
SETUP_PROBE = """
import json, sys, time
experiments, seeds, overrides, cache_dir = json.loads(sys.argv[1])
t0 = time.perf_counter()
from repro.sweep import ResultCache, SweepSpec
SweepSpec(experiments, seeds, overrides).resolve()
ResultCache(cache_dir)
print(time.perf_counter() - t0)
"""


def main(argv=None) -> int:
    import argparse

    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program under test at {src}/repro", file=sys.stderr)
        return 2
    if os.environ.get("REPRO_CHAOS"):
        print("perfbench: refusing to run with REPRO_CHAOS armed", file=sys.stderr)
        return 2
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    import shutil
    import tempfile

    work = os.path.join(root, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work)
    saved_tmp = tempfile.tempdir
    tempfile.tempdir = work
    os.environ["TMPDIR"] = work
    try:
        return _run(WORKLOADS[args.workload], args, root, work)
    finally:
        _stop_children()
        tempfile.tempdir = saved_tmp
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def _stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    A spawn pool starts multiprocessing's resource tracker, which would
    otherwise outlive this process until it noticed its parent was gone.
    Anything else still running is terminated, then killed.
    """
    import signal
    import time
    from multiprocessing import resource_tracker

    from perfbench.rss import child_pids

    resource_tracker._resource_tracker._stop()
    pids = [int(pid) for pid in child_pids()]
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 5.0
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        pids.remove(pid)
                except ChildProcessError:
                    pids.remove(pid)
            time.sleep(0.01)


def _run(workload, args, root: str, work: str) -> int:
    import json
    import platform

    from repro.sweep import code_version
    from repro.sweep.digests import CODE_VERSION_ENV

    from perfbench.layers import LAYER_METRICS
    from perfbench.stats import summarize
    from perfbench.workloads import CODE_VERSION_PIN, jobs_for, nproc

    real_code = code_version()
    os.environ[CODE_VERSION_ENV] = CODE_VERSION_PIN
    bench = Bench(workload, args.seed, work)
    if args.trace:
        samples = bench.traced(args.seconds)
        rows = [(m.name, m.unit, f"moves {m.moves}") for m in LAYER_METRICS]
    else:
        samples = bench.setup_probes(root) | bench.timed(args.seconds)
        samples["ok_frac"] = [1.0 - bench.failed / max(bench.attempted, 1)]
        rows = [(name, unit, "") for name, unit, _ in E2E_METRICS]
        rows += [(name, unit, "as measured, not in the result") for name, unit, _ in RAW_METRICS]

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print(f"{'metric':<26} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'ci95_lo':>12} {'ci95_hi':>12} {'n':>4}")
    raw_better = {name: better for name, _, better in RAW_METRICS}
    metrics, raw = {}, {}
    for name, unit, note in rows:
        s = summarize(samples[name])
        print(f"{name:<26} {unit:<6} {s.median:>12.6g} {s.q1:>12.6g} {s.q3:>12.6g} "
              f"{s.ci_lo:>12.6g} {s.ci_hi:>12.6g} {s.n:>4}  {note}".rstrip())
        if name in raw_better:
            raw[name] = {"value": s.median, "unit": unit, "better": raw_better[name]}
        else:
            metrics[name] = {"value": s.median, "unit": unit}
    seeds = workload.seeds(args.seed)
    stamp = {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "code_version": real_code,
        "workload": workload.name,
        "seed": args.seed,
        "job_seeds": [seeds[0], seeds[-1]],
        "jobs": jobs_for(workload),
        "n_jobs_per_pass": workload.n_jobs(),
        "timed_passes": bench.n_timed,
        "setup_probes": 0 if args.trace else SETUP_PROBES,
        "seconds": args.seconds,
        "kernel_s_median": summarize(bench.kernel_s).median if bench.kernel_s else None,
    }
    print("machine " + json.dumps(stamp, sort_keys=True))
    if raw:
        print("raw " + json.dumps(raw, sort_keys=True))
    for error in bench.errors[:20]:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
    correct = not bench.errors and bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


class Bench:
    """One run of one workload: its cache(s), passes and checks."""

    def __init__(self, workload, seed: int, work: str) -> None:
        from perfbench.workloads import jobs_for, load_references

        self.workload = workload
        self.seed = seed
        self.work = work
        self.spec = workload.spec(workload.seeds(seed))
        self.jobs = jobs_for(workload)
        self.references = load_references()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.n_timed = 0
        #: Reference-kernel times at the timed passes' boundaries.
        self.kernel_s: list[float] = []
        self.warm_cache = None
        self.cold_digest = None
        if workload.cache == "warm":
            from repro.sweep import ResultCache

            self.warm_cache = ResultCache(self._fresh_dir("cache"))
            report = self._pass(self.warm_cache, expect_cached=False)[1]
            if report is not None:
                self.cold_digest = report.digest()

    def _fresh_dir(self, prefix: str) -> str:
        import tempfile

        return tempfile.mkdtemp(prefix=f"{prefix}-", dir=self.work)

    def _cache(self):
        """The cache a pass uses, and whether it must be deleted after."""
        from repro.sweep import ResultCache

        if self.workload.cache == "fresh":
            return ResultCache(self._fresh_dir("cache")), True
        return self.warm_cache, False

    def _pass(self, cache, expect_cached: bool, telemetry=None, profiler=None):
        """One timed, checked sweep pass: ``(wall_s, report or None)``."""
        import time
        import traceback

        from repro.sweep import run_sweep

        from perfbench.workloads import check_report

        n = self.workload.n_jobs()
        self.attempted += n
        t0 = time.perf_counter()
        try:
            if profiler is not None:
                profiler.enable()
            try:
                report = run_sweep(self.spec, jobs=self.jobs, cache=cache, telemetry=telemetry)
                digest = report.digest()
            finally:
                if profiler is not None:
                    profiler.disable()
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.failed += n
            self.errors.append(f"sweep pass raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, None
        wall = time.perf_counter() - t0
        n_failed, errors = check_report(
            self.workload, self.seed, report, digest, self.references,
            expect_cached=expect_cached, expect_digest=self.cold_digest,
        )
        self.failed += n_failed
        self.errors.extend(errors)
        return wall, report

    def _one(self, telemetry=None, profiler=None):
        """A pass on this workload's cache: ``(wall_s, report, bytes_promoted)``."""
        import shutil

        cache, owned = self._cache()
        promoted = cache.bytes_promoted if cache is not None else 0
        try:
            wall, report = self._pass(
                cache, expect_cached=self.warm_cache is not None,
                telemetry=telemetry, profiler=profiler,
            )
            if cache is not None:
                promoted = cache.bytes_promoted - promoted
        finally:
            if owned:
                shutil.rmtree(cache.root, ignore_errors=True)
        return wall, report, promoted

    # -- end to end ------------------------------------------------------
    def setup_probes(self, root: str) -> dict[str, list[float]]:
        """``setup_s``: import, resolve and cache open in fresh interpreters.

        The reference kernel runs in this process between the probes.
        """
        import json
        import subprocess

        from perfbench.speed import at_reference, calibrate

        env = dict(os.environ)
        # The probe pays for hashing the sources, as a user's first sweep does.
        env.pop("REPRO_SWEEP_CODE_VERSION", None)
        env["PYTHONPATH"] = os.path.join(root, "src")
        arg = json.dumps([
            list(self.spec.experiments), list(self.spec.seeds),
            {k: dict(v) for k, v in self.spec.overrides.items()},
            self._fresh_dir("probe"),
        ])
        times, kernel_s = [], [calibrate()]
        for _ in range(SETUP_PROBES):
            out = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, arg],
                cwd=root, env=env, capture_output=True, text=True, timeout=120,
                check=True,
            )
            times.append(float(out.stdout.split()[-1]))
            kernel_s.append(calibrate())
        return {"setup_s": at_reference(times, kernel_s), "raw_setup_s": times}

    def timed(self, seconds: float) -> dict[str, list[float]]:
        import time

        from perfbench.rss import PeakRss
        from perfbench.speed import at_reference, calibrate

        self._one()  # warm-up: lazy imports, OS caches
        walls, rss = [], []
        self.kernel_s = [calibrate()]
        deadline = time.perf_counter() + seconds
        while len(walls) < 2 or time.perf_counter() < deadline:
            with PeakRss() as peak:
                walls.append(self._one()[0])
            rss.append(peak.mib)
            self.kernel_s.append(calibrate())
        self.n_timed = len(walls)
        ref = at_reference(walls, self.kernel_s)
        n = self.workload.n_jobs()
        return {
            "wall_ref_s": ref,
            "jobs_per_ref_s": [n / w for w in ref],
            "raw_wall_s": walls,
            "raw_jobs_per_s": [n / w for w in walls],
            "peak_rss_mib": rss,
        }

    # -- per layer -------------------------------------------------------
    def traced(self, seconds: float) -> dict[str, list[float]]:
        import time

        from perfbench.stats import summarize

        self._one()  # warm-up
        plain, traced = [], []
        layers: dict[str, list[float]] = {}
        deadline = time.perf_counter() + seconds
        while len(traced) < 2 or time.perf_counter() < deadline:
            plain.append(self._one()[0])
            wall, per_layer = self._traced_one()
            traced.append(wall)
            for key, value in per_layer.items():
                layers.setdefault(key, []).append(value)
        self.n_timed = len(traced)
        for key in ("simkernel.events", "network.bytes", "sweep.cache_puts",
                    "sweep.cache_gets", "obs.manifests"):
            if len(set(layers[key])) > 1:
                self.errors.append(f"{key} differs between identical passes: {layers[key]}")
        overhead = summarize(traced).median / summarize(plain).median - 1.0
        layers["trace_overhead_frac"] = [overhead]
        return layers

    def _traced_one(self):
        import cProfile
        import pstats

        import repro

        from perfbench.layers import (
            HOST_BUCKETS,
            Probe,
            collect_worker_traces,
            group_self_time,
            pool_metrics,
        )
        from repro.obs.telemetry import read_events

        out_dir = self._fresh_dir("trace")
        # A cache-served pass has no pool to observe; its channel would
        # only add one append per hit to the figures of the read path.
        channel = (
            None if self.warm_cache is not None
            else os.path.join(out_dir, "telemetry.jsonl")
        )
        probe = Probe()
        profiler = cProfile.Profile()
        restore = probe.install()
        os.environ[WORKER_TRACE_ENV] = out_dir
        try:
            wall, report, promoted = self._one(telemetry=channel, profiler=profiler)
        finally:
            os.environ.pop(WORKER_TRACE_ENV, None)
            restore()
        profiles, worker = collect_worker_traces(out_dir)
        probe.merge(worker.as_dict())
        stats = pstats.Stats(profiler)
        for path in profiles:
            stats.add(path)
        pkg_root = os.path.dirname(os.path.abspath(repro.__file__))
        host = group_self_time(stats.stats, pkg_root)

        sec, calls, counts = probe.seconds, probe.calls, probe.counts
        ran = [r for r in (report.results if report else ()) if not r.cached]
        execute_s = sum(r.wall_s for r in ran)
        run_s = sec["simkernel.run"]
        events = counts["simkernel.events"]
        gets = calls["sweep.cache_get"]
        out = {f"host_s.{b}": host[b] for b in HOST_BUCKETS}
        out.update({
            "simkernel.events": events,
            "simkernel.run_s": run_s,
            "sim.build_s": execute_s - run_s,
            "simkernel.ns_per_event": run_s / events * 1e9 if events else 0.0,
            "network.bytes": sum(
                r.payload["metrics"].get("ib_bytes", 0)
                + r.payload["metrics"].get("ex_bytes", 0)
                for r in ran
            ),
            "sweep.n_retries": report.n_retries if report else 0,
            "sweep.n_pool_restarts": report.n_pool_restarts if report else 0,
            "sweep.cache_put_s": sec["sweep.cache_put"],
            "sweep.cache_puts": calls["sweep.cache_put"],
            "sweep.checksum_s": sec["sweep.checksum"],
            "sweep.bytes_promoted": promoted,
            "obs.manifest_s": sec["obs.manifest"],
            "obs.manifests": counts["obs.manifests"],
            "sweep.execute_s": execute_s,
            "sweep.cache_get_s": sec["sweep.cache_get"],
            "sweep.cache_gets": gets,
            "sweep.cache_hit_frac": counts["sweep.cache_hits"] / gets if gets else 0.0,
            "obs.index_load_s": sec["obs.index_load"],
            "sweep.report_digest_s": sec["sweep.report_digest"],
            "sweep.resolve_s": sec["sweep.resolve"],
        })
        out.update(pool_metrics(
            read_events(channel) if channel else (), probe.put_started,
        ))
        return wall, out


if __name__ == "__main__":
    sys.exit(main())
