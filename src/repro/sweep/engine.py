"""The sharded sweep engine.

Expands a :class:`SweepSpec` into ``(experiment, config, seed)`` jobs,
serves what it can from the content-addressed :class:`ResultCache`, and
fans the misses out across a process pool whose workers start from a
fresh interpreter state (``spawn`` start method).  When observability
is requested, every job gets its own private staging directory for
exports, which the engine promotes into the cache entry and then
materialises into the sweep's obs dir.

Determinism: the simulator promises bit-identical results for identical
``(config, seed)`` regardless of which process runs them, so a fanned
sweep's :meth:`SweepReport.digest` matches serial execution exactly,
and a warm re-run is served entirely from the cache.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import shutil
import tempfile
import time
import traceback as traceback_mod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.errors import (
    ConfigurationError,
    JobTimeoutError,
    ResultIntegrityError,
    WorkerCrashError,
)
from repro.obs.fleet import FleetIndex, RunManifest, manifest_from_artifacts
from repro.sweep import digests
from repro.sweep.cache import ResultCache
from repro.sweep.chaos import (
    CHAOS_ENV,
    CHAOS_HANG_ENV,
    CHAOS_SALT_ENV,
    CRASH_EXIT_CODE,
    ChaosCrash,
    ChaosSpec,
    corrupt_payload,
)
from repro.sweep.experiments import get_experiment
from repro.sweep.policy import PROPAGATE, FailurePolicy, JobFailure
from repro.sweep.spec import Job, SweepSpec


@dataclass
class JobResult:
    """Outcome of one job: the deterministic payload plus run metadata."""

    job: Job
    #: Pure simulated results (``{"metrics": ...}``) — bit-identical
    #: whether computed fresh, in a worker, or served from the cache.
    payload: dict
    cached: bool
    wall_s: float
    artifacts: list[str] = field(default_factory=list)
    #: Executions it took to land this result (1 = first try; retries
    #: under a :class:`FailurePolicy` bump it).  Harness metadata only —
    #: never part of the payload or the report digest.
    attempts: int = 1


@dataclass
class SweepReport:
    """All job results of one sweep invocation.

    Under a :class:`FailurePolicy` a sweep degrades gracefully instead
    of aborting: jobs that exhausted their retries appear in
    :attr:`failures` (with error class, attempt count and traceback
    digest) while every settled job still carries a full result.  The
    failure section, like telemetry, is harness metadata — strictly
    outside :meth:`digest`.
    """

    results: list[JobResult]
    #: Wall-clock harness telemetry summary (``None`` when the sweep
    #: ran without a telemetry channel).  Strictly outside
    #: :meth:`digest` — wall time legitimately differs between
    #: bit-identical sweeps.
    telemetry: Optional[dict] = None
    #: Quarantined jobs (exhausted their retry budget), index-ordered.
    failures: list[JobFailure] = field(default_factory=list)
    #: Failed attempts that were retried (including those that later
    #: ended in quarantine).
    n_retries: int = 0
    #: Attempts killed for exceeding the per-job wall-clock budget.
    n_timeouts: int = 0
    #: Times the worker pool was respawned after a crash or a kill.
    n_pool_restarts: int = 0
    #: ``True`` when ``fail_fast`` / ``max_failures`` stopped the sweep
    #: before every job settled.
    aborted: bool = False

    @property
    def n_cached(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def n_ran(self) -> int:
        return len(self.results) - self.n_cached

    @property
    def ok(self) -> bool:
        """Every job settled cleanly: nothing quarantined, no abort."""
        return not self.failures and not self.aborted

    def digest(self) -> str:
        """Digest of every job's deterministic payload (order-free).

        Identical for serial and fanned execution, and for cold and
        warm (cache-served) sweeps — the determinism gate of the CI
        smoke run.
        """
        doc = sorted(
            (r.job.digest, digests.canonical_json(r.payload))
            for r in self.results
        )
        blob = digests.canonical_json(doc)
        return hashlib.sha256(blob.encode()).hexdigest()

    def as_dict(self) -> dict:
        return {
            "digest": self.digest(),
            "n_jobs": len(self.results),
            "n_cached": self.n_cached,
            "n_ran": self.n_ran,
            "telemetry": self.telemetry,
            "failures": [f.as_dict() for f in self.failures],
            "n_retries": self.n_retries,
            "n_timeouts": self.n_timeouts,
            "n_pool_restarts": self.n_pool_restarts,
            "aborted": self.aborted,
            "jobs": [
                {
                    "experiment": r.job.experiment,
                    "seed": r.job.seed,
                    "config": r.job.config,
                    "digest": r.job.digest,
                    "cached": r.cached,
                    "wall_s": r.wall_s,
                    "attempts": r.attempts,
                    "payload": r.payload,
                }
                for r in self.results
            ],
        }

    def summary_table(self):
        """Merged per-job summary as a :class:`repro.analysis.Table`."""
        from repro.analysis import Table

        table = Table(
            ["experiment", "seed", "source", "wall [ms]", "headline", "value"],
            title=f"sweep summary — {len(self.results)} jobs, "
            f"{self.n_cached} cached / {self.n_ran} simulated",
        )
        for r in self.results:
            headline = get_experiment(r.job.experiment).headline
            value = r.payload.get("metrics", {}).get(headline)
            table.add_row(
                r.job.experiment,
                r.job.seed,
                "cache" if r.cached else "run",
                r.wall_s * 1e3,
                headline,
                value,
            )
        return table


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def execute_job(
    experiment: str, config: dict, seed: int, staging_dir: Optional[str] = None
) -> dict:
    """Run one job in this process and return its payload.

    With *staging_dir* the job runs observed and writes its exports
    there (its own directory, so concurrent jobs never interleave
    artifacts).  The engine indexes the run itself, from the payload
    and those exports.
    """
    metrics = get_experiment(experiment).fn(dict(config), int(seed), staging_dir)
    return {"metrics": digests.canonical(metrics)}


def _execute_with_chaos(
    experiment: str,
    config: dict,
    seed: int,
    staging_dir: Optional[str],
    digest: str,
    attempt: int,
    in_worker: bool,
) -> tuple[dict, str]:
    """Run one attempt, with env-gated fault injection around it.

    Returns ``(payload, checksum)`` where the checksum is taken over
    the *true* payload before any injected corruption — the parent's
    integrity check is what turns a corrupted result into a retry
    instead of a poisoned report.
    """
    spec = ChaosSpec.from_env()
    mode = spec.draw(digest, attempt) if spec.active else None
    if mode == "crash":
        if in_worker:
            # Die abruptly, mid-pool-protocol: the parent sees
            # BrokenProcessPool, exactly like an OOM-killed worker.
            os._exit(CRASH_EXIT_CODE)
        raise ChaosCrash(
            f"injected crash: job {digest[:12]} attempt {attempt}"
        )
    if mode == "hang":
        # A straggler, not a wrong answer: sleep long enough to trip
        # any per-job timeout, then (if still alive) answer correctly.
        time.sleep(spec.hang_s)
    payload = execute_job(experiment, config, seed, staging_dir)
    checksum = digests.payload_checksum(payload)
    if mode == "corrupt":
        payload = corrupt_payload(payload, digest, attempt)
    return payload, checksum


def _run_task(task: tuple) -> tuple[dict, str, float]:
    """Run one attempt of one job: the entry point of every executor
    (must be picklable).

    Pool workers and the inline ``jobs=1`` executor both run attempts
    through here.  With a telemetry channel the executing process
    itself emits ``job.start`` / ``job.end`` — that is what gives the
    parent (and ``obs top``) live worker occupancy instead of only
    after-the-fact completions.
    """
    (index, attempt, experiment, config, seed, digest, staging_dir,
     telemetry, in_worker) = task
    emit = _discard
    if telemetry is not None:
        from repro.obs.telemetry import TelemetryWriter

        emit = TelemetryWriter(telemetry).emit
    emit("job.start", job=index, worker=os.getpid(), attempt=attempt)
    t0 = time.perf_counter()
    payload, checksum = _execute_with_chaos(
        experiment, config, seed, staging_dir, digest, attempt, in_worker
    )
    wall = time.perf_counter() - t0
    emit("job.end", job=index, worker=os.getpid(), wall_s=wall)
    return payload, checksum, wall


class _InlineExecutor:
    """The ``jobs=1`` executor: runs each task in this process as it is
    submitted, so its futures are complete when :meth:`submit` returns."""

    def submit(self, fn: Callable, *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


def _terminate(pool) -> None:
    """Kill every worker of *pool* and shut it down without waiting.

    A ``ProcessPoolExecutor`` cannot kill a single worker, so hung or
    cancelled jobs cost the whole pool.  (``_processes`` is ``None``
    once the pool has been shut down; the inline executor has none.)
    """
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - racing exit
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _discard(kind: str, **fields: Any) -> None:
    """The telemetry sink of a sweep without a channel."""


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

ProgressFn = Callable[[int, int, JobResult], None]


def _traceback_digest(exc: BaseException) -> str:
    """Short stable digest of an exception's formatted traceback.

    Summary JSON carries this instead of full tracebacks: enough to
    recognise "the same crash" across runs and machines without
    shipping stack text into reports.
    """
    text = "".join(
        traceback_mod.format_exception(type(exc), exc, exc.__traceback__)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    refresh: bool = False,
    obs_dir: Optional[Path] = None,
    progress: Optional[ProgressFn] = None,
    isolate: bool = False,
    telemetry: Optional[Path] = None,
    policy: Optional[FailurePolicy] = None,
) -> SweepReport:
    """Run (or fetch) every job of *spec*; returns a :class:`SweepReport`.

    Parameters
    ----------
    jobs:
        ``1`` runs every job in this process; ``N >= 2`` runs every
        cache miss on up to N spawned workers.  Under :data:`PROPAGATE`
        and without *isolate*, up to ``2 * N + 1`` jobs are in flight, so
        a worker that finishes one finds the next queued; else at most N.
    cache:
        Content-addressed result cache (``None`` disables caching).
    refresh:
        Ignore cache hits and overwrite entries with fresh runs.
    obs_dir:
        Materialise each job's observability exports here (cache hits
        re-export the stored artifacts; misses run with observability
        enabled and their artifacts enter the cache).
    progress:
        ``fn(done, total, result)`` called as each job settles.
    isolate:
        Give every job a brand-new worker process
        (``max_tasks_per_child=1``) instead of reusing pool workers.
    telemetry:
        Path of the wall-clock telemetry channel (JSONL).  The parent
        records submit/cache/promote events, workers stream start/end
        events into the same file, and the finished report carries the
        :func:`repro.obs.telemetry.summarize` totals (also written to
        the sibling ``telemetry.json``).  A sweep that raises
        still ends its channel with ``sweep.end`` (``aborted: true``),
        where every follower of the channel stops.  Harness-side only:
        simulated payloads and :meth:`SweepReport.digest` are
        bit-identical with telemetry on or off.
    policy:
        Failure policy (timeouts, bounded retries, pool respawn,
        quarantine).  ``None`` means :data:`PROPAGATE`, the legacy
        contract: the first job exception propagates and aborts the
        sweep.  With ``REPRO_CHAOS`` armed both mean ``FailurePolicy()``
        instead — injected faults are meant to be absorbed, not fatal.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if policy is None or policy is PROPAGATE:
        # Armed chaos gets the defaults: injected faults should surface
        # as retries and quarantine records, not as a crashed harness.
        policy = FailurePolicy() if ChaosSpec.from_env().active else PROPAGATE
    # The legacy contract: the first failed attempt raises.
    propagate = policy is PROPAGATE
    job_list = spec.resolve()
    if not job_list:
        # An empty resolution would otherwise "succeed" with an empty
        # report — always a spec mistake (no experiments, or no seeds).
        raise ConfigurationError(
            "sweep spec resolves to zero jobs; check the experiment list "
            "and the seed range"
        )
    # Before ``sweep.start``: what can raise after that record runs
    # inside the ``try`` whose ``finally`` writes ``sweep.end``.
    code = digests.code_version()
    want_obs = obs_dir is not None
    if want_obs:
        obs_dir = Path(obs_dir)
        obs_dir.mkdir(parents=True, exist_ok=True)

    # Every harness event of this process goes through ``emit``: the
    # channel's writer, or a no-op when the sweep has no channel.
    emit: Callable[..., None] = _discard
    cache_base: dict = {}
    if telemetry is not None:
        from repro.obs.telemetry import TelemetryWriter

        telemetry = Path(telemetry)
        emit = TelemetryWriter(telemetry).emit
        emit(
            "sweep.start",
            n_jobs=len(job_list),
            n_workers=min(jobs, len(job_list)),
            experiments=sorted({j.experiment for j in job_list}),
        )
        if cache is not None:
            # Counter snapshot so sweep.end reports *this* sweep's
            # cache activity even on a long-lived ResultCache.
            cache_base = cache.counts()

    # Fleet run index (read below): one manifest per job, appended at
    # the cache root.  Purely export-side — no cache, no index, no cost.
    fleet_index = indexed_ids = None

    def record_manifest(job: Job, payload: dict, artifacts) -> None:
        if fleet_index is None:
            return
        manifest = manifest_from_artifacts(
            job.experiment, job.config, job.seed, code,
            payload, artifacts, run_id=job.digest,
        )
        fleet_index.record(manifest, known_ids=indexed_ids)

    results: dict[int, JobResult] = {}
    done = 0

    # Failure-policy bookkeeping.  ``fail_counts`` is the retry budget
    # (attributed failures only — an innocent job re-enqueued after a
    # pool kill does not burn budget); ``quarantined`` is terminal.
    fail_counts: dict[int, int] = {}
    quarantined: dict[int, JobFailure] = {}
    counters = {"retries": 0, "timeouts": 0, "pool_restarts": 0}
    aborted = False

    # Scheduler state: jobs ready to submit, jobs sleeping off a
    # backoff delay (min-heap on release time), and in-flight futures
    # with their submit timestamps (the timeout clock).
    ready: deque[tuple[int, Job, int]] = deque()
    delayed: list[tuple[float, int, Job, int]] = []
    in_flight: dict[Future, tuple[int, Job, int, float]] = {}

    def settle(index: int, result: JobResult) -> None:
        nonlocal done
        results[index] = result
        done += 1
        if progress is not None:
            progress(done, len(job_list), result)

    def requeue(index: int, job: Job, attempt: int, delay: float) -> None:
        if delay <= 0:
            ready.append((index, job, attempt))
        else:
            heapq.heappush(
                delayed, (time.monotonic() + delay, index, job, attempt)
            )

    def fail(index: int, job: Job, attempt: int, exc: BaseException) -> None:
        """Charge a failed attempt of *job*: the one place a failure is
        decided.  Under :data:`PROPAGATE` the exception propagates;
        otherwise the job retries after its backoff while it has retry
        budget and the sweep is still running, and is quarantined once
        it has not."""
        nonlocal aborted
        if propagate:
            raise exc
        fail_counts[index] = failures = fail_counts.get(index, 0) + 1
        if failures <= policy.max_retries and not aborted:
            delay = policy.backoff_s(job.digest, failures)
            counters["retries"] += 1
            emit(
                "job.retry", job=index, failures=failures,
                delay_s=delay, error=type(exc).__name__,
            )
            requeue(index, job, attempt + 1, delay)
            return
        timed_out = isinstance(exc, JobTimeoutError)
        failure = JobFailure(
            index=index,
            experiment=job.experiment,
            seed=job.seed,
            digest=job.digest,
            error_class=type(exc).__name__,
            message=str(exc)[:500],
            traceback_digest=_traceback_digest(exc),
            attempts=attempt + 1,
            timed_out=timed_out,
        )
        quarantined[index] = failure
        emit(
            "job.quarantine", job=index, error=failure.error_class,
            attempts=attempt + 1, timed_out=timed_out,
            experiment=job.experiment, seed=job.seed,
        )
        if fleet_index is not None:
            # Quarantines are indexed under their own run id and source
            # so they never shadow a later successful run of the same
            # digest, and ``obs rebuild --check`` (which replays only
            # cache-backed "sweep" manifests) stays byte-stable.
            manifest = RunManifest(
                run_id=f"{job.digest}:quarantine",
                source="quarantine",
                experiment=job.experiment,
                config=job.config,
                seed=job.seed,
                code_version=code,
                makespan_s=None,
                partial=True,
                status="quarantined",
            )
            fleet_index.record(manifest, known_ids=indexed_ids)
        if policy.fail_fast or (
            policy.max_failures is not None
            and len(quarantined) > policy.max_failures
        ):
            aborted = True

    # Pass 2 helpers (``staging_root`` is made below, with *obs_dir*).
    def staging_for(index: int) -> Optional[str]:
        if staging_root is None:
            return None
        d = staging_root / f"job{index}"
        d.mkdir(parents=True, exist_ok=True)
        return str(d)

    def finish_run(
        index: int, job: Job, payload: dict, wall: float, attempts: int
    ) -> None:
        staged: list[Path] = []
        if staging_root is not None:
            staged = sorted((staging_root / f"job{index}").glob("*"))
        if cache is not None:
            promoted_before = cache.bytes_promoted
            cache.put(
                job.digest, payload,
                meta={
                    "wall_s": wall,
                    "experiment": job.experiment,
                    # Manifest metadata: what FleetIndex.rebuild_from_cache
                    # needs to reproduce the index from the cache alone.
                    "config": job.config,
                    "seed": job.seed,
                    "code": code,
                },
                artifacts=staged,
            )
            emit(
                "cache.promote", job=index, digest=job.digest,
                bytes=cache.bytes_promoted - promoted_before,
                n_artifacts=len(staged),
            )
        record_manifest(job, payload, staged)
        if want_obs:
            for src in staged:
                shutil.copy2(src, obs_dir / src.name)
        settle(
            index,
            JobResult(
                job, payload, False, wall, [p.name for p in staged],
                attempts=attempts,
            ),
        )

    # One scheduler runs every sweep; only the executor differs.  With
    # ``jobs=1`` each job runs inline as it is submitted.  Otherwise
    # every miss, even a single one, runs on spawned workers: a timeout
    # always has a process to kill, and the simulator stays out of this
    # process.  ``n_workers`` is the pool size, set once pass 1 has
    # counted misses; it stays 0 when no job runs, and ``sweep.end``
    # reports it.
    pooled = jobs > 1
    n_workers = 0
    pool_kwargs: dict[str, Any] = {}
    if isolate:
        pool_kwargs["max_tasks_per_child"] = 1

    def make_pool():
        if not pooled:
            return _InlineExecutor()
        # Only a pool loads ``multiprocessing``: a ``jobs=1`` or a fully
        # cache-served sweep never pays for it.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        return ProcessPoolExecutor(
            max_workers=n_workers, mp_context=get_context("spawn"),
            **pool_kwargs,
        )

    def fill() -> Optional[BrokenExecutor]:
        """Submit ready jobs up to the in-flight limit, starting a pool
        when there is none; returns the error of a broken pool."""
        nonlocal pool
        while ready and len(in_flight) < max_in_flight:
            i, job, att = ready.popleft()
            emit(
                "job.submit", job=i, digest=job.digest,
                experiment=job.experiment, seed=job.seed, attempt=att,
            )
            if pool is None:
                pool = make_pool()
            try:
                fut = pool.submit(
                    _run_task,
                    (i, att, job.experiment, job.config, job.seed,
                     job.digest, staging_for(i), telemetry, pooled),
                )
            except BrokenExecutor as exc:
                ready.appendleft((i, job, att))
                return exc
            in_flight[fut] = (i, job, att, time.monotonic())
        return None

    def restart(reason: str) -> list[tuple[int, Job, int, float]]:
        """Kill the pool after a crash or a timeout and hand back the
        jobs it had in flight; the next submission starts a new pool."""
        nonlocal pool
        victims = list(in_flight.values())
        in_flight.clear()
        _terminate(pool)
        pool = None
        counters["pool_restarts"] += 1
        emit(
            "pool.restart", reason=reason,
            restarts=counters["pool_restarts"], n_requeued=len(victims),
        )
        return victims

    pool = staging_root = None
    try:
        if cache is not None:
            fleet_index = FleetIndex.at_cache_root(cache.root)
            indexed_ids = fleet_index.run_ids()

        # -- pass 1: cache lookups -------------------------------------
        for i, job in enumerate(job_list):
            hit = None if (cache is None or refresh) else cache.get(job.digest)
            if hit is not None:
                payload, meta = hit
                # An entry recorded without artifacts cannot serve an
                # observability-requesting sweep; re-run and upgrade it.
                if want_obs and not meta.get("artifacts"):
                    ready.append((i, job, 0))
                    continue
                artifacts = []
                if want_obs:
                    exported = cache.export_artifacts(job.digest, obs_dir)
                    artifacts = [p.name for p in exported]
                # A hit whose manifest is missing (deleted or older
                # index) is re-indexed from the cached artifacts.
                if indexed_ids is not None and job.digest not in indexed_ids:
                    paths = cache.artifact_paths(job.digest)
                    record_manifest(job, payload, paths)
                emit(
                    "cache.hit", job=i, digest=job.digest,
                    experiment=job.experiment, seed=job.seed,
                )
                settle(i, JobResult(job, payload, True, 0.0, artifacts))
            else:
                ready.append((i, job, 0))

        # -- pass 2: execute misses ------------------------------------
        if want_obs:
            staging_root = Path(tempfile.mkdtemp(prefix="repro-sweep-obs-"))
        n_workers = min(jobs, len(ready))
        # Under a degrade-gracefully policy, and with isolation,
        # submission is throttled to the worker count so "in flight"
        # means "actually running" and deadlines are honest.  Otherwise
        # workers are fed ahead: n running jobs plus the n + 1 slots of
        # the executor's call queue, so a worker finds its next job
        # queued while this process is still writing results.  (More
        # would only wait in this process, and a large fill would leave
        # its heap fragmented for the rest of the process.)
        max_in_flight = (
            2 * n_workers + 1 if pooled and propagate and not isolate
            else n_workers
        )
        # Crash respawns draw on ``policy.max_pool_restarts``; timeout
        # kills are policy-initiated and already bounded by the per-job
        # retry budgets, so they do not consume it.
        crash_restarts = 0
        while (ready or delayed or in_flight) and not aborted:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, i, job, att = heapq.heappop(delayed)
                ready.append((i, job, att))
            broken = fill()
            if broken is None and not in_flight:
                if delayed:
                    # Everything is backing off; sleep until the
                    # earliest release.
                    time.sleep(max(delayed[0][0] - time.monotonic(), 0.0))
                continue
            if broken is None:
                # Wake up for the earliest job deadline or the earliest
                # backoff release, whichever comes first.
                waits = []
                if policy.timeout_s is not None:
                    first = min(t0 for (_, _, _, t0) in in_flight.values())
                    waits.append(max(
                        first + policy.timeout_s - time.monotonic(), 0.0
                    ) + 0.01)
                if delayed:
                    waits.append(
                        max(delayed[0][0] - time.monotonic(), 0.0) + 0.01
                    )
                finished, _ = wait(
                    set(in_flight),
                    timeout=min(waits, default=None),
                    return_when=FIRST_COMPLETED,
                )
                landed: list[tuple[int, Job, dict, float, int]] = []
                for fut in finished:
                    index, job, att, _t0 = in_flight.pop(fut)
                    try:
                        payload, checksum, wall = fut.result()
                        if digests.payload_checksum(payload) != checksum:
                            raise ResultIntegrityError(
                                f"payload of {job.label} failed its "
                                f"integrity checksum between worker and parent"
                            )
                    except BrokenExecutor as exc:
                        # The worker died mid-job: the pool is toast and
                        # every sibling future breaks with it.  The
                        # broken job is charged a failure; siblings
                        # still in flight ride back for free.
                        broken = exc
                        crash = WorkerCrashError(
                            f"pool worker died while running {job.label}: "
                            f"{exc}"
                        )
                        crash.__cause__ = exc
                        fail(index, job, att, crash)
                    except Exception as exc:
                        fail(index, job, att, exc)
                    else:
                        landed.append((index, job, payload, wall, att))
                # Refill the freed worker slots before the cache writes
                # (fsync) and manifest appends below.  Inline, a refill
                # would run the next job before these results are
                # written, so only a pool refills early.
                if pooled and broken is None and not aborted:
                    broken = fill()
                for index, job, payload, wall, att in landed:
                    finish_run(index, job, payload, wall, attempts=att + 1)
            if broken is not None:
                crash_restarts += 1
                victims = restart("crash")
                if crash_restarts <= policy.max_pool_restarts:
                    for index, job, att, _t0 in victims:
                        requeue(index, job, att + 1, 0.0)
                else:
                    # Restart budget exhausted: quarantine the stranded
                    # jobs and stop rather than thrash.
                    aborted = True
                    crash = WorkerCrashError(
                        "worker pool kept crashing; restart budget "
                        f"({policy.max_pool_restarts}) exhausted"
                    )
                    crash.__cause__ = broken
                    stranded = victims + list(ready) + [d[1:] for d in delayed]
                    for index, job, att, *_ in stranded:
                        fail(index, job, att, crash)
            # -- per-job wall-clock deadlines --------------------------
            elif policy.timeout_s is not None and in_flight:
                now = time.monotonic()
                expired = {
                    index for fut, (index, _, _, t0) in in_flight.items()
                    if now - t0 >= policy.timeout_s and not fut.done()
                }
                if expired:
                    # Innocent in-flight jobs are re-enqueued at no cost
                    # to their retry budgets.
                    for index, job, att, t0 in restart("timeout"):
                        if index not in expired:
                            requeue(index, job, att + 1, 0.0)
                            continue
                        counters["timeouts"] += 1
                        emit(
                            "job.timeout", job=index, attempt=att,
                            elapsed_s=now - t0, timeout_s=policy.timeout_s,
                        )
                        fail(index, job, att, JobTimeoutError(
                            job.label, policy.timeout_s, now - t0
                        ))
    except BaseException:
        # A raising sweep (the legacy contract, Ctrl-C) still ends its
        # channel, so every follower stops at ``sweep.end``.
        aborted = True
        raise
    finally:
        if pool is not None:
            if in_flight or aborted:
                # Hung or cancelled workers must not outlive the sweep.
                _terminate(pool)
            else:
                pool.shutdown(wait=True)
        if staging_root is not None:
            shutil.rmtree(staging_root, ignore_errors=True)
        emit(
            "sweep.end",
            n_done=done,
            n_quarantined=len(quarantined),
            n_workers=n_workers,
            aborted=aborted,
            cache={
                k: v - cache_base.get(k, 0)
                for k, v in cache.counts().items()
            } if cache is not None else {},
        )

    report = SweepReport(
        [results[i] for i in sorted(results)],
        failures=[quarantined[i] for i in sorted(quarantined)],
        n_retries=counters["retries"],
        n_timeouts=counters["timeouts"],
        n_pool_restarts=counters["pool_restarts"],
        aborted=aborted,
    )
    if telemetry is not None:
        from repro.obs.telemetry import read_events, summarize, write_summary

        report.telemetry = summarize(read_events(telemetry))
        write_summary(telemetry, report.telemetry)
    return report


# ---------------------------------------------------------------------------
# CI smoke
# ---------------------------------------------------------------------------

#: The two cheapest experiments carry the CI smoke run.
SMOKE_EXPERIMENTS = ("pingpong", "checkpoint_resilience")
SMOKE_SEEDS = (0, 1)


def run_smoke(
    jobs: int = 2, cache_root=None, echo=print, telemetry_dir=None
) -> int:
    """Cold + warm smoke sweep; returns a process exit code.

    Runs 2 experiments x 2 seeds twice against one cache: the cold pass
    simulates everything, the warm pass must be served >= 95% from the
    cache with a bit-identical sweep digest and leave the run index as
    the cold pass wrote it.

    With *telemetry_dir* each pass streams a harness-telemetry channel
    (``cold.telemetry.jsonl`` / ``warm.telemetry.jsonl``) and the smoke
    additionally asserts the telemetry totals agree with what actually
    happened: every job accounted for on both passes, cold stores and
    warm cache hits matching the job count.  This is CI's proof that
    the telemetry layer measures the harness rather than inventing it.
    """
    spec = SweepSpec(experiments=list(SMOKE_EXPERIMENTS), seeds=list(SMOKE_SEEDS))
    owns_root = cache_root is None
    root = Path(cache_root) if cache_root else Path(tempfile.mkdtemp(prefix="repro-sweep-smoke-"))
    channels = {}
    if telemetry_dir is not None:
        telemetry_dir = Path(telemetry_dir)
        telemetry_dir.mkdir(parents=True, exist_ok=True)
        for phase in ("cold", "warm"):
            channels[phase] = telemetry_dir / f"{phase}.telemetry.jsonl"
            channels[phase].unlink(missing_ok=True)
    try:
        cache = ResultCache(root)
        t0 = time.perf_counter()
        cold = run_sweep(spec, jobs=jobs, cache=cache, telemetry=channels.get("cold"))
        t_cold = time.perf_counter() - t0
        index = FleetIndex.at_cache_root(root).path
        cold_bytes = index.stat().st_size
        t0 = time.perf_counter()
        warm = run_sweep(spec, jobs=jobs, cache=cache, telemetry=channels.get("warm"))
        t_warm = time.perf_counter() - t0
        n = len(warm.results)
        frac = warm.n_cached / n if n else 0.0
        echo(
            f"sweep smoke: cold {cold.n_ran}/{len(cold.results)} simulated "
            f"({t_cold:.2f}s), warm {warm.n_cached}/{n} from cache "
            f"({t_warm:.2f}s)"
        )
        if cold.digest() != warm.digest():
            echo("SMOKE FAILED: warm sweep digest differs from cold run")
            return 1
        if frac < 0.95:
            echo(
                f"SMOKE FAILED: warm pass only {frac:.0%} cache-served "
                f"(need >= 95%)"
            )
            return 1
        warm_bytes = index.stat().st_size
        if warm_bytes != cold_bytes:
            # Every warm job is already indexed: an append means the
            # index read under-reported its ids.
            echo(
                f"SMOKE FAILED: warm pass changed the run index "
                f"({cold_bytes} -> {warm_bytes} bytes)"
            )
            return 1
        if channels:
            failures = _check_smoke_telemetry(cold, warm, echo)
            if failures:
                for message in failures:
                    echo(f"SMOKE FAILED: {message}")
                return 1
        echo(f"sweep smoke passed (digest {cold.digest()[:16]}…)")
        return 0
    finally:
        if owns_root:
            shutil.rmtree(root, ignore_errors=True)


#: Pinned chaos schedule for the CI chaos smoke.  The code-version pin
#: freezes every job digest, and the digests freeze every fault draw —
#: so the smoke injects the *same* crashes/hangs/corruptions on every
#: machine and every commit, forever.
CHAOS_SMOKE_CODE_VERSION = "chaos-smoke-v1"
CHAOS_SMOKE_SPEC = "crash:0.3,hang:0.2,corrupt:0.3"
CHAOS_SMOKE_SALT = "ci"
# A pool crash fails every in-flight future, so each collateral victim
# burns a retry too — the budget must absorb ~n_workers times the
# actual fault count.
CHAOS_SMOKE_POLICY = dict(
    timeout_s=5.0,
    max_retries=20,
    backoff_base_s=0.02,
    backoff_max_s=0.2,
    max_pool_restarts=64,
)


def run_chaos_smoke(jobs: int = 4, echo=print) -> int:
    """Chaos parity smoke; returns a process exit code.

    Runs the smoke spec twice under one failure policy — once clean,
    once with ``REPRO_CHAOS`` injecting worker crashes, hangs and
    corrupted payloads — and asserts the sweep *converges*: every job
    retries to completion, nothing is quarantined, and the chaos-ridden
    report digest is bit-identical to the clean one.  The clean pass
    must also report zero retries/timeouts/restarts, proving the policy
    layer is inert when nothing fails.
    """
    spec = SweepSpec(experiments=list(SMOKE_EXPERIMENTS), seeds=list(SMOKE_SEEDS))
    policy = FailurePolicy(**CHAOS_SMOKE_POLICY)
    saved = {
        key: os.environ.get(key)
        for key in (
            digests.CODE_VERSION_ENV, CHAOS_ENV, CHAOS_HANG_ENV,
            CHAOS_SALT_ENV,
        )
    }
    try:
        os.environ[digests.CODE_VERSION_ENV] = CHAOS_SMOKE_CODE_VERSION
        os.environ.pop(CHAOS_ENV, None)
        clean = run_sweep(spec, jobs=jobs, policy=policy)
        if not clean.ok or clean.n_retries or clean.n_timeouts \
                or clean.n_pool_restarts:
            echo(
                "CHAOS SMOKE FAILED: clean run was not clean "
                f"(retries {clean.n_retries}, timeouts {clean.n_timeouts}, "
                f"restarts {clean.n_pool_restarts}, "
                f"quarantined {len(clean.failures)})"
            )
            return 1
        os.environ[CHAOS_ENV] = CHAOS_SMOKE_SPEC
        os.environ[CHAOS_HANG_ENV] = "60"
        os.environ[CHAOS_SALT_ENV] = CHAOS_SMOKE_SALT
        t0 = time.perf_counter()
        chaotic = run_sweep(spec, jobs=jobs, policy=policy)
        t_chaos = time.perf_counter() - t0
        echo(
            f"chaos sweep: {len(chaotic.results)}/{len(clean.results)} jobs "
            f"converged in {t_chaos:.1f}s — {chaotic.n_retries} retries, "
            f"{chaotic.n_timeouts} timeouts, "
            f"{chaotic.n_pool_restarts} pool restarts"
        )
        if chaotic.failures:
            for f in chaotic.failures:
                echo(
                    f"CHAOS SMOKE FAILED: {f.label} quarantined after "
                    f"{f.attempts} attempts ({f.error_class}: {f.message})"
                )
            return 1
        if len(chaotic.results) != len(clean.results):
            echo("CHAOS SMOKE FAILED: chaos run settled fewer jobs")
            return 1
        if chaotic.digest() != clean.digest():
            echo(
                "CHAOS SMOKE FAILED: chaos-ridden sweep digest differs "
                f"from the clean run ({chaotic.digest()[:16]} != "
                f"{clean.digest()[:16]})"
            )
            return 1
        if not (chaotic.n_retries or chaotic.n_timeouts or chaotic.n_pool_restarts):
            # A chaos run that injected nothing proves nothing.
            echo("CHAOS SMOKE FAILED: chaos plane injected no faults")
            return 1
        echo(
            f"chaos smoke passed: digest parity under injected faults "
            f"({clean.digest()[:16]}…)"
        )
        return 0
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _check_smoke_telemetry(
    cold: SweepReport, warm: SweepReport, echo=print
) -> list[str]:
    """Telemetry-vs-reality mismatches of a smoke run (empty = ok)."""
    failures: list[str] = []

    def expect(phase: str, what: str, got, want) -> None:
        if got != want:
            failures.append(
                f"{phase} telemetry {what} = {got!r}, expected {want!r}"
            )

    for phase, report in (("cold", cold), ("warm", warm)):
        summary = report.telemetry
        if summary is None:
            failures.append(f"{phase} pass carried no telemetry summary")
            continue
        n = len(report.results)
        expect(phase, "n_jobs", summary.get("n_jobs"), n)
        expect(phase, "n_completed", summary.get("n_completed"), n)
        expect(phase, "n_cached", summary.get("n_cached"), report.n_cached)
        expect(phase, "n_ran", summary.get("n_ran"), report.n_ran)
        cache_counts = summary.get("cache") or {}
        if phase == "cold":
            expect(phase, "cache.stores", cache_counts.get("stores"), n)
        else:
            expect(phase, "cache.hits", cache_counts.get("hits"), n)
    if not failures:
        cold_cache = (cold.telemetry or {}).get("cache", {})
        echo(
            "sweep smoke telemetry ok: "
            f"cold ran {cold.telemetry['n_ran']}/{cold.telemetry['n_jobs']} "
            f"(stores {cold_cache.get('stores')}, "
            f"{cold_cache.get('bytes_promoted', 0)} bytes promoted), "
            f"warm cache hit rate "
            f"{(warm.telemetry.get('cache') or {}).get('hit_rate'):.0%}"
        )
    return failures
