"""Harness telemetry: wall-clock observability for the sweep layer.

Everything under ``repro.obs`` so far measures **simulated** time —
spans, blame and counters all live on the simulator's clock.  The
orchestration layer that actually serves users (`repro.sweep.engine`)
runs on the *other* clock: wall seconds spent queueing, scheduling,
simulating and promoting results into the cache.  This module is the
observability layer for that harness.

The channel is a per-sweep JSONL file (the **telemetry channel**):
workers and the parent append single-line JSON records via
:func:`repro.fsutil.append_line` (one ``O_APPEND`` write per record, no
fsync), and the parent — or a later ``python -m repro obs top`` — tails
it with a torn-line-tolerant reader.  Record kinds::

    sweep.start    {t, n_jobs, n_workers, experiments}
    job.submit     {t, job, digest, experiment, seed, attempt}   (parent)
    job.start      {t, job, worker, attempt}               (worker)
    job.end        {t, job, worker, wall_s}                (worker)
    job.retry      {t, job, failures, delay_s, error}      (parent)
    job.timeout    {t, job, attempt, elapsed_s, timeout_s} (parent)
    job.quarantine {t, job, error, attempts, timed_out, experiment, seed}
    pool.restart   {t, reason, restarts, n_requeued}       (parent)
    cache.hit      {t, job, digest, experiment, seed}      (parent)
    cache.promote  {t, job, digest, bytes, n_artifacts}    (parent)
    sweep.end      {t, n_done, n_quarantined, aborted,
                    cache {hits,misses,corrupt,stores,bytes_promoted}}

The failure records (``job.retry`` / ``job.timeout`` /
``job.quarantine`` / ``pool.restart``) come from the engine's
:class:`~repro.sweep.policy.FailurePolicy` layer: a retried job goes
back to queued (its next ``job.submit``/``job.start`` carries a higher
attempt), a quarantined job leaves the fleet for good.  An attempt
still open at ``sweep.end`` raised out of the sweep; it goes back to
queued the same way.

Every record carries ``schema`` and an epoch-seconds ``t`` so events
from different processes order on one axis.  **Telemetry is strictly
harness-side**: nothing here touches the simulator, so simulated
results, metrics and blame digests are bit-identical with telemetry on
or off (enforced by ``scripts/check_determinism.py`` and the engine
tests).

On top of the channel:

* :class:`FleetState` / :func:`snapshot` — live view (completed /
  running / queued, per-worker current job + elapsed, cache hit rate,
  EWMA-based ETA) rendered by :func:`render_top`;
* :func:`stragglers` — jobs exceeding ``k``·median wall time of their
  completed peers, flagged with experiment + config digest;
* :func:`summarize` — the ``telemetry.json`` totals merged into
  :class:`~repro.sweep.engine.SweepReport` and recorded next to the
  fleet run index;
* :func:`fleet_chrome_trace` — a Chrome/Perfetto export of the fleet
  execution itself: one lane per worker, job spans coloured by
  cache-hit vs computed (cache hits get their own lane group via
  :func:`repro.obs.export.assign_lanes`).
"""

from __future__ import annotations

import io
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional

from repro.fsutil import append_line, json_lines, read_json_lines
from repro.obs.metrics import Ewma

#: Telemetry record format version.
TELEMETRY_SCHEMA = 1

#: Straggler threshold: a job is flagged once its wall (or elapsed)
#: time exceeds this multiple of the median completed-peer wall time.
STRAGGLER_FACTOR = 3.0

#: Minimum completed peers before straggler detection engages (a
#: median of one job is no baseline).
STRAGGLER_MIN_PEERS = 3


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class TelemetryWriter:
    """Appends telemetry records to the channel file.

    Safe to instantiate independently in every process (parent and
    workers): each :meth:`emit` is one ``O_APPEND`` write, so records
    from concurrent writers never interleave within a line.  No file
    handle is kept open — a writer is just a path plus a clock.
    """

    def __init__(self, path, clock=None) -> None:
        self.path = Path(path)
        self._clock = clock or time.time

    def emit(self, kind: str, **fields: Any) -> None:
        record = {"schema": TELEMETRY_SCHEMA, "kind": kind,
                  "t": self._clock(), **fields}
        append_line(self.path, json.dumps(record, sort_keys=True), sync=False)


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


def _events(docs: Iterable[dict]) -> list[dict]:
    return [doc for doc in docs if "kind" in doc and "t" in doc]


def read_events(path) -> list[dict]:
    """All complete telemetry records of a channel file, in file order.

    Torn lines (a writer crashed mid-record) and foreign lines are
    skipped, never fatal — the channel is advisory by design.
    """
    return _events(read_json_lines(path))


class TelemetryTail:
    """Incremental reader: what a follower of the channel polls.

    :meth:`poll` returns the records appended since the last call,
    consuming only up to the last complete (newline-terminated) line —
    a worker's half-written tail is left for the next poll.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._offset = 0

    def poll(self) -> list[dict]:
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
        except OSError:
            return []
        self._offset += chunk.rfind(b"\n") + 1
        return _events(json_lines(io.BytesIO(chunk)))


# ---------------------------------------------------------------------------
# State reconstruction
# ---------------------------------------------------------------------------


@dataclass
class JobTelemetry:
    """Wall-clock life of one job, folded from its channel records."""

    index: int
    experiment: str = ""
    seed: Optional[int] = None
    digest: str = ""
    worker: Optional[int] = None
    t_submit: Optional[float] = None
    t_start: Optional[float] = None
    t_end: Optional[float] = None
    wall_s: Optional[float] = None
    cached: bool = False
    promoted_bytes: int = 0
    #: Failed attempts so far (folded from ``job.retry`` records).
    failures: int = 0
    #: Attempts killed on the wall-clock budget.
    timeouts: int = 0
    #: Terminal: the job exhausted its retry budget and left the fleet.
    quarantined: bool = False

    @property
    def queue_wait_s(self) -> Optional[float]:
        if self.t_submit is None or self.t_start is None:
            return None
        return max(self.t_start - self.t_submit, 0.0)

    @property
    def label(self) -> str:
        seed = "?" if self.seed is None else self.seed
        return f"{self.experiment or f'job{self.index}'} seed={seed}"


class FleetState:
    """Folds channel records into the live state of one (or more)
    sweeps — completed / running / queued jobs, per-worker occupancy,
    cache counters and an EWMA of completed wall times."""

    def __init__(self, ewma_alpha: float = 0.3) -> None:
        self.jobs: dict[int, JobTelemetry] = {}
        self.t_sweep_start: Optional[float] = None
        self.t_sweep_end: Optional[float] = None
        self.n_jobs_announced = 0
        self.n_workers = 0
        self.experiments: list[str] = []
        self.cache_counts: dict[str, int] = {}
        self.ewma = Ewma(ewma_alpha)
        self.t_last = 0.0
        self.n_retries = 0
        self.n_timeouts = 0
        self.n_pool_restarts = 0
        self.aborted = False

    # -- folding ---------------------------------------------------------
    def apply(self, event: Mapping[str, Any]) -> None:
        kind = event.get("kind")
        t = float(event.get("t", 0.0))
        self.t_last = max(self.t_last, t)
        if kind == "sweep.start":
            # A channel may carry several sweeps (cold + warm smoke);
            # totals accumulate, the start time is the earliest.
            if self.t_sweep_start is None:
                self.t_sweep_start = t
            self.t_sweep_end = None
            self.n_jobs_announced += int(event.get("n_jobs", 0))
            self.n_workers = max(self.n_workers, int(event.get("n_workers", 1)))
            for name in event.get("experiments") or []:
                if name not in self.experiments:
                    self.experiments.append(name)
            return
        if kind == "sweep.end":
            self.t_sweep_end = t
            self.aborted = self.aborted or bool(event.get("aborted"))
            for key, value in (event.get("cache") or {}).items():
                self.cache_counts[key] = int(value)
            # An attempt still open raised out of the sweep: no job.end,
            # job.retry or job.quarantine closes it.  It leaves its
            # worker as a retried attempt does.
            for job in self.running():
                job.t_start = None
                job.worker = None
            return
        if kind == "pool.restart":
            self.n_pool_restarts += 1
            return
        index = event.get("job")
        if index is None:
            return
        job = self.jobs.setdefault(int(index), JobTelemetry(int(index)))
        if kind == "job.submit":
            job.t_submit = t
            job.experiment = str(event.get("experiment", job.experiment))
            job.seed = event.get("seed", job.seed)
            job.digest = str(event.get("digest", job.digest))
        elif kind == "job.start":
            job.t_start = t
            job.worker = event.get("worker")
        elif kind == "job.end":
            job.t_end = t
            job.worker = event.get("worker", job.worker)
            job.wall_s = float(event.get("wall_s", t - (job.t_start or t)))
            self.ewma.update(job.wall_s)
        elif kind == "job.retry":
            # The job leaves its worker and goes back to queued; its
            # next job.submit/job.start restart the wall clock.
            self.n_retries += 1
            job.failures = int(event.get("failures", job.failures + 1))
            job.t_start = None
            job.t_end = None
            job.worker = None
        elif kind == "job.timeout":
            self.n_timeouts += 1
            job.timeouts += 1
        elif kind == "job.quarantine":
            job.quarantined = True
            job.experiment = str(event.get("experiment", job.experiment))
            job.seed = event.get("seed", job.seed)
            job.failures = max(job.failures, int(event.get("attempts", 0)))
        elif kind == "cache.hit":
            job.cached = True
            job.t_submit = job.t_submit if job.t_submit is not None else t
            job.t_start = t
            job.t_end = t
            job.wall_s = 0.0
            job.experiment = str(event.get("experiment", job.experiment))
            job.seed = event.get("seed", job.seed)
            job.digest = str(event.get("digest", job.digest))
        elif kind == "cache.promote":
            job.promoted_bytes += int(event.get("bytes", 0))

    def apply_all(self, events: Iterable[Mapping[str, Any]]) -> "FleetState":
        for ev in events:
            self.apply(ev)
        return self

    # -- derived views ----------------------------------------------------
    def completed(self) -> list[JobTelemetry]:
        return [j for j in self.jobs.values() if j.t_end is not None]

    def running(self) -> list[JobTelemetry]:
        return [
            j for j in self.jobs.values()
            if j.t_start is not None and j.t_end is None and not j.quarantined
        ]

    def queued(self) -> list[JobTelemetry]:
        return [
            j for j in self.jobs.values()
            if j.t_start is None and not j.quarantined
        ]

    def quarantined(self) -> list[JobTelemetry]:
        return [j for j in self.jobs.values() if j.quarantined]

    @property
    def n_total(self) -> int:
        return max(self.n_jobs_announced, len(self.jobs))

    def cache_hit_rate(self) -> Optional[float]:
        hits = self.cache_counts.get("hits")
        misses = self.cache_counts.get("misses")
        if hits is None or misses is None:
            # Mid-sweep (no sweep.end yet): derive from job records.
            done = self.completed()
            if not done:
                return None
            return sum(1 for j in done if j.cached) / len(done)
        total = hits + misses
        return hits / total if total else None

    def eta_s(self, now: Optional[float] = None) -> Optional[float]:
        """EWMA-based remaining wall seconds (None before any sample).

        Remaining jobs each cost the EWMA of completed wall times,
        spread over the worker pool; running jobs count only their
        unspent remainder.
        """
        per_job = self.ewma.value
        if per_job is None:
            return None
        now = self.t_last if now is None else now
        remaining = per_job * len(self.queued())
        for j in self.running():
            elapsed = max(now - (j.t_start or now), 0.0)
            remaining += max(per_job - elapsed, 0.0)
        workers = max(self.n_workers, 1)
        return remaining / workers

    def workers(self, now: Optional[float] = None) -> list[dict]:
        """One row per worker seen on the channel: current job (or
        last finished) and elapsed seconds on it."""
        now = self.t_last if now is None else now
        by_worker: dict[int, dict] = {}
        for j in sorted(self.jobs.values(), key=lambda j: j.t_start or 0.0):
            if j.worker is None or j.t_start is None or j.quarantined:
                continue
            running = j.t_end is None
            by_worker[j.worker] = {
                "worker": j.worker,
                "job": j.label,
                "state": "running" if running else "idle",
                "elapsed_s": max((now if running else j.t_end) - j.t_start, 0.0),
                "n_done": by_worker.get(j.worker, {}).get("n_done", 0)
                + (0 if running else 1),
            }
        return [by_worker[w] for w in sorted(by_worker)]

    def utilization(self) -> Optional[float]:
        """Fraction of the worker-pool wall budget spent inside jobs."""
        done = self.completed()
        start, end = self.t_sweep_start, self.t_sweep_end or self.t_last
        if not done or start is None or end is None or end <= start:
            return None
        busy = sum(j.wall_s or 0.0 for j in done)
        for j in self.running():
            busy += max(self.t_last - (j.t_start or self.t_last), 0.0)
        return min(busy / (max(self.n_workers, 1) * (end - start)), 1.0)


def stragglers(
    state: FleetState,
    k: float = STRAGGLER_FACTOR,
    min_peers: int = STRAGGLER_MIN_PEERS,
    now: Optional[float] = None,
) -> list[dict]:
    """Jobs whose wall time exceeds ``k``·median of completed peers.

    Covers both finished outliers and still-running jobs (their elapsed
    time so far).  Each flag carries the experiment and the job digest
    so the offending config is directly addressable.  Cache hits are
    excluded from the peer median — a 0-second hit is not a peer of a
    simulated run.
    """
    walls = sorted(
        j.wall_s for j in state.completed()
        if not j.cached and j.wall_s is not None
    )
    if len(walls) < min_peers:
        return []
    mid = len(walls) // 2
    median = (
        walls[mid] if len(walls) % 2 else (walls[mid - 1] + walls[mid]) / 2.0
    )
    threshold = k * median
    if threshold <= 0.0:
        return []
    now = state.t_last if now is None else now
    flagged = []
    for j in sorted(state.jobs.values(), key=lambda j: j.index):
        if j.cached or j.t_start is None or j.quarantined:
            continue
        wall = j.wall_s if j.t_end is not None else max(now - j.t_start, 0.0)
        if wall is not None and wall > threshold:
            flagged.append({
                "job": j.index,
                "experiment": j.experiment,
                "seed": j.seed,
                "digest": j.digest,
                "state": "done" if j.t_end is not None else "running",
                "wall_s": wall,
                "median_s": median,
                "factor": wall / median,
            })
    return flagged


def snapshot(state: FleetState, now: Optional[float] = None) -> dict:
    """Plain-data live view of *state* (the ``obs top --json`` doc)."""
    now = state.t_last if now is None else now
    done = state.completed()
    return {
        "schema": TELEMETRY_SCHEMA,
        "n_total": state.n_total,
        "n_completed": len(done),
        "n_running": len(state.running()),
        "n_queued": max(state.n_total - len(state.jobs), 0)
        + len(state.queued()),
        "n_cached": sum(1 for j in done if j.cached),
        "cache_hit_rate": state.cache_hit_rate(),
        "cache": dict(state.cache_counts),
        "eta_s": state.eta_s(now),
        "elapsed_s": (
            now - state.t_sweep_start
            if state.t_sweep_start is not None else None
        ),
        "finished": state.t_sweep_end is not None,
        "utilization": state.utilization(),
        "workers": state.workers(now),
        "stragglers": stragglers(state, now=now),
        "experiments": list(state.experiments),
        "failures": _failure_counts(state),
    }


def _failure_counts(state: FleetState) -> dict:
    """The failure-policy block of snapshots and summaries."""
    return {
        "retries": state.n_retries,
        "timeouts": state.n_timeouts,
        "pool_restarts": state.n_pool_restarts,
        "quarantined": len(state.quarantined()),
        "aborted": state.aborted,
    }


# ---------------------------------------------------------------------------
# Summary (telemetry.json)
# ---------------------------------------------------------------------------


def _stats(values: list[float]) -> Optional[dict]:
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    median = (
        ordered[mid] if len(ordered) % 2
        else (ordered[mid - 1] + ordered[mid]) / 2.0
    )
    return {
        "n": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "median": median,
        "min": ordered[0],
        "max": ordered[-1],
        "total": sum(ordered),
    }


def summarize(events: Iterable[Mapping[str, Any]]) -> dict:
    """Fold a whole channel into the ``telemetry.json`` totals.

    This is the document merged into ``SweepReport.as_dict()`` and
    recorded next to the fleet run index — per-job wall seconds,
    queue-wait, worker utilization, cache efficiency and stragglers.
    """
    state = FleetState().apply_all(events)
    done = state.completed()
    simulated = [j for j in done if not j.cached]
    return {
        "schema": TELEMETRY_SCHEMA,
        "n_jobs": state.n_total,
        "n_completed": len(done),
        "n_cached": sum(1 for j in done if j.cached),
        "n_ran": len(simulated),
        "n_workers": state.n_workers,
        "experiments": list(state.experiments),
        "harness_wall_s": (
            (state.t_sweep_end or state.t_last) - state.t_sweep_start
            if state.t_sweep_start is not None else None
        ),
        "job_wall": _stats([j.wall_s for j in simulated if j.wall_s is not None]),
        "queue_wait": _stats(
            [j.queue_wait_s for j in simulated if j.queue_wait_s is not None]
        ),
        "utilization": state.utilization(),
        "cache": {
            "hit_rate": state.cache_hit_rate(),
            **{k: state.cache_counts.get(k, 0)
               for k in ("hits", "misses", "corrupt", "stores",
                         "bytes_promoted")},
        },
        "stragglers": stragglers(state),
        "failures": _failure_counts(state),
    }


# ---------------------------------------------------------------------------
# Chrome/Perfetto export of the fleet execution
# ---------------------------------------------------------------------------


def fleet_chrome_trace(events: Iterable[Mapping[str, Any]]) -> dict:
    """Chrome trace of the harness itself: one lane per worker.

    Process group 1 holds the workers (one ``tid`` lane each, jobs as
    complete ``X`` spans); cache hits are instantaneous on real lanes,
    so they get process group 2 with greedy lane assignment (reusing
    :func:`repro.obs.export.assign_lanes`) and a tiny nominal width.
    Computed spans carry no colour override; cache hits are forced
    ``good`` (green) so hit/miss structure is visible at a glance.
    Timestamps are wall-clock microseconds relative to sweep start.
    """
    from repro.obs.export import assign_lanes, chrome_process_meta

    state = FleetState().apply_all(events)
    t0 = state.t_sweep_start if state.t_sweep_start is not None else 0.0
    trace_events: list[dict] = [
        chrome_process_meta(1, "sweep workers"),
        chrome_process_meta(2, "cache hits"),
    ]
    worker_lane = {
        row["worker"]: lane
        for lane, row in enumerate(state.workers())
    }
    for j in sorted(state.jobs.values(), key=lambda j: (j.t_start or 0.0, j.index)):
        if j.cached or j.t_start is None:
            continue
        end = j.t_end if j.t_end is not None else state.t_last
        args = {"job": j.index, "digest": j.digest, "seed": j.seed}
        if j.queue_wait_s is not None:
            args["queue_wait_s"] = j.queue_wait_s
        if j.promoted_bytes:
            args["promoted_bytes"] = j.promoted_bytes
        trace_events.append({
            "name": j.label,
            "cat": "computed",
            "ph": "X",
            "ts": (j.t_start - t0) * 1e6,
            "dur": max(end - j.t_start, 0.0) * 1e6,
            "pid": 1,
            "tid": worker_lane.get(j.worker, 0),
            "args": args,
        })
    hits = sorted(
        (j for j in state.jobs.values() if j.cached and j.t_start is not None),
        key=lambda j: (j.t_start, j.index),
    )
    #: Nominal width of a cache-hit span — hits are instantaneous.
    hit_width = 1e-4
    lanes = assign_lanes([(j.t_start, j.t_start + hit_width) for j in hits])
    for j, lane in zip(hits, lanes):
        trace_events.append({
            "name": j.label,
            "cat": "cache-hit",
            "ph": "X",
            "ts": (j.t_start - t0) * 1e6,
            "dur": hit_width * 1e6,
            "pid": 2,
            "tid": lane,
            "cname": "good",
            "args": {"job": j.index, "digest": j.digest, "seed": j.seed},
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_fleet_chrome_trace(path, events: Iterable[Mapping[str, Any]]) -> None:
    """Write :func:`fleet_chrome_trace` as JSON (atomic, parents made)."""
    from repro.fsutil import atomic_open

    with atomic_open(path) as fh:
        json.dump(fleet_chrome_trace(events), fh)


# ---------------------------------------------------------------------------
# Rendering (obs top / sweep --progress)
# ---------------------------------------------------------------------------


def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(seconds, 60.0)
    return f"{int(minutes)}m{secs:02.0f}s"


def render_top(snap: Mapping[str, Any]) -> str:
    """Human view of one :func:`snapshot` — the ``obs top`` screen."""
    total = snap["n_total"]
    done = snap["n_completed"]
    bar_w = 30
    filled = int(bar_w * done / total) if total else bar_w
    hit_rate = snap.get("cache_hit_rate")
    util = snap.get("utilization")
    lines = [
        f"sweep {'done' if snap.get('finished') else 'running'}: "
        f"[{'#' * filled}{'.' * (bar_w - filled)}] "
        f"{done}/{total} jobs  "
        f"({snap['n_running']} running, {snap['n_queued']} queued, "
        f"{snap['n_cached']} cache-served)",
        f"elapsed {_fmt_duration(snap.get('elapsed_s'))}  "
        f"eta {_fmt_duration(snap.get('eta_s'))}  "
        f"cache hit rate "
        f"{'-' if hit_rate is None else f'{hit_rate:.0%}'}  "
        f"worker utilization "
        f"{'-' if util is None else f'{util:.0%}'}",
    ]
    failures = snap.get("failures") or {}
    if any(failures.get(k) for k in ("retries", "timeouts", "pool_restarts",
                                     "quarantined", "aborted")):
        lines.append(
            f"failures: {failures.get('retries', 0)} retries, "
            f"{failures.get('timeouts', 0)} timeouts, "
            f"{failures.get('pool_restarts', 0)} pool restarts, "
            f"{failures.get('quarantined', 0)} quarantined"
            + ("  [ABORTED]" if failures.get("aborted") else "")
        )
    workers = snap.get("workers") or []
    if workers:
        lines.append("workers:")
        for row in workers:
            lines.append(
                f"  w{row['worker']:<8} {row['state']:<8} "
                f"{row['job']:<40} {_fmt_duration(row['elapsed_s']):>8} "
                f"({row['n_done']} done)"
            )
    flagged = snap.get("stragglers") or []
    for s in flagged:
        lines.append(
            f"  STRAGGLER job {s['job']} {s['experiment']} seed={s['seed']} "
            f"({s['state']}): {s['wall_s']:.2f}s = {s['factor']:.1f}x median "
            f"{s['median_s']:.2f}s  digest {str(s['digest'])[:12]}"
        )
    return "\n".join(lines)


class LiveProgress:
    """The ``sweep --progress`` and ``obs top --follow`` view: follow a
    channel, redraw the top.

    :meth:`follow` polls every *interval* seconds (by default 0.2 s on
    a TTY, else 2 s) and renders, until a frame holds ``sweep.end`` or
    :meth:`close` is called, which renders one final frame;
    :meth:`start` runs it on a daemon thread.  On a TTY each frame
    redraws the last (ANSI cursor-up); elsewhere frames follow each
    other, so logs stay readable.
    """

    def __init__(self, path, out=None, interval: Optional[float] = None) -> None:
        self.tail = TelemetryTail(path)
        self.state = FleetState()
        self.out = out if out is not None else sys.stderr
        self._tty = bool(getattr(self.out, "isatty", lambda: False)())
        if interval is None:
            interval = 0.2 if self._tty else 2.0
        self.interval = interval
        self._last_height = 0
        self._closing = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def poll(self) -> dict:
        """Fold the new records; returns the :func:`snapshot` so far."""
        for event in self.tail.poll():
            self.state.apply(event)
        return snapshot(self.state)

    def render(self, snap: Mapping[str, Any]) -> None:
        text = render_top(snap)
        if self._tty and self._last_height:
            # Redraw over the previous block.
            self.out.write(f"\x1b[{self._last_height}F\x1b[J")
        self.out.write(text + "\n")
        self.out.flush()
        self._last_height = text.count("\n") + 1

    def follow(self) -> None:
        while True:
            closing = self._closing.is_set()
            snap = self.poll()
            # Nothing to show before the sweep announces its jobs.
            if closing or self.state.n_total:
                self.render(snap)
            if closing or self.state.t_sweep_end is not None:
                return
            self._closing.wait(self.interval)

    def start(self) -> "LiveProgress":
        self._thread = threading.Thread(target=self.follow, daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        self._closing.set()
        if self._thread is not None:
            self._thread.join()


# ---------------------------------------------------------------------------
# Summary persistence
# ---------------------------------------------------------------------------


def summary_path_for(channel_path) -> Path:
    """``telemetry.jsonl`` -> ``telemetry.json`` (sibling summary)."""
    p = Path(channel_path)
    if p.suffix == ".jsonl":
        return p.with_suffix(".json")
    return p.parent / (p.name + ".summary.json")


def write_summary(channel_path, summary: Optional[dict] = None) -> Path:
    """Summarise a channel file to its sibling ``telemetry.json``."""
    from repro.fsutil import atomic_write_json

    if summary is None:
        summary = summarize(read_events(channel_path))
    out = summary_path_for(channel_path)
    atomic_write_json(out, summary)
    return out
