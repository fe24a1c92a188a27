"""Engine semantics: expansion, caching, refresh, obs artifacts, and
where a pooled sweep runs its jobs."""

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.sweep import (
    PROPAGATE,
    FailurePolicy,
    ResultCache,
    SweepSpec,
    run_sweep,
)

SPEC = SweepSpec(
    experiments=["pingpong", "checkpoint_resilience"],
    seeds=[0, 1],
    overrides={
        "pingpong": {"rounds": 1, "sizes_kib": [1], "n_pairs": 1},
        "checkpoint_resilience": {"work_s": 200.0, "mtbf_s": 120.0},
    },
)


def test_resolve_expands_experiment_major():
    jobs = SPEC.resolve()
    assert [(j.experiment, j.seed) for j in jobs] == [
        ("pingpong", 0), ("pingpong", 1),
        ("checkpoint_resilience", 0), ("checkpoint_resilience", 1),
    ]
    assert len({j.digest for j in jobs}) == 4
    assert jobs[0].config["rounds"] == 1


def test_star_overrides_apply_where_field_exists():
    spec = SweepSpec(
        experiments=["pingpong", "checkpoint_resilience"],
        seeds=[0],
        overrides={"*": {"rounds": 9, "work_s": 50.0}},
    )
    jobs = spec.resolve()
    assert jobs[0].config["rounds"] == 9
    assert "rounds" not in jobs[1].config
    assert jobs[1].config["work_s"] == 50.0


def test_bad_jobs_count_rejected():
    with pytest.raises(ConfigurationError):
        run_sweep(SPEC, jobs=0)


def test_cold_then_warm_bit_identical(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cold = run_sweep(SPEC, jobs=1, cache=cache)
    assert cold.n_ran == 4 and cold.n_cached == 0
    warm = run_sweep(SPEC, jobs=1, cache=cache)
    assert warm.n_cached == 4 and warm.n_ran == 0
    # The acceptance bar: a cache hit returns bit-identical payloads.
    for a, b in zip(cold.results, warm.results):
        assert a.payload == b.payload
        assert a.job.digest == b.job.digest
    assert cold.digest() == warm.digest()


def test_refresh_overwrites_instead_of_hitting(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    run_sweep(SPEC, jobs=1, cache=cache)
    again = run_sweep(SPEC, jobs=1, cache=cache, refresh=True)
    assert again.n_cached == 0 and again.n_ran == 4


def test_progress_callback_sees_every_job(tmp_path):
    seen = []
    run_sweep(SPEC, jobs=1, progress=lambda d, n, r: seen.append((d, n, r.job.label)))
    assert len(seen) == 4
    assert seen[-1][0] == 4 and all(n == 4 for _, n, _ in seen)


def test_obs_exports_flow_through_the_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cold_dir = tmp_path / "obs_cold"
    warm_dir = tmp_path / "obs_warm"
    spec = SweepSpec(
        experiments=["checkpoint_resilience"], seeds=[0],
        overrides=SPEC.overrides,
    )
    cold = run_sweep(spec, jobs=1, cache=cache, obs_dir=cold_dir)
    assert cold.n_ran == 1
    blame = cold_dir / "checkpoint_resilience_seed0.blame.json"
    assert blame.exists()
    # Warm pass: artifacts come back out of the cache, bit-identical.
    warm = run_sweep(spec, jobs=1, cache=cache, obs_dir=warm_dir)
    assert warm.n_cached == 1
    warm_blame = warm_dir / "checkpoint_resilience_seed0.blame.json"
    assert warm_blame.read_bytes() == blame.read_bytes()
    assert warm.results[0].payload == cold.results[0].payload


def test_entry_without_artifacts_upgrades_when_obs_requested(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = SweepSpec(
        experiments=["checkpoint_resilience"], seeds=[0],
        overrides=SPEC.overrides,
    )
    plain = run_sweep(spec, jobs=1, cache=cache)  # no obs -> no artifacts
    obs_dir = tmp_path / "obs"
    upgraded = run_sweep(spec, jobs=1, cache=cache, obs_dir=obs_dir)
    assert upgraded.n_ran == 1  # re-ran to capture artifacts
    assert upgraded.results[0].payload == plain.results[0].payload
    assert (obs_dir / "checkpoint_resilience_seed0.metrics.json").exists()


def test_experiment_gets_its_staging_dir_and_the_callers_environment(
    tmp_path, monkeypatch
):
    from repro.sweep.experiments import EXPERIMENTS, Experiment

    seen = []

    def probe(config, seed, obs_dir=None):
        seen.append((
            obs_dir,
            os.environ.get("REPRO_OBS_DIR"),
            os.environ.get("REPRO_FLEET_INDEX"),
        ))
        if obs_dir is not None:
            (Path(obs_dir) / f"probe_seed{seed}.txt").write_text(str(seed))
        return {"seed": seed}

    monkeypatch.setitem(
        EXPERIMENTS, "probe",
        Experiment("probe", "records its inputs", "seed", probe, {}),
    )
    monkeypatch.setenv("REPRO_OBS_DIR", "obs-dir-of-the-caller")
    monkeypatch.setenv("REPRO_FLEET_INDEX", "index-of-the-caller")
    obs = tmp_path / "obs"
    run_sweep(SweepSpec(experiments=["probe"], seeds=[0, 1]), jobs=1, obs_dir=obs)
    run_sweep(SweepSpec(experiments=["probe"], seeds=[2]), jobs=1)

    staged = [Path(d) for d, _, _ in seen[:2]]
    assert [d.name for d in staged] == ["job0", "job1"]
    assert staged[0].parent != obs
    assert seen[2][0] is None
    assert {(obs_env, index_env) for _, obs_env, index_env in seen} == {
        ("obs-dir-of-the-caller", "index-of-the-caller")
    }
    assert sorted(p.name for p in obs.iterdir()) == [
        "probe_seed0.txt", "probe_seed1.txt"
    ]


def test_summary_and_report_dict(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    report = run_sweep(SPEC, jobs=1, cache=cache)
    doc = report.as_dict()
    assert doc["n_jobs"] == 4
    assert doc["digest"] == report.digest()
    json.dumps(doc)  # JSON-serialisable end to end
    table = report.summary_table()
    assert table is not None


def test_zero_job_spec_rejected(tmp_path):
    spec = SweepSpec(experiments=[], seeds=[])
    with pytest.raises(ConfigurationError, match="zero jobs"):
        run_sweep(spec, cache=ResultCache(tmp_path))


# ---------------------------------------------------------------------------
# Harness telemetry
# ---------------------------------------------------------------------------


def test_telemetry_channel_records_the_sweep(tmp_path):
    from repro.obs.telemetry import read_events

    cache = ResultCache(tmp_path / "cache")
    channel = tmp_path / "telemetry.jsonl"
    report = run_sweep(SPEC, jobs=1, cache=cache, telemetry=channel)
    events = read_events(channel)
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "sweep.start" and kinds[-1] == "sweep.end"
    assert kinds.count("job.submit") == 4
    assert kinds.count("job.start") == 4
    assert kinds.count("job.end") == 4
    assert kinds.count("cache.promote") == 4  # every cold job is stored
    assert "cache.hit" not in kinds
    start = events[0]
    assert start["n_jobs"] == 4 and start["n_workers"] == 1
    assert set(start["experiments"]) == {"pingpong", "checkpoint_resilience"}
    # Every record is ordered on one epoch axis and schema-stamped.
    assert all(e["schema"] == 1 for e in events)
    assert [e["t"] for e in events] == sorted(e["t"] for e in events)
    # The report carries the folded summary; the sweep digest does not.
    assert report.telemetry is not None
    assert report.telemetry["n_jobs"] == 4
    assert report.telemetry["n_ran"] == 4
    assert "telemetry" in report.as_dict()


def test_telemetry_warm_pass_reports_per_sweep_cache_deltas(tmp_path):
    from repro.obs.telemetry import read_events

    cache = ResultCache(tmp_path / "cache")
    channel_cold = tmp_path / "cold.jsonl"
    channel_warm = tmp_path / "warm.jsonl"
    run_sweep(SPEC, jobs=1, cache=cache, telemetry=channel_cold)
    warm = run_sweep(SPEC, jobs=1, cache=cache, telemetry=channel_warm)
    kinds = [e["kind"] for e in read_events(channel_warm)]
    assert kinds.count("cache.hit") == 4
    assert "job.start" not in kinds  # nothing simulated on the warm pass
    # Cumulative process-lifetime counters from the cold pass must not
    # leak into the warm sweep's own totals.
    assert warm.telemetry["cache"]["hits"] == 4
    assert warm.telemetry["cache"]["misses"] == 0
    assert warm.telemetry["cache"]["hit_rate"] == 1.0
    assert warm.telemetry["n_cached"] == 4 and warm.telemetry["n_ran"] == 0


def test_telemetry_does_not_perturb_digest(tmp_path):
    plain = run_sweep(SPEC, jobs=1, cache=ResultCache(tmp_path / "a"))
    with_tele = run_sweep(
        SPEC, jobs=1, cache=ResultCache(tmp_path / "b"),
        telemetry=tmp_path / "telemetry.jsonl",
    )
    assert plain.digest() == with_tele.digest()
    for a, b in zip(plain.results, with_tele.results):
        assert a.payload == b.payload
    # ... and the summary doc itself is excluded from the digest: the
    # as_dict differs only by the wall-clock telemetry block.
    assert plain.telemetry is None and with_tele.telemetry is not None


def test_telemetry_writes_summary(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    channel = tmp_path / "telemetry.jsonl"
    report = run_sweep(SPEC, jobs=1, cache=cache, telemetry=channel)
    summary = json.loads((tmp_path / "telemetry.json").read_text())
    assert summary["n_jobs"] == 4
    assert summary["n_completed"] == len(report.results)
    assert summary["cache"]["stores"] == 4
    assert summary == report.telemetry


def test_utilization_divides_by_the_pool_that_ran(tmp_path):
    """``sweep.start`` announces one worker per job before the cache
    pass; a ``-j 2`` sweep with one miss runs a pool of one worker,
    and its utilization is that worker's busy share of the wall."""
    from repro.obs.telemetry import read_events

    cache = ResultCache(tmp_path / "cache")
    overrides = {"pingpong": SPEC.overrides["pingpong"]}
    warm = SweepSpec(experiments=["pingpong"], seeds=[0], overrides=overrides)
    run_sweep(warm, jobs=1, cache=cache)
    cold = SweepSpec(
        experiments=["pingpong"], seeds=[0, 1], overrides=overrides
    )
    channel = tmp_path / "telemetry.jsonl"
    report = run_sweep(cold, jobs=2, cache=cache, telemetry=channel)
    events = read_events(channel)
    start, end = events[0], events[-1]
    assert start["kind"] == "sweep.start" and start["n_workers"] == 2
    assert end["kind"] == "sweep.end" and end["n_workers"] == 1
    busy = sum(e["wall_s"] for e in events if e["kind"] == "job.end")
    tele = report.telemetry
    assert tele["n_ran"] == 1 and tele["n_workers"] == 1
    assert tele["utilization"] == pytest.approx(
        min(busy / (end["t"] - start["t"]), 1.0)
    )


def test_sweep_end_reports_no_workers_when_every_job_is_a_hit(tmp_path):
    from repro.obs.telemetry import read_events

    cache = ResultCache(tmp_path / "cache")
    run_sweep(SPEC, jobs=1, cache=cache)
    channel = tmp_path / "telemetry.jsonl"
    run_sweep(SPEC, jobs=2, cache=cache, telemetry=channel)
    end = read_events(channel)[-1]
    assert end["kind"] == "sweep.end" and end["n_workers"] == 0


def _follow(channel):
    """A live view following *channel* on a thread: ``(view, thread,
    output)``."""
    import io
    import threading

    from repro.obs.telemetry import LiveProgress

    out = io.StringIO()
    live = LiveProgress(channel, out=out, interval=0.01)
    follower = threading.Thread(target=live.follow, daemon=True)
    follower.start()
    return live, follower, out


def _close(live, follower):
    live.close()
    follower.join(timeout=10.0)
    assert not follower.is_alive()


def _last_frame(out):
    text = out.getvalue()
    return text[text.rindex("sweep "):]


def test_live_view_follows_a_sweep_to_its_end(tmp_path):
    # Started before the channel exists, the view ends on the frame of
    # the finished sweep, and draws it once.
    channel = tmp_path / "telemetry.jsonl"
    live, follower, out = _follow(channel)
    try:
        run_sweep(
            SPEC, jobs=1, cache=ResultCache(tmp_path / "cache"),
            telemetry=channel,
        )
    finally:
        _close(live, follower)
    assert out.getvalue().count("sweep done:") == 1
    assert _last_frame(out).startswith("sweep done:")
    assert "4/4 jobs" in _last_frame(out)


def test_inline_sweep_writes_each_result_before_the_next_job_starts(tmp_path):
    # Refilling before writing is for pools only: inline, a refill
    # would run the next job before this one's result is written.
    from repro.obs.telemetry import read_events

    channel = tmp_path / "telemetry.jsonl"
    starts_seen = []

    def progress(done, total, result):
        kinds = [e["kind"] for e in read_events(channel)]
        starts_seen.append(kinds.count("job.start"))

    run_sweep(
        SPEC, jobs=1, cache=ResultCache(tmp_path / "cache"),
        telemetry=channel, progress=progress,
    )
    assert starts_seen == [1, 2, 3, 4]


def test_live_view_and_end_totals_on_fully_cached_sweep(tmp_path):
    # A sweep where every job is cache-served never enters the execute
    # loop; the sweep.end totals must land anyway so live views end on
    # a finished state instead of a stale one.
    from repro.obs.telemetry import read_events

    cache = ResultCache(tmp_path / "cache")
    run_sweep(SPEC, jobs=1, cache=cache)
    live, follower, out = _follow(tmp_path / "warm.jsonl")
    try:
        warm = run_sweep(
            SPEC, jobs=1, cache=cache, telemetry=tmp_path / "warm.jsonl",
        )
    finally:
        _close(live, follower)
    assert warm.n_cached == 4
    assert _last_frame(out).startswith("sweep done:")
    assert "4/4 jobs" in _last_frame(out)
    assert "4 cache-served" in _last_frame(out)
    end = read_events(tmp_path / "warm.jsonl")[-1]
    assert end["kind"] == "sweep.end"
    assert end["n_done"] == 4 and end["n_quarantined"] == 0
    assert end["aborted"] is False


#: Every job raises in the experiment: the first failure propagates.
RAISING_SPEC = SweepSpec(
    experiments=["collective_scale"], seeds=[0, 1],
    overrides={"collective_scale": {"ranks": 0}},
)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_raising_sweep_still_ends_its_channel(tmp_path, jobs):
    from repro.obs.telemetry import read_events

    channel = tmp_path / "telemetry.jsonl"
    with pytest.raises(ConfigurationError, match="ranks must be >= 1"):
        run_sweep(RAISING_SPEC, jobs=jobs, telemetry=channel)
    events = read_events(channel)
    assert events[0]["kind"] == "sweep.start"
    assert [e["kind"] for e in events].count("sweep.end") == 1
    end = events[-1]
    assert end["kind"] == "sweep.end" and end["aborted"] is True
    assert end["n_done"] == 0 and end["n_quarantined"] == 0
    _assert_no_live_workers()


def test_an_interrupted_sweep_still_ends_its_channel(tmp_path):
    from repro.obs.telemetry import read_events

    def interrupt(done, total, result):
        raise KeyboardInterrupt

    channel = tmp_path / "telemetry.jsonl"
    cache = ResultCache(tmp_path / "cache")
    run_sweep(SPEC, jobs=1, cache=cache)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(
            SPEC, jobs=1, cache=cache, telemetry=channel, progress=interrupt,
        )
    end = read_events(channel)[-1]
    assert end["kind"] == "sweep.end" and end["aborted"] is True
    assert end["n_done"] == 1


def test_run_smoke_with_telemetry_dir(tmp_path, capsys):
    from repro.sweep.engine import run_smoke

    code = run_smoke(
        jobs=1, cache_root=tmp_path / "cache",
        echo=print, telemetry_dir=tmp_path / "tele",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "telemetry ok" in out
    for name in ("cold.telemetry.jsonl", "cold.telemetry.json",
                 "warm.telemetry.jsonl", "warm.telemetry.json"):
        assert (tmp_path / "tele" / name).exists(), name
    warm = json.loads((tmp_path / "tele" / "warm.telemetry.json").read_text())
    assert warm["cache"]["hit_rate"] == 1.0


def test_run_smoke_fails_when_the_warm_pass_appends_to_the_index(
    tmp_path, monkeypatch
):
    # An index read that under-reports its ids makes every warm hit
    # append its manifest again.
    from repro.obs.fleet import FleetIndex
    from repro.sweep.engine import run_smoke

    monkeypatch.setattr(FleetIndex, "run_ids", lambda self: set())
    lines = []
    code = run_smoke(jobs=1, cache_root=tmp_path / "cache", echo=lines.append)
    assert code == 1
    assert lines[-1].startswith("SMOKE FAILED: warm pass changed the run index")


# ---------------------------------------------------------------------------
# Pooled sweeps: submission and worker lifetime (slow: real process pools)
# ---------------------------------------------------------------------------

#: Eight cheap jobs on two workers: room to submit more than two ahead.
POOL_SPEC = SweepSpec(
    experiments=list(SPEC.experiments), seeds=[0, 1, 2, 3],
    overrides=SPEC.overrides,
)


def _pooled_run(tmp_path, **kwargs):
    """A ``jobs=2`` run of POOL_SPEC: the report, the pid of every
    ``job.start``, and the most jobs in flight the channel shows."""
    from repro.obs.telemetry import read_events

    channel = tmp_path / "telemetry.jsonl"
    report = run_sweep(POOL_SPEC, jobs=2, telemetry=channel, **kwargs)
    starts, submitted, ended, peak = [], 0, 0, 0
    # The channel is appended in causal order: a worker writes job.end
    # before the parent can collect that job and submit another one.
    # So submissions minus ends bounds the jobs in flight from below.
    for event in read_events(channel):
        if event["kind"] == "job.start":
            starts.append(event["worker"])
        elif event["kind"] == "job.end":
            ended += 1
        elif event["kind"] == "job.submit":
            submitted += 1
            peak = max(peak, submitted - ended)
    return report, starts, peak


def _assert_no_live_workers(timeout_s=10.0):
    # Poll until the deadline: when the pool's own thread reaps a worker
    # at the same moment, a concurrent poll reports it alive once.
    deadline = time.monotonic() + timeout_s
    while True:
        alive = [c for c in multiprocessing.active_children() if c.is_alive()]
        if not alive or time.monotonic() > deadline:
            break
        for child in alive:
            child.join(timeout=0.1)
    assert not alive


def test_policy_free_pooled_sweep_submits_ahead(tmp_path):
    serial = run_sweep(POOL_SPEC, jobs=1)
    # No policy and the legacy preset are one contract.
    for policy in (None, PROPAGATE):
        report, starts, peak = _pooled_run(
            tmp_path / str(policy is None), policy=policy
        )
        assert report.digest() == serial.digest()
        assert len(starts) == 8 and os.getpid() not in starts
        assert len(set(starts)) <= 2
        assert peak > 2  # more jobs in flight than there are workers
        _assert_no_live_workers()


@pytest.mark.parametrize(
    "isolation",
    [{"policy": FailurePolicy()}, {"isolate": True}],
    ids=["policy", "isolate"],
)
def test_policy_or_isolate_throttles_to_the_worker_count(tmp_path, isolation):
    serial = run_sweep(POOL_SPEC, jobs=1)
    report, starts, peak = _pooled_run(tmp_path, **isolation)
    assert report.digest() == serial.digest()
    assert len(starts) == 8 and os.getpid() not in starts
    assert peak <= 2
    _assert_no_live_workers()


@pytest.mark.parametrize(
    "experiments, policy",
    [
        (["collective_scale", "pingpong"], None),
        (["pingpong", "collective_scale"], None),
        (["collective_scale", "pingpong"], PROPAGATE),
        (["pingpong", "collective_scale"], PROPAGATE),
    ],
    ids=["first-jobs-fail", "last-jobs-fail",
         "first-jobs-fail-preset", "last-jobs-fail-preset"],
)
def test_no_worker_outlives_a_failing_legacy_sweep(experiments, policy):
    spec = SweepSpec(
        experiments=experiments, seeds=[0, 1, 2],
        overrides={**SPEC.overrides, "collective_scale": {"ranks": 0}},
    )
    with pytest.raises(ConfigurationError, match="ranks must be >= 1") as info:
        run_sweep(spec, jobs=2, policy=policy)
    # Raised in a worker: the remote traceback is its cause.
    assert type(info.value.__cause__).__name__ == "_RemoteTraceback"
    _assert_no_live_workers()
