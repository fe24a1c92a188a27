"""Failure policy, deterministic chaos, retries, quarantine, recovery."""

import os

import pytest

from repro.errors import ConfigurationError
from repro.sweep import (
    EXPERIMENTS,
    PROPAGATE,
    FailurePolicy,
    ResultCache,
    SweepSpec,
    run_sweep,
)
from repro.sweep.chaos import ChaosSpec
from repro.sweep.experiments import Experiment

SPEC = SweepSpec(
    experiments=["pingpong"],
    seeds=[0, 1],
    overrides={"pingpong": {"rounds": 1, "sizes_kib": [1], "n_pairs": 1}},
)


# ---------------------------------------------------------------------------
# FailurePolicy: validation and deterministic backoff
# ---------------------------------------------------------------------------


def test_policy_validation():
    for bad in (
        dict(timeout_s=0.0),
        dict(timeout_s=-1.0),
        dict(max_retries=-1),
        dict(backoff_base_s=-0.1),
        dict(backoff_factor=0.5),
        dict(jitter=1.0),
        dict(jitter=-0.1),
        dict(max_pool_restarts=-1),
        dict(max_failures=-1),
    ):
        with pytest.raises(ConfigurationError):
            FailurePolicy(**bad)
    FailurePolicy()  # defaults are valid


def test_backoff_is_deterministic_and_grows_to_cap():
    p = FailurePolicy(
        backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=1.0, jitter=0.5
    )
    d = "a" * 64
    delays = [p.backoff_s(d, n) for n in range(1, 9)]
    assert delays == [p.backoff_s(d, n) for n in range(1, 9)]  # replayable
    # Jitter stays within +-50% of the capped exponential schedule.
    for n, delay in enumerate(delays, start=1):
        raw = min(0.1 * 2.0 ** (n - 1), 1.0)
        assert raw * 0.5 <= delay <= raw * 1.5
    # Different jobs jitter differently (that is the point of the salt).
    assert p.backoff_s(d, 1) != p.backoff_s("b" * 64, 1)


def test_backoff_requires_at_least_one_failure():
    with pytest.raises(ConfigurationError):
        FailurePolicy().backoff_s("a" * 64, 0)


def test_backoff_zero_jitter_is_exact():
    p = FailurePolicy(
        backoff_base_s=0.2, backoff_factor=3.0, backoff_max_s=10.0, jitter=0.0
    )
    assert p.backoff_s("x", 1) == pytest.approx(0.2)
    assert p.backoff_s("x", 2) == pytest.approx(0.6)
    assert p.backoff_s("x", 3) == pytest.approx(1.8)


# ---------------------------------------------------------------------------
# ChaosSpec: parsing and deterministic draws
# ---------------------------------------------------------------------------


def test_chaos_spec_parses_env():
    spec = ChaosSpec.from_env(
        {"REPRO_CHAOS": "crash:0.25, hang:0.5,corrupt:1",
         "REPRO_CHAOS_HANG_S": "2.5", "REPRO_CHAOS_SALT": "s1"}
    )
    assert spec.crash == 0.25 and spec.hang == 0.5 and spec.corrupt == 1.0
    assert spec.hang_s == 2.5 and spec.salt == "s1"
    assert spec.active


def test_chaos_spec_inactive_when_unset():
    assert not ChaosSpec.from_env({}).active
    assert not ChaosSpec.from_env({"REPRO_CHAOS": ""}).active
    assert ChaosSpec.from_env({}).draw("d", 0) is None


def test_chaos_spec_rejects_bad_input():
    for env in (
        {"REPRO_CHAOS": "explode:0.5"},
        {"REPRO_CHAOS": "crash"},
        {"REPRO_CHAOS": "crash:lots"},
        {"REPRO_CHAOS": "crash:1.5"},
        {"REPRO_CHAOS": "crash:-0.1"},
        {"REPRO_CHAOS": "crash:0.5", "REPRO_CHAOS_HANG_S": "soon"},
        {"REPRO_CHAOS": "crash:0.5", "REPRO_CHAOS_HANG_S": "-1"},
    ):
        with pytest.raises(ConfigurationError):
            ChaosSpec.from_env(env)


def test_chaos_draw_is_deterministic_per_digest_and_attempt():
    spec = ChaosSpec(crash=0.5, corrupt=0.5, salt="t")
    draws = [spec.draw("d" * 64, a) for a in range(32)]
    assert draws == [spec.draw("d" * 64, a) for a in range(32)]
    assert ChaosSpec(crash=1.0).draw("anything", 7) == "crash"
    # Attempt number re-keys the draw: a certain-corrupt spec still
    # corrupts every attempt, but a p<1 spec varies across attempts.
    assert len(set(draws)) > 1


# ---------------------------------------------------------------------------
# Serial sweeps: retries, quarantine, integrity, legacy semantics
# ---------------------------------------------------------------------------


@pytest.fixture
def boom_experiment():
    """A registered experiment that always raises."""

    def fn(config, seed, obs_dir=None):
        raise RuntimeError(f"boom seed={seed}")

    EXPERIMENTS["boom"] = Experiment(
        "boom", "always fails", "nope", fn, {}
    )
    yield SweepSpec(experiments=["boom"], seeds=[0, 1, 2])
    del EXPERIMENTS["boom"]


def test_legacy_no_policy_propagates(boom_experiment):
    # No policy and the legacy preset are one contract.
    for policy in (None, PROPAGATE):
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep(boom_experiment, jobs=1, policy=policy)


def test_the_preset_is_known_by_identity(boom_experiment):
    assert PROPAGATE.timeout_s is None
    assert PROPAGATE.max_retries == 0 and PROPAGATE.max_pool_restarts == 0
    # An equal policy built by hand degrades gracefully like any other.
    twin = FailurePolicy(max_retries=0, max_pool_restarts=0)
    assert twin == PROPAGATE
    report = run_sweep(boom_experiment, jobs=1, policy=twin)
    assert len(report.failures) == 3 and not report.results


def test_exhausted_retries_quarantine_without_killing_the_sweep(
    boom_experiment,
):
    policy = FailurePolicy(max_retries=2, backoff_base_s=0.0, backoff_max_s=0.0)
    report = run_sweep(boom_experiment, jobs=1, policy=policy)
    assert not report.ok and not report.aborted
    assert len(report.failures) == 3 and not report.results
    for f in report.failures:
        assert f.error_class == "RuntimeError"
        assert f.attempts == 3  # 1 try + 2 retries
        assert not f.timed_out
        assert len(f.traceback_digest) == 16
    assert report.n_retries == 6
    doc = report.as_dict()
    assert len(doc["failures"]) == 3
    assert doc["n_retries"] == 6 and doc["aborted"] is False
    import json

    json.dumps(doc)


def test_fail_fast_aborts_after_first_quarantine(boom_experiment):
    policy = FailurePolicy(
        max_retries=0, backoff_base_s=0.0, backoff_max_s=0.0, fail_fast=True
    )
    report = run_sweep(boom_experiment, jobs=1, policy=policy)
    assert report.aborted
    assert len(report.failures) == 1  # seeds 1, 2 never started


def test_max_failures_bounds_quarantines(boom_experiment):
    policy = FailurePolicy(
        max_retries=0, backoff_base_s=0.0, backoff_max_s=0.0, max_failures=1
    )
    report = run_sweep(boom_experiment, jobs=1, policy=policy)
    assert report.aborted
    assert len(report.failures) == 2  # tolerated 1, aborted on the 2nd


def test_serial_corrupt_chaos_is_caught_and_quarantined(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "corrupt:1")
    policy = FailurePolicy(max_retries=1, backoff_base_s=0.0, backoff_max_s=0.0)
    report = run_sweep(SPEC, jobs=1, policy=policy)
    # Every attempt corrupts; the checksum must catch every one.
    assert not report.results and len(report.failures) == 2
    assert all(f.error_class == "ResultIntegrityError" for f in report.failures)


def test_chaos_auto_arms_a_default_policy(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "corrupt:1")
    # No policy and the legacy preset are one contract here too.
    for policy in (None, PROPAGATE):
        report = run_sweep(SPEC, jobs=1, policy=policy)
        assert len(report.failures) == 2  # quarantined, not raised


def test_quarantined_jobs_never_reach_the_cache(monkeypatch, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    monkeypatch.setenv("REPRO_CHAOS", "corrupt:1")
    policy = FailurePolicy(max_retries=0, backoff_base_s=0.0, backoff_max_s=0.0)
    report = run_sweep(SPEC, jobs=1, cache=cache, policy=policy)
    assert len(report.failures) == 2
    monkeypatch.delenv("REPRO_CHAOS")
    clean = run_sweep(SPEC, jobs=1, cache=cache)
    assert clean.n_cached == 0 and clean.n_ran == 2  # nothing was poisoned


def test_quarantine_records_fleet_manifest(monkeypatch, tmp_path):
    from repro.obs.fleet import FleetIndex

    cache = ResultCache(tmp_path / "cache")
    monkeypatch.setenv("REPRO_CHAOS", "corrupt:1")
    policy = FailurePolicy(max_retries=0, backoff_base_s=0.0, backoff_max_s=0.0)
    report = run_sweep(SPEC, jobs=1, cache=cache, policy=policy)
    assert len(report.failures) == 2
    manifests = FleetIndex.at_cache_root(cache.root).load()
    quarantined = [m for m in manifests if m.source == "quarantine"]
    assert len(quarantined) == 2
    for m in quarantined:
        assert m.status == "quarantined" and m.partial
        assert m.makespan_s is None
        assert m.run_id.endswith(":quarantine")
    # A later healthy run of the same digest is indexed normally under
    # its own run id — quarantine records never shadow it.
    monkeypatch.delenv("REPRO_CHAOS")
    clean = run_sweep(SPEC, jobs=1, cache=cache)
    assert clean.ok
    manifests = FleetIndex.at_cache_root(cache.root).load()
    ok_ids = {m.run_id for m in manifests if m.status == "ok"}
    assert {r.job.digest for r in clean.results} <= ok_ids


def test_serial_chaos_converges_to_clean_digest(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_CODE_VERSION", "test-policy-parity-v1")
    clean = run_sweep(SPEC, jobs=1)
    monkeypatch.setenv("REPRO_CHAOS", "corrupt:0.5")
    policy = FailurePolicy(
        max_retries=10, backoff_base_s=0.0, backoff_max_s=0.0
    )
    chaotic = run_sweep(SPEC, jobs=1, policy=policy)
    assert chaotic.ok
    assert chaotic.digest() == clean.digest()
    # The pinned code version freezes the fault schedule, so this sweep
    # injects at least one corruption on every machine, forever.
    assert chaotic.n_retries > 0
    attempts = {r.job.seed: r.attempts for r in chaotic.results}
    assert max(attempts.values()) > 1


# ---------------------------------------------------------------------------
# Pooled sweeps: crash recovery and timeouts (slow: real process pools)
# ---------------------------------------------------------------------------


def _salt_where(spec_probs: dict, digests_wanted, max_salt=5000):
    """A salt whose deterministic schedule matches *digests_wanted*.

    ``digests_wanted`` maps job digest -> list of (attempt, mode|None)
    requirements.  Searching salts instead of mocking keeps the chaos
    plane end-to-end: the worker draws from the same env the test set.
    """
    for n in range(max_salt):
        salt = f"s{n}"
        spec = ChaosSpec(salt=salt, **spec_probs)
        if all(
            spec.draw(d, attempt) == mode
            for d, wants in digests_wanted.items()
            for attempt, mode in wants
        ):
            return salt
    raise AssertionError("no salt satisfies the wanted fault schedule")


def test_pool_recovers_from_a_worker_crash(monkeypatch):
    jobs = SPEC.resolve()
    d0, d1 = jobs[0].digest, jobs[1].digest
    # Job 0 crashes its worker on the first attempt and only then; job 1
    # is never hit directly (it may still be collateral of the kill).
    salt = _salt_where(
        {"crash": 0.5},
        {d0: [(0, "crash"), (1, None), (2, None), (3, None)],
         d1: [(a, None) for a in range(4)]},
    )
    clean = run_sweep(SPEC, jobs=1)
    monkeypatch.setenv("REPRO_CHAOS", "crash:0.5")
    monkeypatch.setenv("REPRO_CHAOS_SALT", salt)
    policy = FailurePolicy(
        max_retries=4, backoff_base_s=0.0, backoff_max_s=0.0,
        max_pool_restarts=5,
    )
    report = run_sweep(SPEC, jobs=2, policy=policy)
    assert report.ok, [f.as_dict() for f in report.failures]
    assert report.n_pool_restarts >= 1
    assert report.digest() == clean.digest()


def test_pool_timeout_kills_and_quarantines_hung_jobs(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "hang:1")
    monkeypatch.setenv("REPRO_CHAOS_HANG_S", "60")
    policy = FailurePolicy(
        timeout_s=1.0, max_retries=0, backoff_base_s=0.0, backoff_max_s=0.0
    )
    report = run_sweep(SPEC, jobs=2, policy=policy)
    assert not report.results and len(report.failures) == 2
    assert all(f.timed_out for f in report.failures)
    assert all(f.error_class == "JobTimeoutError" for f in report.failures)
    assert report.n_timeouts >= 2


def test_pool_crash_budget_exhaustion_aborts(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "crash:1")
    policy = FailurePolicy(
        max_retries=50, backoff_base_s=0.0, backoff_max_s=0.0,
        max_pool_restarts=1,
    )
    report = run_sweep(SPEC, jobs=2, policy=policy)
    assert report.aborted and not report.results
    assert report.failures  # in-flight victims quarantined on abort


def test_pool_timeout_applies_to_a_single_miss(monkeypatch, tmp_path):
    # One cache miss on jobs=2 still runs in a worker, so its deadline
    # has a process to kill; it never runs in the sweep process.
    from repro.obs.telemetry import read_events

    monkeypatch.setenv("REPRO_CHAOS", "hang:1")
    monkeypatch.setenv("REPRO_CHAOS_HANG_S", "10")
    spec = SweepSpec(
        experiments=SPEC.experiments, seeds=[0], overrides=SPEC.overrides
    )
    channel = tmp_path / "telemetry.jsonl"
    policy = FailurePolicy(timeout_s=1, max_retries=0)
    report = run_sweep(spec, jobs=2, policy=policy, telemetry=channel)
    assert not report.results and len(report.failures) == 1
    assert report.failures[0].error_class == "JobTimeoutError"
    assert report.failures[0].timed_out
    assert report.n_timeouts == 1
    starts = [
        e["worker"] for e in read_events(channel) if e["kind"] == "job.start"
    ]
    assert starts and os.getpid() not in starts


def test_pooled_fail_fast_stops_and_leaves_no_worker():
    from tests.sweep.test_engine import _assert_no_live_workers

    spec = SweepSpec(
        experiments=["collective_scale"], seeds=[0, 1, 2, 3],
        overrides={"collective_scale": {"ranks": 0}},
    )
    policy = FailurePolicy(max_retries=0, fail_fast=True)
    report = run_sweep(spec, jobs=2, policy=policy)
    assert report.aborted and not report.results
    assert 1 <= len(report.failures) <= 2
    assert all(f.error_class == "ConfigurationError" for f in report.failures)
    _assert_no_live_workers()
