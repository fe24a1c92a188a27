"""Fleet observability: run manifests and the cross-run index."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.fleet import (
    FLEET_INDEX_ENV,
    FleetIndex,
    RunManifest,
    build_manifest,
    env_index_path,
    manifest_from_exports,
    resolve_index_path,
    scalar_metrics,
)


def mk(run_id="r1", seed=0, experiment="exp", makespan=1.0, partial=False,
       config=None, metrics=None, blame_s=None, blame_fractions=None):
    return RunManifest(
        run_id=run_id,
        source="sweep",
        experiment=experiment,
        config=dict(config or {"x": 1}),
        seed=seed,
        code_version="cafe",
        makespan_s=makespan,
        metrics=dict(metrics or {"bytes": 10}),
        blame_s=dict(blame_s or {"net": 0.6}),
        blame_fractions=dict(blame_fractions or {"net": 0.6}),
        partial=partial,
    )


_IDS = st.sampled_from(["a", "b", "c"])


def _record(run_id, **fields):
    return json.dumps({"run_id": run_id, "experiment": "exp", **fields})


#: Index lines: manifests (duplicate ids included), blank lines, torn
#: records and foreign JSON that ``load`` keeps or skips.
INDEX_LINES = st.one_of(
    st.builds(lambda rid, seed: mk(rid, seed=seed).line(),
              _IDS, st.integers(0, 3)),
    st.sampled_from(["", "   ", "\t"]),
    st.builds(lambda rid, cut: mk(rid).line()[:cut],
              _IDS, st.integers(1, 200)),
    st.sampled_from(["[1, 2]", '"a"', "3", "null", "true", "{}"]),
    st.builds(lambda rid: json.dumps({"run_id": rid}), _IDS),
    st.just('{"experiment": "exp"}'),
    st.builds(_record, st.integers(0, 3)),  # a number for a run id
    st.builds(
        lambda rid, key, value: _record(rid, **{key: value}),
        _IDS,
        st.sampled_from(["config", "metrics", "blame_s", "blame_fractions"]),
        st.sampled_from([5, "abc", [1, 2], [[1, 2, 3]], [["k", 1]], True, 0]),
    ),
    st.builds(
        lambda rid, schema: _record(rid, schema=schema),
        _IDS,
        st.sampled_from(
            ["x", None, [], {}, 1.5, "2", True, float("inf"), float("nan")]
        ),
    ),
)


class TestScalarMetrics:
    def test_keeps_finite_numbers_only(self):
        out = scalar_metrics({
            "a": 1, "b": 2.5, "flag": True, "nested": {"x": 1},
            "name": "s", "inf": float("inf"), "nan": float("nan"),
        })
        assert out == {"a": 1, "b": 2.5}


class TestBuildManifest:
    def test_makespan_prefers_blame(self):
        m = build_manifest(
            "exp", {"x": 1}, 0, "cafe",
            {"metrics": {"end_time_s": 2.0}},
            blame_doc={"makespan_s": 1.5, "seconds": {}, "fractions": {}},
        )
        assert m.makespan_s == 1.5

    def test_makespan_falls_back_to_payload(self):
        m = build_manifest("exp", {"x": 1}, 0, "cafe",
                           {"metrics": {"end_time_s": 2.0}})
        assert m.makespan_s == 2.0

    def test_a_blame_walk_without_segments_is_no_makespan(self):
        # A run with no traced segment reports makespan 0 in its blame.
        m = build_manifest(
            "exp", {"x": 1}, 0, "cafe",
            {"metrics": {"elapsed_s": 2400.0}},
            blame_doc={"makespan_s": 0.0, "seconds": {}, "fractions": {}},
        )
        assert m.makespan_s == 2400.0

    def test_partial_from_blame(self):
        base = ("exp", {"x": 1}, 0, "cafe", {"metrics": {}})
        assert build_manifest(*base, blame_doc={"partial": True}).partial
        assert not build_manifest(*base).partial

    def test_run_id_defaults_to_job_digest(self):
        from repro.sweep.digests import job_digest

        m = build_manifest("exp", {"x": 1}, 3, "cafe", {"metrics": {}})
        assert m.run_id == job_digest("exp", {"x": 1}, 3, "cafe")

    def test_round_trips_through_dict(self):
        m = mk()
        assert RunManifest.from_dict(m.as_dict()) == m
        assert RunManifest.from_dict(json.loads(m.line())) == m

    def test_status_defaults_ok_and_round_trips(self):
        m = mk()
        assert m.status == "ok"
        doc = m.as_dict()
        assert doc["status"] == "ok"
        # Manifests written before the status field existed load as ok.
        del doc["status"]
        assert RunManifest.from_dict(doc).status == "ok"
        quarantined = RunManifest(
            run_id="d:quarantine", source="quarantine", experiment="exp",
            config={}, seed=0, code_version="cafe", makespan_s=None,
            partial=True, status="quarantined",
        )
        back = RunManifest.from_dict(quarantined.as_dict())
        assert back == quarantined and back.status == "quarantined"


class TestManifestFromExports:
    def test_handles_inf_histogram_edges(self):
        # Export docs legitimately contain the +inf overflow bucket
        # edge; the manifest digest must not choke on it.
        doc = {
            "counters": {"net.bytes": 42},
            "gauges": {"depth": 2.0},
            "histograms": {
                "lat": {"count": 1, "sum": 0.5,
                        "buckets": [[1.0, 1], [float("inf"), 0]]},
            },
            "kernel": {"now": 1.25, "events_processed": 9},
        }
        m = manifest_from_exports("bench1", metrics_doc=doc, code_version="c")
        assert m.metrics["net.bytes"] == 42
        assert m.makespan_s == 1.25
        assert m.run_id
        # deterministic
        m2 = manifest_from_exports("bench1", metrics_doc=doc, code_version="c")
        assert m2.run_id == m.run_id

    def test_a_blame_walk_without_segments_falls_back_to_the_clock(self):
        m = manifest_from_exports(
            "b", metrics_doc={"kernel": {"now": 3.5}},
            blame_doc={"makespan_s": 0.0}, code_version="c",
        )
        assert m.makespan_s == 3.5

    def test_different_content_different_id(self):
        a = manifest_from_exports(
            "b", metrics_doc={"counters": {"x": 1}}, code_version="c")
        b = manifest_from_exports(
            "b", metrics_doc={"counters": {"x": 2}}, code_version="c")
        assert a.run_id != b.run_id


class TestResolveIndexPath:
    def test_jsonl_verbatim(self, tmp_path):
        p = tmp_path / "runs.jsonl"
        assert resolve_index_path(p) == p

    def test_directory_gets_canonical_relpath(self, tmp_path):
        assert resolve_index_path(tmp_path) == (
            tmp_path / "v1" / "index" / "runs.jsonl"
        )

    def test_env_index_path(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FLEET_INDEX_ENV, raising=False)
        assert env_index_path() is None
        monkeypatch.setenv(FLEET_INDEX_ENV, str(tmp_path))
        assert env_index_path() == tmp_path / "v1" / "index" / "runs.jsonl"


class TestFleetIndex:
    def test_append_and_load(self, tmp_path):
        idx = FleetIndex(tmp_path / "runs.jsonl")
        idx.append(mk("a", seed=0))
        idx.append(mk("b", seed=1))
        assert [m.run_id for m in idx.load()] == ["a", "b"]

    def test_record_dedupes(self, tmp_path):
        idx = FleetIndex(tmp_path / "runs.jsonl")
        assert idx.record(mk("a"))
        assert not idx.record(mk("a"))
        assert len(idx.load()) == 1

    def test_record_with_known_ids_set(self, tmp_path):
        idx = FleetIndex(tmp_path / "runs.jsonl")
        known = set()
        assert idx.record(mk("a"), known_ids=known)
        assert "a" in known
        assert not idx.record(mk("a"), known_ids=known)

    def test_torn_and_foreign_lines_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        idx = FleetIndex(path)
        idx.append(mk("a"))
        with open(path, "a") as fh:
            fh.write('{"torn": tru')  # crashed writer
            fh.write("\n")
            fh.write('{"not": "a manifest"}\n')
            # int(1e999) raises OverflowError, not ValueError.
            fh.write('{"run_id": "x", "experiment": "e", "schema": 1e999}\n')
        idx.append(mk("b", seed=1))
        assert [m.run_id for m in idx.load()] == ["a", "b"]
        assert idx.run_ids() == {"a", "b"}

    def test_line_that_is_not_utf8_is_skipped(self, tmp_path):
        idx = FleetIndex(tmp_path / "runs.jsonl")
        idx.append(mk("a"))
        with open(idx.path, "ab") as fh:
            fh.write(b"\xff\xfe not utf-8\n")
            # Valid JSON but for one byte: still not a record.
            fh.write(mk("x").line().replace('"x"', '"\xff"').encode("latin-1"))
            fh.write(b"\n")
        idx.append(mk("b", seed=1))
        assert [m.run_id for m in idx.load()] == ["a", "b"]
        assert idx.run_ids() == {"a", "b"}

    def test_load_missing_file_is_empty(self, tmp_path):
        assert FleetIndex(tmp_path / "nope.jsonl").load() == []
        assert FleetIndex(tmp_path / "nope.jsonl").run_ids() == set()

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(INDEX_LINES, max_size=12), newline=st.booleans())
    def test_run_ids_are_the_ids_load_keeps(self, tmp_path_factory, lines,
                                            newline):
        path = tmp_path_factory.mktemp("index") / "runs.jsonl"
        path.write_text("\n".join(lines) + ("\n" if newline else ""))
        idx = FleetIndex(path)
        assert idx.run_ids() == {m.run_id for m in idx.load()}

    def test_digest_order_free(self, tmp_path):
        a, b = mk("a"), mk("b", seed=1)
        i1 = FleetIndex(tmp_path / "one.jsonl")
        i1.append(a)
        i1.append(b)
        i2 = FleetIndex(tmp_path / "two.jsonl")
        i2.append(b)
        i2.append(a)
        assert i1.digest() == i2.digest()

    def test_rewrite_atomic_and_sorted(self, tmp_path):
        idx = FleetIndex(tmp_path / "runs.jsonl")
        ms = [mk("b", seed=1), mk("a")]
        idx.rewrite(ms)
        assert idx.digest() == idx.digest(ms)
        assert len(idx.load()) == 2


@pytest.fixture
def small_sweep(tmp_path):
    from repro.sweep.cache import ResultCache
    from repro.sweep.engine import run_sweep, SweepSpec

    cache = ResultCache(tmp_path / "cache")
    spec = SweepSpec(experiments=["pingpong"], seeds=[0, 1])
    report = run_sweep(spec, jobs=1, cache=cache, obs_dir=tmp_path / "obs")
    return cache, spec, report, tmp_path


class TestSweepIndexing:
    def test_an_observed_sweep_keeps_one_manifest_per_job(self, small_sweep):
        # The engine's index record is a job's only manifest: no
        # ``*.manifest.json`` next to the exports or in the cache.
        cache, spec, report, tmp = small_sweep
        exported = sorted(p.name for p in (tmp / "obs").iterdir())
        assert exported == sorted(
            f"pingpong_seed{seed}.{kind}.json"
            for seed in (0, 1) for kind in ("blame", "metrics", "trace")
        )
        assert list(tmp.rglob("*.manifest.json")) == []
        for r in report.results:
            names = {p.name for p in cache.artifact_paths(r.job.digest)}
            assert names == {f"pingpong_seed{r.job.seed}.{kind}.json"
                             for kind in ("blame", "metrics", "trace")}
        records = FleetIndex.at_cache_root(cache.root).path.read_text()
        assert sorted(json.loads(line)["run_id"] for line in
                      records.splitlines()) == sorted(
            r.job.digest for r in report.results)

    def test_a_run_without_traced_segments_is_indexed_with_its_length(
        self, tmp_path
    ):
        from repro.sweep.cache import ResultCache
        from repro.sweep.engine import run_sweep, SweepSpec

        cache = ResultCache(tmp_path / "cache")
        spec = SweepSpec(experiments=["checkpoint_resilience"], seeds=[0],
                         overrides={"*": {"work_s": 200.0, "mtbf_s": 120.0}})
        report = run_sweep(spec, jobs=1, cache=cache, obs_dir=tmp_path / "obs")
        [manifest] = FleetIndex.at_cache_root(cache.root).load()
        assert manifest.blame_s == {}  # the blame walk found no segment
        elapsed = report.results[0].payload["metrics"]["elapsed_s"]
        assert elapsed > 0
        assert manifest.makespan_s == elapsed

    def test_cold_sweep_indexes_every_job(self, small_sweep):
        cache, spec, report, tmp = small_sweep
        idx = FleetIndex.at_cache_root(cache.root)
        ms = idx.load()
        assert len(ms) == 2
        assert {m.source for m in ms} == {"sweep"}
        assert {m.seed for m in ms} == {0, 1}
        assert all(m.blame_s for m in ms)
        assert all(m.makespan_s and m.makespan_s > 0 for m in ms)

    def test_rebuild_matches_live_index(self, small_sweep):
        cache, spec, report, tmp = small_sweep
        idx = FleetIndex.at_cache_root(cache.root)
        rebuilt = FleetIndex.rebuild_from_cache(cache)
        assert idx.digest() == idx.digest(rebuilt)

    def test_warm_hits_reindex_after_index_loss(self, small_sweep):
        from repro.sweep.engine import run_sweep

        cache, spec, report, tmp = small_sweep
        idx = FleetIndex.at_cache_root(cache.root)
        before = idx.digest()
        idx.path.unlink()
        report2 = run_sweep(spec, jobs=1, cache=cache,
                            obs_dir=tmp / "obs2")
        assert report2.n_cached == 2
        assert idx.digest() == before

    def test_warm_hit_with_a_skipped_record_is_reindexed(self, small_sweep):
        from repro.sweep.engine import run_sweep

        cache, spec, report, tmp = small_sweep
        idx = FleetIndex.at_cache_root(cache.root)
        lines = idx.path.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["schema"] = "x"  # a record load() skips
        lines[0] = json.dumps(doc)
        idx.path.write_text("\n".join(lines) + "\n")
        assert idx.run_ids() == {json.loads(lines[1])["run_id"]}

        report2 = run_sweep(spec, jobs=1, cache=cache, obs_dir=tmp / "obs2")
        assert report2.n_cached == 2
        after = idx.path.read_text().splitlines()
        assert after[:2] == lines and len(after) == 3
        assert json.loads(after[2])["run_id"] == doc["run_id"]
        assert idx.digest() == idx.digest(FleetIndex.rebuild_from_cache(cache))

    def test_warm_sweep_over_a_line_that_is_not_utf8(self, small_sweep):
        from repro.sweep.engine import run_sweep

        cache, spec, report, tmp = small_sweep
        idx = FleetIndex.at_cache_root(cache.root)
        with open(idx.path, "ab") as fh:
            fh.write(b"\xff\xfe not utf-8\n")
        before = idx.path.read_bytes()
        report2 = run_sweep(spec, jobs=1, cache=cache)
        assert report2.n_cached == 2
        assert report2.digest() == report.digest()
        assert idx.path.read_bytes() == before  # nothing re-indexed

    def test_warm_sweep_leaves_a_healthy_index_untouched(self, small_sweep):
        from repro.sweep.engine import run_sweep

        cache, spec, report, tmp = small_sweep
        idx = FleetIndex.at_cache_root(cache.root)
        before = idx.path.read_bytes()
        report2 = run_sweep(spec, jobs=1, cache=cache, obs_dir=tmp / "obs2")
        assert report2.n_cached == 2
        assert idx.path.read_bytes() == before

    def test_sweep_worker_does_not_double_index(self, small_sweep, monkeypatch):
        # Even with REPRO_FLEET_INDEX pointing somewhere, jobs must not
        # append bench-style manifests — the engine records the
        # authoritative sweep manifest itself.
        from repro.sweep.engine import run_sweep

        cache, spec, report, tmp = small_sweep
        foreign = tmp / "foreign.jsonl"
        monkeypatch.setenv(FLEET_INDEX_ENV, str(foreign))
        run_sweep(spec, jobs=1, cache=cache, refresh=True,
                  obs_dir=tmp / "obs3")
        assert not foreign.exists()
        assert os.environ[FLEET_INDEX_ENV] == str(foreign)  # restored
        idx = FleetIndex.at_cache_root(cache.root)
        assert len(idx.load()) == 2


class TestEnvRecording:
    """The bench entry point (``benchmarks/conftest.py``) exports under
    ``REPRO_OBS_DIR`` and indexes under ``REPRO_FLEET_INDEX``."""

    def test_bench_export_appends_when_env_set(self, tmp_path, monkeypatch):
        from benchmarks.conftest import export_metrics_only
        from repro.obs.metrics import MetricsRegistry

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        monkeypatch.setenv(FLEET_INDEX_ENV, str(tmp_path / "fleet.jsonl"))
        reg = MetricsRegistry()
        reg.gauge("g").set(4.0)
        export_metrics_only(reg, "minibench")
        exported = [p.name for p in (tmp_path / "obs").iterdir()]
        assert exported == ["minibench.metrics.json"]
        ms = FleetIndex(tmp_path / "fleet.jsonl").load()
        assert [m.experiment for m in ms] == ["minibench"]
        assert ms[0].source == "bench"
        # identical re-export is a no-op
        export_metrics_only(reg, "minibench")
        assert len(FleetIndex(tmp_path / "fleet.jsonl").load()) == 1

    def test_no_index_without_env(self, tmp_path, monkeypatch):
        from benchmarks.conftest import export_sim
        from repro.simkernel.simulator import Simulator

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        monkeypatch.delenv(FLEET_INDEX_ENV, raising=False)
        sim = Simulator(observe=True)

        def wait():
            yield sim.timeout(1.0)

        sim.process(wait(), name="wait")
        sim.run()
        export_sim(sim, "minisim")
        exported = sorted(p.name for p in (tmp_path / "obs").iterdir())
        assert exported == [
            "minisim.blame.json", "minisim.metrics.json", "minisim.trace.json"
        ]
        assert list(tmp_path.glob("**/runs.jsonl")) == []


class TestPruneRebuildReconciliation:
    """Satellite regression: prune -> stale index -> rebuild parity."""

    def test_prune_then_rebuild_restores_check_parity(self, small_sweep, capsys):
        from repro.__main__ import main

        cache, spec, report, tmp = small_sweep
        cache_args = ["--cache-dir", str(cache.root)]
        # Fresh sweep: --check passes.
        assert main(["obs", "rebuild", *cache_args, "--check"]) == 0
        # Prune drops the objects but not the index -> drift, warned.
        with pytest.warns(RuntimeWarning, match="obs rebuild"):
            assert cache.prune() == 2
        assert main(["obs", "rebuild", *cache_args, "--check"]) == 1
        err = capsys.readouterr().err
        assert "MISMATCH" in err
        # Rebuild derives purely from surviving entries: pruned digests
        # are dropped and --check parity is restored.
        assert main(["obs", "rebuild", *cache_args]) == 0
        assert main(["obs", "rebuild", *cache_args, "--check"]) == 0
        idx = FleetIndex.at_cache_root(cache.root)
        assert idx.load() == []
