"""The content-addressed result cache: atomicity, misses, artifacts."""

import json
import os

import pytest

from repro.fsutil import atomic_open, atomic_write_json
from repro.sweep.cache import ResultCache

DIGEST = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def test_roundtrip(cache):
    assert cache.get(DIGEST) is None
    cache.put(DIGEST, {"metrics": {"t": 1.5}}, meta={"wall_s": 0.1})
    payload, meta = cache.get(DIGEST)
    assert payload == {"metrics": {"t": 1.5}}
    assert meta["wall_s"] == 0.1
    assert cache.has(DIGEST)
    assert cache.entries() == [DIGEST]
    assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1


def test_corrupt_entry_is_a_miss(cache):
    cache.put(DIGEST, {"metrics": {}})
    path = cache.entry_dir(DIGEST) / "result.json"
    path.write_text("{ torn json")
    assert cache.get(DIGEST) is None


def test_corrupt_counted_separately_from_plain_miss(cache):
    assert cache.get(DIGEST) is None  # plain absence
    assert cache.misses == 1 and cache.corrupt == 0
    cache.put(DIGEST, {"metrics": {}})
    (cache.entry_dir(DIGEST) / "result.json").write_text("{ torn json")
    assert cache.get(DIGEST) is None  # genuinely corrupt object
    assert cache.misses == 2 and cache.corrupt == 1
    counts = cache.counts()
    assert counts["corrupt"] == 1 and counts["misses"] == 2
    assert set(counts) == {"hits", "misses", "corrupt", "stores",
                           "bytes_promoted"}


def test_schema_version_is_stamped_on_put(cache):
    from repro.sweep.cache import CACHE_SCHEMA

    cache.put(DIGEST, {"metrics": {}})
    doc = json.loads((cache.entry_dir(DIGEST) / "result.json").read_text())
    assert doc["schema"] == CACHE_SCHEMA


def test_unknown_schema_version_is_a_corrupt_miss(cache):
    from repro.sweep.cache import CACHE_SCHEMA

    cache.put(DIGEST, {"metrics": {}})
    path = cache.entry_dir(DIGEST) / "result.json"
    doc = json.loads(path.read_text())
    doc["schema"] = CACHE_SCHEMA + 1  # written by a future repro
    path.write_text(json.dumps(doc))
    assert cache.get(DIGEST) is None
    assert cache.misses == 1 and cache.corrupt == 1


def test_legacy_entry_without_schema_still_served(cache):
    cache.put(DIGEST, {"metrics": {"t": 2.0}})
    path = cache.entry_dir(DIGEST) / "result.json"
    doc = json.loads(path.read_text())
    del doc["schema"]  # entry written before the stamp existed
    path.write_text(json.dumps(doc))
    payload, _ = cache.get(DIGEST)
    assert payload == {"metrics": {"t": 2.0}}
    assert cache.corrupt == 0


def test_bytes_promoted_accumulates(cache, tmp_path):
    cache.put(DIGEST, {"metrics": {"x": 1}})
    after_first = cache.bytes_promoted
    assert after_first > 0  # at least the result.json body
    art = tmp_path / "run.trace.json"
    art.write_text('{"spans": []}\n')
    cache.put(OTHER, {"metrics": {}}, artifacts=[art])
    assert cache.bytes_promoted > after_first + len(art.read_bytes()) - 1
    assert cache.counts()["bytes_promoted"] == cache.bytes_promoted


def test_no_temp_droppings_after_put(cache):
    cache.put(DIGEST, {"metrics": {"x": 1}})
    leftovers = [
        p for p in cache.root.rglob("*") if p.is_file() and ".tmp" in p.name
    ]
    assert leftovers == []


def test_failed_write_leaves_target_untouched(tmp_path):
    target = tmp_path / "nested" / "out.json"
    atomic_write_json(target, {"ok": True})
    with pytest.raises(RuntimeError):
        with atomic_open(target) as fh:
            fh.write("partial garbage")
            raise RuntimeError("simulated crash mid-write")
    assert json.loads(target.read_text()) == {"ok": True}
    assert [p for p in target.parent.iterdir() if ".tmp" in p.name] == []


def test_artifacts_roundtrip(cache, tmp_path):
    art = tmp_path / "stage" / "run.blame.json"
    art.parent.mkdir()
    art.write_text('{"blame": 1}\n')
    cache.put(DIGEST, {"metrics": {}}, artifacts=[art])
    _, meta = cache.get(DIGEST)
    assert meta["artifacts"] == ["run.blame.json"]
    out = tmp_path / "obs"
    exported = cache.export_artifacts(DIGEST, out)
    assert [p.name for p in exported] == ["run.blame.json"]
    assert (out / "run.blame.json").read_bytes() == art.read_bytes()


def test_prune(cache):
    cache.put(DIGEST, {"metrics": {}})
    cache.put(OTHER, {"metrics": {}})
    assert cache.prune() == 2
    assert cache.entries() == []
    assert cache.get(DIGEST) is None


def test_prune_removes_empty_fanout_dirs(cache):
    cache.put(DIGEST, {"metrics": {}})
    fanout = cache.entry_dir(DIGEST).parent
    assert fanout.name == DIGEST[:2]
    cache.prune()
    assert not fanout.exists()


def test_prune_warns_when_fleet_index_still_references_entries(cache):
    from repro.obs.fleet import FleetIndex, RunManifest

    cache.put(DIGEST, {"metrics": {}})
    index = FleetIndex.at_cache_root(cache.root)
    index.record(RunManifest(
        run_id=DIGEST, source="sweep", experiment="pingpong", config={},
        seed=0, code_version="v", makespan_s=1.0,
    ))
    with pytest.warns(RuntimeWarning, match="obs rebuild"):
        assert cache.prune() == 1


def test_prune_without_index_is_silent(cache, recwarn):
    cache.put(DIGEST, {"metrics": {}})
    assert cache.prune() == 1
    assert [w for w in recwarn.list
            if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("field, value", [
    ("payload", [1, 2]),
    ("payload", "metrics"),
    ("payload", None),
    ("meta", ["artifacts"]),
    ("meta", 3),
])
def test_non_object_payload_or_meta_is_a_corrupt_miss(cache, field, value):
    cache.put(DIGEST, {"metrics": {"t": 1.0}})
    path = cache.entry_dir(DIGEST) / "result.json"
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    assert cache.get(DIGEST) is None
    assert cache.misses == 1 and cache.corrupt == 1 and cache.hits == 0


def test_undecodable_entry_is_a_corrupt_miss(cache):
    cache.put(DIGEST, {"metrics": {}})
    (cache.entry_dir(DIGEST) / "result.json").write_bytes(b'{"payload": "\xff\xfe"}')
    assert cache.get(DIGEST) is None
    assert cache.corrupt == 1


def test_sweep_reruns_entry_whose_payload_is_not_an_object(tmp_path):
    """A list payload used to be served as a hit and crash the re-index."""
    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        experiments=["checkpoint_resilience"], seeds=[0, 1],
        overrides={"checkpoint_resilience": {"work_s": 200.0, "mtbf_s": 120.0}},
    )
    cache = ResultCache(tmp_path / "cache")
    cold = run_sweep(spec, cache=cache)
    victim = cold.results[0].job.digest
    path = cache.entry_dir(victim) / "result.json"
    doc = json.loads(path.read_text())
    doc["payload"] = [doc["payload"]]
    path.write_text(json.dumps(doc))
    (cache.root / "v1" / "index" / "runs.jsonl").unlink()

    cache = ResultCache(tmp_path / "cache")
    warm = run_sweep(spec, cache=cache)
    assert cache.corrupt == 1
    assert [r.cached for r in warm.results] == [False, True]
    assert warm.digest() == cold.digest()
    assert json.loads(path.read_text())["payload"] == cold.results[0].payload


def test_entry_larger_than_one_read_round_trips(cache):
    from repro.sweep.cache import _READ_CHUNK

    payload = {"metrics": {"t": 1.0}, "blob": "x" * (200 << 10)}
    cache.put(DIGEST, payload)
    assert (cache.entry_dir(DIGEST) / "result.json").stat().st_size > (
        2 * _READ_CHUNK
    )
    assert ResultCache(cache.root).get(DIGEST)[0] == payload


def test_result_path_that_is_a_directory_is_a_plain_miss(cache):
    (cache.entry_dir(DIGEST) / "result.json").mkdir(parents=True)
    assert cache.get(DIGEST) is None
    assert cache.misses == 1 and cache.corrupt == 0


def test_sweep_replaces_a_directory_at_result_json(tmp_path):
    """``get`` misses such an entry, so the job re-runs; its ``put`` used
    to fail on the directory while ``has`` and ``entries`` listed it."""
    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        experiments=["checkpoint_resilience"], seeds=[0, 1],
        overrides={"checkpoint_resilience": {"work_s": 200.0, "mtbf_s": 120.0}},
    )
    cache = ResultCache(tmp_path / "cache")
    victim = spec.resolve()[0].digest
    squatter = cache.entry_dir(victim) / "result.json" / "junk"
    squatter.mkdir(parents=True)
    assert not cache.has(victim) and cache.entries() == []
    # ``prune`` still deletes such an entry.
    assert cache.prune() == 1 and not cache.entry_dir(victim).exists()
    squatter.mkdir(parents=True)

    cold = run_sweep(spec, cache=cache)
    assert [r.cached for r in cold.results] == [False, False]
    assert cache.has(victim) and len(cache.entries()) == 2
    warm = run_sweep(spec, cache=ResultCache(cache.root))
    assert [r.cached for r in warm.results] == [True, True]
    assert warm.digest() == cold.digest()


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_reads_leave_no_open_descriptors(cache):
    digests = [f"{i:02x}" + "0" * 62 for i in range(5)]
    cache.put(digests[0], {"metrics": {}})
    cache.put(digests[1], {"metrics": {}})
    (cache.entry_dir(digests[1]) / "result.json").write_text("{ torn")
    cache.put(digests[2], {"metrics": {}, "blob": "y" * (100 << 10)})
    (cache.entry_dir(digests[3]) / "result.json").mkdir(parents=True)
    before = len(os.listdir("/proc/self/fd"))
    for i in range(200):
        cache.get(digests[i % 5])
    assert len(os.listdir("/proc/self/fd")) == before
    assert (cache.hits, cache.misses, cache.corrupt) == (80, 120, 40)
