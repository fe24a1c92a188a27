"""Cache-key semantics: the job digest is total over its inputs."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sweep import digests
from repro.sweep.engine import Job, JobResult, SweepReport


BASE = {"n_cluster": 4, "n_booster": 8, "sizes_kib": [1, 64], "mode": "cb"}


def d(config=BASE, experiment="exp", seed=0, code="codeA"):
    return digests.job_digest(experiment, config, seed, code)


def test_digest_is_stable():
    assert d() == d()


def test_digest_changes_with_any_config_field():
    for key, new in [
        ("n_cluster", 5),
        ("n_booster", 16),
        ("sizes_kib", [1, 65]),
        ("mode", "cluster-only"),
    ]:
        changed = dict(BASE, **{key: new})
        assert d(changed) != d(), f"field {key} did not re-key the digest"


def test_digest_changes_with_seed_experiment_and_code():
    assert d(seed=1) != d()
    assert d(experiment="other") != d()
    assert d(code="codeB") != d()


def test_digest_independent_of_key_order():
    reordered = dict(reversed(list(BASE.items())))
    assert list(reordered) != list(BASE)
    assert d(reordered) == d()


def test_tuples_and_lists_digest_identically():
    assert d(dict(BASE, sizes_kib=(1, 64))) == d(dict(BASE, sizes_kib=[1, 64]))


def test_int_and_equal_float_are_distinct():
    # json distinguishes 4 from 4.0 — so must the digest.
    assert d(dict(BASE, n_cluster=4.0)) != d()


def test_non_json_config_rejected():
    with pytest.raises(ConfigurationError):
        digests.config_digest({"bad": {1, 2}})
    with pytest.raises(ConfigurationError):
        digests.config_digest({"bad": float("nan")})
    with pytest.raises(ConfigurationError):
        digests.config_digest({1: "non-string key"})


def test_code_version_is_cached_and_env_overridable(monkeypatch):
    v1 = digests.code_version()
    assert v1 == digests.code_version()
    assert len(v1) == 64
    monkeypatch.setenv(digests.CODE_VERSION_ENV, "pinned")
    assert digests.code_version() == "pinned"
    monkeypatch.delenv(digests.CODE_VERSION_ENV)
    assert digests.code_version() == v1


def test_digest_stable_across_processes():
    """The same job must hash identically in a fresh interpreter."""
    here = d()
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "from repro.sweep import digests;"
        f"print(digests.job_digest('exp', {BASE!r}, 0, 'codeA'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == here


# ---------------------------------------------------------------------------
# Digest bytes: golden values and the single-pass canonicaliser.  The hex
# values below were computed by the path-carrying canonicaliser kept as
# ``_reference_canonical``; a change to any of them re-keys every cache
# entry and invalidates perfbench/references.json.
# ---------------------------------------------------------------------------


def test_golden_job_digest():
    assert d() == "83a30edfdc687066a5d7df15073bac3bb1eff94b50c7b76ea2a3f4b6311a03ef"
    nested = {"sizes": (1, 2.5, -3e-7), "nested": {"b": None, "a": True}}
    assert digests.job_digest("pingpong", nested, 7, "pinned-v1") == (
        "3af2a3be91079bc1a959174609d2aa4efe1d5b49a96d31905e73365df91e38c3"
    )


def test_golden_config_digest_and_payload_checksum():
    assert digests.config_digest(BASE) == (
        "e42fa260543dfd265b47d07757fa41d85246d6932cd13b00a3a099365e398b27"
    )
    payload = {"metrics": {"t_s": 1.5e-06, "bw": 12.25, "n": 3, "ok": True,
                           "tags": ["a", "b"]}}
    assert digests.payload_checksum(payload) == (
        "e665cfa085454ace75fa994886eeae8f79048df72b8d2f1cdbfa83bd024c6d21"
    )


def test_golden_report_digest():
    def job(experiment, config, seed):
        return Job(experiment, config, seed,
                   digests.job_digest(experiment, config, seed, "codeA"))

    j1 = job("pingpong", {"size": 8}, 0)
    j2 = job("spawn_cost", {"n": 2}, 1)
    assert j1.digest == (
        "08631a9b9f1badc0ea8b2e190c7a513cb5c90550895b39c29a02c901d02084ac"
    )
    assert j2.digest == (
        "0b5f9ea50aa573ff53a0a7fb484b3294753c189bcbaeff8018ab20f0922b6b9f"
    )
    report = SweepReport([
        JobResult(j2, {"metrics": {"t_s": 0.25}}, True, 0.0),
        JobResult(j1, {"metrics": {"t_s": 1.5e-06, "bw": 12.25}}, False, 0.1),
    ])
    assert report.digest() == (
        "2ae6c714cd18c8255cc607621a5f171ac4887bfe933a5f512684bf9ede063ea5"
    )


# The path-carrying canonicaliser the single-pass one replaced, kept
# verbatim as the reference its output and messages must match.
def _reference_canonical(obj, _path="config"):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ConfigurationError(
                f"non-finite float at {_path} cannot be digested"
            )
        return obj
    if isinstance(obj, (list, tuple)):
        return [_reference_canonical(v, f"{_path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, dict):
        out = {}
        for k in obj:
            if not isinstance(k, str):
                raise ConfigurationError(
                    f"config key {k!r} at {_path} must be a string"
                )
            out[k] = _reference_canonical(obj[k], f"{_path}.{k}")
        return out
    raise ConfigurationError(
        f"config value of type {type(obj).__name__} at {_path} is not "
        f"JSON-serialisable; use scalars, lists and string-keyed dicts"
    )


def _reference_canonical_json(obj):
    return json.dumps(_reference_canonical(obj), sort_keys=True, separators=(",", ":"))


def _reference_job_digest(experiment, config, seed, code):
    doc = {"experiment": experiment, "config": config, "seed": int(seed), "code": code}
    return hashlib.sha256(_reference_canonical_json(doc).encode()).hexdigest()


class _Float(float):
    """A float subclass: canonical keeps it as it is, like the reference."""


_keys = st.text(max_size=6)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    _finite, _finite.map(_Float),
)
_json_like = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
    ),
    max_leaves=25,
)

_bad_leaves = st.one_of(
    st.just(math.nan), st.just(math.inf), st.just(-math.inf),
    st.just(_Float("nan")), st.just(_Float("-inf")),
    st.frozensets(st.integers(), max_size=2), st.binary(max_size=2),
    st.complex_numbers(max_magnitude=2),
)
_bad_keys = st.one_of(st.integers(), st.floats(), st.none(), st.booleans(),
                      st.tuples(st.integers()))
_maybe_bad = st.recursive(
    st.one_of(_scalars, _bad_leaves),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
        st.dictionaries(st.one_of(_keys, _bad_keys), inner, max_size=3),
    ),
    max_leaves=25,
)


def _outcome(fn, obj):
    try:
        return ("ok", fn(obj))
    except ConfigurationError as exc:
        return ("error", str(exc))


@settings(max_examples=300, deadline=None)
@given(_json_like)
def test_canonical_matches_reference(obj):
    got, want = digests.canonical(obj), _reference_canonical(obj)
    assert got == want
    assert repr(got) == repr(want)  # tuples became lists
    assert digests.canonical_json(obj) == _reference_canonical_json(obj)


@settings(max_examples=300, deadline=None)
@given(_maybe_bad)
def test_canonical_rejects_exactly_like_reference(obj):
    got = _outcome(digests.canonical_json, obj)
    assert got == _outcome(_reference_canonical_json, obj)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=8), st.dictionaries(_keys, _json_like, max_size=4),
       st.lists(st.integers(min_value=0, max_value=2**40), max_size=4),
       st.text(max_size=8))
def test_job_digests_match_reference(experiment, config, seeds, code):
    want = [_reference_job_digest(experiment, config, s, code) for s in seeds]
    assert digests.job_digests(experiment, config, seeds, code) == want
    assert [digests.job_digest(experiment, config, s, code) for s in seeds] == want


@pytest.mark.parametrize("bad, message", [
    ({"a": [1, {"b": float("nan")}]},
     "non-finite float at config.a[1].b cannot be digested"),
    ([0, (1, float("inf"))], "non-finite float at config[1][1] cannot be digested"),
    ({"x": {"y": [float("-inf")]}},
     "non-finite float at config.x.y[0] cannot be digested"),
    ({"a": {"x": {1: 2}}}, "config key 1 at config.a.x must be a string"),
    ({"a": [{"ok": 1, None: 2}]}, "config key None at config.a[0] must be a string"),
    ({"k": {"z": [object()]}},
     "config value of type object at config.k.z[0] is not JSON-serialisable; "
     "use scalars, lists and string-keyed dicts"),
    ({"s": {1, 2}},
     "config value of type set at config.s is not JSON-serialisable; "
     "use scalars, lists and string-keyed dicts"),
])
def test_nested_rejections_match_reference(bad, message):
    for fn in (digests.canonical, _reference_canonical):
        with pytest.raises(ConfigurationError) as info:
            fn(bad)
        assert str(info.value) == message


def test_job_digest_error_paths_match_reference():
    for experiment, config, code in [
        ("x", {"a": [float("inf")]}, "c"),
        (float("nan"), {}, "c"),
        ("x", {}, {"bad": {1}}),
    ]:
        messages = []
        for fn in (digests.job_digest, _reference_job_digest):
            with pytest.raises(ConfigurationError) as info:
                fn(experiment, config, 0, code)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
