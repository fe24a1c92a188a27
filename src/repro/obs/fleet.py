"""Fleet observability: run manifests and the cross-run index.

The DEEP paper's claims are *comparative* — every experiment we run is
a comparison across configurations — but spans/metrics/blame stop at
single-run files.  This module adds the missing layer: every sweep job
(and ``demo``/bench run) is summarised into a compact
:class:`RunManifest` and appended to a queryable JSONL **run index**
under the sweep-cache root, so questions like "how did blame shift when
``segment_bytes`` doubled" become one ``python -m repro obs diff``
instead of JSONL spelunking.

Design rules:

* **Deterministic.** A manifest carries only content derived from the
  run (config, seed, code version, makespan, metric scalars, blame) —
  no wall-clock or timestamps.  The same run always produces the same
  manifest, so the index digest is reproducible.
* **Append-only, atomic.** Records are single-line JSON appended via
  :func:`repro.fsutil.append_line`; readers skip torn lines.  Nothing
  ever rewrites the index in place (``rebuild`` writes a fresh file).
* **Rebuildable.** For sweep runs the manifest is a pure function of
  the cached ``result.json`` and ``blame.json`` artifact, so
  :meth:`FleetIndex.rebuild_from_cache` reproduces the index exactly
  (digest match) from a cache tree alone.
* **Partial-honest.** A run whose blame walk did not complete, and a
  quarantined job, are marked ``partial`` and excluded from sentinel
  baselines by default.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Optional

from repro.fsutil import append_line, ensure_parent, read_json_lines

#: Manifest format version (bump on incompatible schema changes).
MANIFEST_SCHEMA = 1

#: Environment variable pointing bench/demo runs at a fleet index: a
#: ``runs.jsonl`` file, or a sweep-cache root / directory (the index
#: then lives at ``<dir>/v1/index/runs.jsonl``).
FLEET_INDEX_ENV = "REPRO_FLEET_INDEX"

#: Index location inside a sweep-cache root.
INDEX_RELPATH = ("v1", "index", "runs.jsonl")

#: Payload-metric keys accepted as the run's makespan when no blame
#: report is available (first match wins).
_MAKESPAN_KEYS = (
    "makespan_s",
    "end_time_s",
    "elapsed_s",
    "total_time_s",
    "offload_elapsed_s",
    "spawn_s",
    "cost_s",
)


def _canonical_json(obj: Any) -> str:
    """Canonical compact JSON (sweep-digest rules, lazily imported)."""
    from repro.sweep.digests import canonical_json

    return canonical_json(obj)


def scalar_metrics(metrics: Mapping[str, Any]) -> dict[str, float]:
    """The finite int/float scalars of a payload-metrics dict (bools,
    non-finite values and nested structures dropped)."""
    out = {}
    for key, value in metrics.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            if isinstance(value, float) and not math.isfinite(value):
                continue
            out[str(key)] = value
    return out


@dataclass(frozen=True)
class RunManifest:
    """Compact, deterministic summary of one observed (or plain) run."""

    run_id: str
    #: ``"sweep"`` (engine jobs), ``"bench"`` (REPRO_OBS_DIR exports of
    #: the benches) or ``"demo"`` (an observed ``python -m repro demo``).
    source: str
    experiment: str
    #: Effective config (``{}`` for bench/demo runs, which have none).
    config: dict
    #: Sweep seed; ``None`` when the run is not seed-addressed.
    seed: Optional[int]
    code_version: str
    makespan_s: Optional[float]
    #: Scalar payload metrics (counters/headlines), name -> value.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Critical-path seconds per subsystem bucket (empty = unobserved).
    blame_s: dict[str, float] = field(default_factory=dict)
    #: Blame as fractions of the makespan.
    blame_fractions: dict[str, float] = field(default_factory=dict)
    #: True when the blame walk was partial: the numbers cover only part
    #: of the run.
    partial: bool = False
    #: Run status: ``"ok"`` for completed runs, ``"quarantined"`` for
    #: sweep jobs that exhausted their failure-policy retry budget.
    status: str = "ok"
    schema: int = MANIFEST_SCHEMA

    def config_digest(self) -> str:
        from repro.sweep.digests import config_digest

        return config_digest(self.config)

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "source": self.source,
            "experiment": self.experiment,
            "config": dict(self.config),
            "seed": self.seed,
            "code_version": self.code_version,
            "makespan_s": self.makespan_s,
            "metrics": dict(self.metrics),
            "blame_s": dict(self.blame_s),
            "blame_fractions": dict(self.blame_fractions),
            "partial": self.partial,
            "status": self.status,
        }

    def line(self) -> str:
        """The canonical single-line JSON record of this manifest."""
        return _canonical_json(self.as_dict())

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RunManifest":
        return cls(**_manifest_fields(doc))


def _manifest_fields(doc: Mapping[str, Any]) -> dict[str, Any]:
    """The :class:`RunManifest` fields of one parsed record.

    The one place an index record's skip rules live: for a record that
    :meth:`FleetIndex.load` and :meth:`FleetIndex.run_ids` skip, this
    raises ``ValueError``, ``KeyError``, ``TypeError`` or, for a
    ``schema`` of ``1e999``, ``OverflowError``.  ``doc["run_id"]`` comes
    first, so a document that is not an object raises ``TypeError``.
    """
    return {
        "run_id": str(doc["run_id"]),
        "source": str(doc.get("source", "sweep")),
        "experiment": str(doc["experiment"]),
        "config": dict(doc.get("config") or {}),
        "seed": doc.get("seed"),
        "code_version": str(doc.get("code_version", "")),
        "makespan_s": doc.get("makespan_s"),
        "metrics": dict(doc.get("metrics") or {}),
        "blame_s": dict(doc.get("blame_s") or {}),
        "blame_fractions": dict(doc.get("blame_fractions") or {}),
        "partial": bool(doc.get("partial", False)),
        "status": str(doc.get("status", "ok")),
        "schema": int(doc.get("schema", MANIFEST_SCHEMA)),
    }


# ---------------------------------------------------------------------------
# Manifest construction
# ---------------------------------------------------------------------------


def _makespan_from_metrics(metrics: Mapping[str, float]) -> Optional[float]:
    for key in _MAKESPAN_KEYS:
        value = metrics.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    return None


def _blame_makespan(blame_doc: Optional[Mapping[str, Any]]) -> Optional[float]:
    """The makespan of a blame export, or ``None`` when it has none.

    Zero-length spans are dropped, so a walk that found no segment (a
    run on bare timeouts, say) reports 0.  That says nothing about how
    long the run took, so :func:`build_manifest` falls back to the
    payload's makespan metric and :func:`manifest_from_exports` to the
    kernel clock.
    """
    value = (blame_doc or {}).get("makespan_s")
    if value is None or float(value) <= 0:
        return None
    return float(value)


def build_manifest(
    experiment: str,
    config: Mapping[str, Any],
    seed: Optional[int],
    code_version: str,
    payload: Mapping[str, Any],
    blame_doc: Optional[Mapping[str, Any]] = None,
    source: str = "sweep",
    run_id: Optional[str] = None,
) -> RunManifest:
    """Assemble a manifest from a job's deterministic outputs.

    *payload* is the sweep result payload (``{"metrics": ...}``);
    *blame_doc* is the parsed ``*.blame.json`` export when the run was
    observed.  ``run_id`` defaults to the sweep job digest of
    ``(experiment, config, seed, code)`` — the cache entry name — so
    index records and cache entries share an address.
    """
    from repro.sweep.digests import job_digest

    metrics = scalar_metrics(payload.get("metrics", {}))
    partial = bool(blame_doc.get("partial")) if blame_doc else False
    makespan = _blame_makespan(blame_doc)
    if makespan is None:
        makespan = _makespan_from_metrics(metrics)
    if run_id is None:
        run_id = job_digest(experiment, dict(config), int(seed or 0), code_version)
    return RunManifest(
        run_id=run_id,
        source=source,
        experiment=experiment,
        config=dict(config),
        seed=seed,
        code_version=code_version,
        makespan_s=makespan,
        metrics=metrics,
        blame_s=dict((blame_doc or {}).get("seconds") or {}),
        blame_fractions=dict((blame_doc or {}).get("fractions") or {}),
        partial=partial,
    )


def load_export(path) -> dict:
    """Load one JSON export artifact (``*.metrics.json``,
    ``*.blame.json``) exactly as written.

    This is the reader the round-trip property tests pin: a document
    written by :mod:`repro.obs.export` / :mod:`repro.fsutil` must come
    back bit-for-bit equal through here.
    """
    with open(path, "r") as fh:
        return json.load(fh)


def _pick_artifact(paths: Iterable[Path], suffix: str) -> Optional[dict]:
    for p in paths:
        if p.name.endswith(suffix):
            try:
                return load_export(p)
            except (OSError, ValueError):
                return None
    return None


def manifest_from_artifacts(
    experiment: str,
    config: Mapping[str, Any],
    seed: int,
    code_version: str,
    payload: Mapping[str, Any],
    artifact_paths: Iterable[Path],
    run_id: Optional[str] = None,
) -> RunManifest:
    """Manifest of a sweep job from its payload + staged export files."""
    return build_manifest(
        experiment,
        config,
        seed,
        code_version,
        payload,
        blame_doc=_pick_artifact(artifact_paths, ".blame.json"),
        source="sweep",
        run_id=run_id,
    )


def manifest_from_cache_entry(cache, digest: str) -> Optional[RunManifest]:
    """Rebuild the manifest of one cache entry, or ``None`` when the
    entry predates manifest metadata (no config/seed recorded) or is
    not a sweep job (e.g. bench-regression gate pseudo-entries)."""
    hit = cache.get(digest)
    if hit is None:
        return None
    payload, meta = hit
    if "config" not in meta or "seed" not in meta:
        return None
    return manifest_from_artifacts(
        str(meta.get("experiment", "")),
        meta["config"],
        int(meta["seed"]),
        str(meta.get("code", "")),
        payload,
        cache.artifact_paths(digest),
        run_id=digest,
    )


def manifest_from_exports(
    name: str,
    metrics_doc: Optional[Mapping[str, Any]] = None,
    blame_doc: Optional[Mapping[str, Any]] = None,
    source: str = "bench",
    code_version: Optional[str] = None,
) -> RunManifest:
    """Manifest of a bench/demo export (no sweep config or seed).

    Scalars come from the metrics dump's counters + gauges; the run id
    is a content digest of the export documents, so re-exporting an
    identical run is a no-op in the index.
    """
    if code_version is None:
        from repro.sweep.digests import code_version as _cv

        code_version = _cv()
    metrics: dict[str, float] = {}
    kernel = (metrics_doc or {}).get("kernel") or {}
    if metrics_doc:
        for group in ("counters", "gauges"):
            metrics.update(scalar_metrics(metrics_doc.get(group) or {}))
        if "now" in kernel:
            metrics["kernel.events_processed"] = kernel.get(
                "events_processed", 0
            )
    # Plain sorted-key JSON here, not the sweep canonicaliser: export
    # docs legitimately carry non-finite histogram bucket edges
    # (the +inf overflow edge), which canonical JSON rejects.
    run_id = hashlib.sha256(
        json.dumps(
            {
                "source": source,
                "name": name,
                "code": code_version,
                "metrics": metrics_doc or {},
                "blame": blame_doc or {},
            },
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        ).encode()
    ).hexdigest()
    makespan = _blame_makespan(blame_doc)
    if makespan is None and kernel.get("now") is not None:
        makespan = float(kernel["now"])
    return RunManifest(
        run_id=run_id,
        source=source,
        experiment=name,
        config={},
        seed=None,
        code_version=code_version,
        makespan_s=makespan,
        metrics=metrics,
        blame_s=dict((blame_doc or {}).get("seconds") or {}),
        blame_fractions=dict((blame_doc or {}).get("fractions") or {}),
        partial=bool((blame_doc or {}).get("partial")),
    )


# ---------------------------------------------------------------------------
# The index
# ---------------------------------------------------------------------------


def resolve_index_path(target) -> Path:
    """Resolve a user-facing index target to the ``runs.jsonl`` path.

    A path ending in ``.jsonl`` is used verbatim; anything else is
    treated as a sweep-cache root (or plain directory) and the index
    lives at ``<target>/v1/index/runs.jsonl``.
    """
    p = Path(target)
    if p.suffix == ".jsonl":
        return p
    return p.joinpath(*INDEX_RELPATH)


def env_index_path() -> Optional[Path]:
    """The fleet index named by ``$REPRO_FLEET_INDEX``, or ``None``."""
    value = os.environ.get(FLEET_INDEX_ENV)
    return resolve_index_path(value) if value else None


class FleetIndex:
    """Append-only JSONL index of run manifests."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    @classmethod
    def at_cache_root(cls, root) -> "FleetIndex":
        return cls(Path(root).joinpath(*INDEX_RELPATH))

    def exists(self) -> bool:
        return self.path.exists()

    def _records(self) -> Iterator[dict[str, Any]]:
        """The manifest fields of every readable record, first record
        per ``run_id`` (duplicates are identical by construction).
        Torn or foreign lines are skipped, never fatal."""
        seen: set[str] = set()
        for doc in read_json_lines(self.path):
            try:
                fields = _manifest_fields(doc)
            except (ValueError, KeyError, TypeError, OverflowError):
                continue
            if fields["run_id"] in seen:
                continue
            seen.add(fields["run_id"])
            yield fields

    def load(self) -> list[RunManifest]:
        """All readable manifests, deduplicated by ``run_id``."""
        return [RunManifest(**fields) for fields in self._records()]

    def run_ids(self) -> set[str]:
        """The ``run_id`` of every manifest :meth:`load` returns,
        without building the manifests."""
        return {fields["run_id"] for fields in self._records()}

    def append(self, manifest: RunManifest) -> None:
        """Append one manifest record (single atomic line write)."""
        append_line(self.path, manifest.line())

    def record(self, manifest: RunManifest, known_ids: Optional[set] = None) -> bool:
        """Append *manifest* unless its ``run_id`` is already indexed.

        With *known_ids* (a caller-maintained set) the duplicate check
        is O(1) instead of re-reading the file; the set is updated in
        place.  Returns True when a record was written.
        """
        ids = known_ids if known_ids is not None else self.run_ids()
        if manifest.run_id in ids:
            return False
        self.append(manifest)
        ids.add(manifest.run_id)
        return True

    def digest(self, manifests: Optional[list[RunManifest]] = None) -> str:
        """Order-free content digest of the deduplicated index."""
        if manifests is None:
            manifests = self.load()
        lines = sorted(m.line() for m in manifests)
        h = hashlib.sha256()
        for line in lines:
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()

    # -- rebuild ---------------------------------------------------------
    @staticmethod
    def rebuild_from_cache(cache) -> list[RunManifest]:
        """Recompute every sweep manifest from the cache tree alone.

        Entries without manifest metadata (pre-fleet entries, gate
        pseudo-entries) are skipped.  Bench/demo manifests are *not* in
        the cache and therefore not reproduced — rebuild parity holds
        for the ``source == "sweep"`` slice of an index.
        """
        out = []
        for digest in cache.entries():
            manifest = manifest_from_cache_entry(cache, digest)
            if manifest is not None:
                out.append(manifest)
        return out

    def rewrite(self, manifests: list[RunManifest]) -> None:
        """Atomically replace the index file with *manifests* (sorted
        by canonical line, the rebuild order)."""
        ensure_parent(self.path)
        from repro.fsutil import atomic_open

        with atomic_open(self.path) as fh:
            for line in sorted(m.line() for m in manifests):
                fh.write(line + "\n")
