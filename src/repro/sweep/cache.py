"""Content-addressed on-disk result cache.

Layout (one directory per job digest, fanned out on the first two hex
characters to keep directories small)::

    <root>/v1/objects/ab/abcdef.../result.json      # payload + meta
    <root>/v1/objects/ab/abcdef.../artifacts/...    # obs exports (optional)

``result.json`` is written **last** and atomically (temp file +
``os.replace``), so an entry is visible only once complete: readers
never see a half-written result, and two workers racing on the same
digest both write identical content (the digest pins the inputs, the
simulator is deterministic) — last rename wins harmlessly.

Invalidation is purely by key: the digest embeds the config and the
code version, so changed configs or changed simulator sources simply
miss.  Stale entries are garbage, never wrong answers; ``prune()``
removes them wholesale.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import warnings
from pathlib import Path
from typing import Iterable, Optional

from repro.fsutil import atomic_write_bytes, atomic_write_json

#: Bump when the entry format changes (old trees are then ignored).
CACHE_FORMAT = "v1"

#: Per-entry schema stamp inside ``result.json``.  Entries written by a
#: *newer* schema are treated as corrupt misses rather than served
#: verbatim — a downgraded reader must never hand back a payload whose
#: format it cannot vouch for.  Entries without a stamp predate the
#: field and are the current format.
CACHE_SCHEMA = 1

#: Bytes asked of each ``os.read`` of an entry: most entries arrive in
#: one read, and the next read returns end of file.
_READ_CHUNK = 1 << 16


class ResultCache:
    """A content-addressed store of sweep-job results."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.objects = self.root / CACHE_FORMAT / "objects"
        # Plain-string prefix: a cache hit builds no Path objects.
        self._objects = str(self.objects)
        #: Hit/miss/store counters for progress and harness telemetry.
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Misses caused by an unreadable entry (subset of ``misses``).
        self.corrupt = 0
        #: Bytes written into entries by :meth:`put` (payload + artifacts).
        self.bytes_promoted = 0

    def counts(self) -> dict:
        """Snapshot of the efficiency counters (telemetry channel)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "stores": self.stores,
            "bytes_promoted": self.bytes_promoted,
        }

    # -- paths -----------------------------------------------------------
    def entry_dir(self, digest: str) -> Path:
        return self.objects / digest[:2] / digest

    def _result_file(self, digest: str) -> str:
        return os.sep.join((self._objects, digest[:2], digest, "result.json"))

    # -- protocol --------------------------------------------------------
    def get(self, digest: str) -> Optional[tuple[dict, dict]]:
        """Return ``(payload, meta)`` for *digest*, or ``None`` on miss.

        A corrupt entry (interrupted legacy write, manual tampering) is
        treated as a miss — the job simply re-runs and overwrites it.
        """
        # Bare system calls: a buffered file object costs a hit more
        # than the read itself.
        try:
            fd = os.open(self._result_file(digest), os.O_RDONLY)
            try:
                chunks = []
                while chunk := os.read(fd, _READ_CHUNK):
                    chunks.append(chunk)
            finally:
                os.close(fd)
        except OSError:
            # Absent, or not a readable file (``os.open`` succeeds on
            # a directory, ``os.read`` does not): a plain miss.
            self.misses += 1
            return None
        try:
            doc = json.loads(b"".join(chunks))
            payload, meta = doc["payload"], doc.get("meta", {})
            schema = doc.get("schema", CACHE_SCHEMA)
        except (ValueError, KeyError, TypeError):
            # The file exists but does not parse as a complete entry —
            # a genuinely corrupt object, not a plain absence.
            self.corrupt += 1
            self.misses += 1
            return None
        if (
            schema != CACHE_SCHEMA
            or not isinstance(payload, dict)
            or not isinstance(meta, dict)
        ):
            # An unknown (usually future) entry format, or a payload or
            # meta that is not a JSON object: unreadable for this
            # reader, so it counts as corrupt and the job re-runs.
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return payload, meta

    def put(
        self,
        digest: str,
        payload: dict,
        meta: Optional[dict] = None,
        artifacts: Optional[Iterable[Path]] = None,
    ) -> Path:
        """Store *payload* (and optional artifact files) under *digest*.

        *artifacts* are copied into the entry's ``artifacts/`` directory
        first; ``result.json`` lands last so the entry only becomes
        visible complete.  Returns the entry directory.
        """
        entry = self.entry_dir(digest)
        names: list[str] = []
        for src in artifacts or ():
            src = Path(src)
            data = src.read_bytes()
            atomic_write_bytes(entry / "artifacts" / src.name, data)
            names.append(src.name)
            self.bytes_promoted += len(data)
        doc = {
            "schema": CACHE_SCHEMA,
            "payload": payload,
            "meta": {
                **(meta or {}),
                "artifacts": sorted(names),
                "created_unix": time.time(),
            },
        }
        result_file = self._result_file(digest)
        atomic_write_json(result_file, doc)
        try:
            self.bytes_promoted += os.stat(result_file).st_size
        except OSError:  # pragma: no cover - raced removal
            pass
        self.stores += 1
        return entry

    def has(self, digest: str) -> bool:
        return os.path.exists(self._result_file(digest))

    def artifact_paths(self, digest: str) -> list[Path]:
        """The stored artifact files of an entry (empty if none)."""
        adir = self.entry_dir(digest) / "artifacts"
        return sorted(adir.iterdir()) if adir.is_dir() else []

    def export_artifacts(self, digest: str, dest_dir) -> list[Path]:
        """Copy an entry's artifacts into *dest_dir*; returns new paths."""
        out = []
        for src in self.artifact_paths(digest):
            dst = Path(dest_dir) / src.name
            atomic_write_bytes(dst, src.read_bytes())
            out.append(dst)
        return out

    # -- maintenance -----------------------------------------------------
    def entries(self) -> list[str]:
        """All complete entry digests currently stored."""
        if not self.objects.is_dir():
            return []
        return sorted(
            p.parent.name for p in self.objects.glob("*/*/result.json")
        )

    def prune(self) -> int:
        """Delete every entry; returns how many were removed.

        Pruning removes cached **objects** only — the fleet run index
        under the same root keeps its manifests and is now stale
        (``obs rebuild --check`` will flag the drift).  When pruned
        digests are still indexed, a warning points at
        ``python -m repro obs rebuild`` to reconcile; the rebuild drops
        every pruned digest because it derives purely from the
        surviving cache entries.
        """
        digests = self.entries()
        for digest in digests:
            shutil.rmtree(self.entry_dir(digest), ignore_errors=True)
            # Drop the 2-hex fan-out directory once it empties.
            try:
                self.entry_dir(digest).parent.rmdir()
            except OSError:
                pass
        self._warn_stale_index(digests)
        return len(digests)

    def _warn_stale_index(self, pruned: list[str]) -> None:
        if not pruned:
            return
        from repro.obs.fleet import FleetIndex

        index = FleetIndex.at_cache_root(self.root)
        if not index.exists():
            return
        stale = index.run_ids() & set(pruned)
        if stale:
            warnings.warn(
                f"pruned {len(stale)} cache entr"
                f"{'y' if len(stale) == 1 else 'ies'} still referenced by "
                f"the fleet run index at {index.path}; run "
                f"`python -m repro obs rebuild` to reconcile",
                RuntimeWarning,
                stacklevel=2,
            )
