"""Atomic filesystem writes for exports and cache entries.

Every on-disk artifact the simulator produces (traces, metrics dumps,
blame reports, sweep-cache results) is written through these helpers:
the parent directory is created on demand and the content lands under a
temporary name first, promoted with :func:`os.replace` only once fully
flushed.  Readers therefore never observe a torn file — a crash mid-write
leaves at worst a stale ``*.tmp*`` orphan, never a half-written artifact.
This is what makes the content-addressed sweep cache safe to share
between concurrent worker processes.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Union

PathLike = Union[str, os.PathLike]


def ensure_parent(path: PathLike) -> Path:
    """Create *path*'s parent directory (if missing); return the Path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


@contextmanager
def atomic_open(path: PathLike, mode: str = "w") -> Iterator[Any]:
    """Context manager: open a temp file beside *path*, rename on success.

    The temp file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem atomic rename.  On any
    exception the temp file is removed and *path* is left untouched.
    """
    p = ensure_parent(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(p.parent), prefix=p.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, p)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover - already renamed or gone
            pass
        raise


def atomic_write_text(path: PathLike, text: str) -> None:
    """Atomically write *text* to *path* (parents created)."""
    with atomic_open(path, "w") as fh:
        fh.write(text)


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Atomically write *data* to *path* (parents created)."""
    with atomic_open(path, "wb") as fh:
        fh.write(data)


def atomic_write_json(path: PathLike, obj: Any, indent: int = 2) -> None:
    """Atomically write *obj* as sorted-key JSON (trailing newline)."""
    with atomic_open(path, "w") as fh:
        json.dump(obj, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def append_line(path: PathLike, line: str, sync: bool = True) -> None:
    """Append one newline-terminated record to *path* (parents created).

    The whole record goes down in a single ``O_APPEND`` write, so
    concurrent appenders (sweep workers, parallel CI jobs) never
    interleave *within* a record on a local filesystem.  Readers of
    append-only JSONL files should still skip unparsable lines: a crash
    mid-write can leave at most one torn record at the tail, which is
    dropped on load and rewritten by the next append or rebuild.

    With ``sync=False`` the ``fsync`` is skipped: the write is still a
    single ``O_APPEND`` syscall (concurrent appenders never interleave)
    but durability is left to the OS.  High-rate advisory streams (the
    sweep telemetry channel) use this — losing the tail on a crash is
    acceptable there, a per-record fsync tax on the harness is not.
    """
    p = ensure_parent(path)
    data = (line.rstrip("\n") + "\n").encode()
    fd = os.open(p, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
        if sync:
            os.fsync(fd)
    finally:
        os.close(fd)


def json_lines(lines: Iterable[bytes]) -> Iterator[dict]:
    """The JSON object of each complete line of *lines* (as a binary
    file yields them): the one rule for reading what :func:`append_line`
    wrote.  A line without its newline (torn, or still being written) is
    left out; blank lines, lines that are not UTF-8 or not JSON, and
    non-objects are skipped.
    """
    for line in lines:
        if line[-1:] != b"\n":
            continue
        try:
            doc = json.loads(line.decode())
        except ValueError:
            continue
        if isinstance(doc, dict):
            yield doc


def read_json_lines(path: PathLike) -> Iterator[dict]:
    """:func:`json_lines` of the file at *path*, streamed (none when it
    is missing)."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        yield from json_lines(fh)
