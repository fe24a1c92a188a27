"""Peak resident memory of this process plus its child processes."""

from __future__ import annotations

import glob
import os
import threading


def _hwm_kib(pid) -> int:
    """``VmHWM`` (peak RSS) of *pid* in KiB, 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def child_pids() -> list[str]:
    """Pids of this process's running children, from any of its threads."""
    pids = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path) as fh:
                pids.extend(fh.read().split())
        except OSError:
            pass
    return pids


#: Seconds between two samples of the children's peaks.
INTERVAL_S = 0.02


def _reset_own_peak() -> None:
    """Restart this process's ``VmHWM`` from its current RSS."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


class PeakRss:
    """Samples the peak RSS of this process and its children while the block runs.

    This process's own peak is reset on entry, so it covers only the
    block, not earlier passes.  Each child's ``VmHWM`` only grows, so
    the last value read before it exits is its peak; sampling every
    :data:`INTERVAL_S` bounds how much a child can allocate unseen in
    its final moments.  The result is this process's peak plus the
    peaks of all its children.
    """

    def __init__(self) -> None:
        self._child_kib: dict[str, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self.mib = 0.0

    def _sample(self) -> None:
        for pid in child_pids():
            kib = _hwm_kib(pid)
            if kib > self._child_kib.get(pid, 0):
                self._child_kib[pid] = kib

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def __enter__(self) -> "PeakRss":
        _reset_own_peak()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
        own = _hwm_kib(os.getpid())
        self.mib = (own + sum(self._child_kib.values())) / 1024.0
