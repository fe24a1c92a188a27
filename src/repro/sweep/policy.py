"""Failure policy for the sweep engine.

The policy layer is what lets a sweep degrade gracefully instead of
aborting: hung jobs are killed after a wall-clock budget, failed jobs
are retried a bounded number of times with exponential backoff, a
crashed worker pool is respawned, and jobs that exhaust their retry
budget are *quarantined* — recorded in the report's structured failure
section while the rest of the fleet completes.

Everything here is deterministic on purpose.  Backoff jitter is seeded
from the job digest (:func:`repro.sweep.digests.uniform`), never from a
process RNG, so two machines replaying the same failing sweep sleep the
same schedule — and the chaos tests can assert exact convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.sweep import digests


@dataclass(frozen=True)
class FailurePolicy:
    """How a sweep responds to job failures.

    The preset :data:`PROPAGATE` (what ``run_sweep(policy=None)`` runs
    under) is the legacy contract: the first exception propagates and
    aborts the sweep.  Any other policy, even ``FailurePolicy()``,
    switches to degrade-gracefully semantics.
    """

    #: Per-job wall-clock budget in seconds (``None`` disables timeouts).
    #: Enforced only on pooled sweeps (``jobs >= 2``) — the serial path
    #: cannot kill itself.
    timeout_s: Optional[float] = None
    #: Failed attempts a job may burn before quarantine; the job runs at
    #: most ``max_retries + 1`` times.
    max_retries: int = 3
    #: First-retry backoff delay in seconds.
    backoff_base_s: float = 0.05
    #: Multiplier applied per additional failure.
    backoff_factor: float = 2.0
    #: Upper bound on any single backoff delay.
    backoff_max_s: float = 2.0
    #: Jitter amplitude: a delay ``d`` becomes ``d * (1 ± jitter)``,
    #: deterministically per (job digest, failure count).
    jitter: float = 0.5
    #: Pool respawns after :class:`BrokenProcessPool` before the sweep
    #: gives up and quarantines whatever was in flight.
    max_pool_restarts: int = 3
    #: Abort the sweep at the first quarantined job.
    fail_fast: bool = False
    #: Abort once more than this many jobs are quarantined
    #: (``None`` = never; ``0`` behaves like ``fail_fast``).
    max_failures: Optional[int] = None

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )
        if self.max_pool_restarts < 0:
            raise ConfigurationError(
                f"max_pool_restarts must be >= 0, got {self.max_pool_restarts}"
            )
        if self.max_failures is not None and self.max_failures < 0:
            raise ConfigurationError(
                f"max_failures must be >= 0, got {self.max_failures}"
            )

    def backoff_s(self, digest: str, failures: int) -> float:
        """Delay before the retry that follows the *failures*-th failure.

        Exponential in the failure count, capped at ``backoff_max_s``,
        with deterministic jitter derived from the job digest — no RNG
        state, identical across machines and replays.
        """
        if failures < 1:
            raise ConfigurationError(
                f"backoff_s needs failures >= 1, got {failures}"
            )
        raw = min(
            self.backoff_base_s * self.backoff_factor ** (failures - 1),
            self.backoff_max_s,
        )
        u = digests.uniform(f"backoff|{digest}|{failures}")
        return raw * (1.0 + self.jitter * (2.0 * u - 1.0))


#: The legacy contract: no timeout, no retry, no pool restart — the
#: first failed attempt raises out of ``run_sweep``.  Known by identity:
#: an equal policy built by hand degrades gracefully like any other.
PROPAGATE = FailurePolicy(max_retries=0, max_pool_restarts=0)


@dataclass
class JobFailure:
    """One quarantined job: the structured record of what went wrong.

    Carried on :attr:`SweepReport.failures` and in ``as_dict()`` —
    strictly outside :meth:`SweepReport.digest`, which covers only the
    deterministic payloads of jobs that *succeeded*.
    """

    index: int
    experiment: str
    seed: int
    digest: str
    error_class: str
    message: str
    #: SHA-256 prefix of the formatted traceback — stable enough to
    #: dedup "same crash" across runs without shipping full tracebacks
    #: into summary JSON.
    traceback_digest: str
    attempts: int
    timed_out: bool = False

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "experiment": self.experiment,
            "seed": self.seed,
            "digest": self.digest,
            "error_class": self.error_class,
            "message": self.message,
            "traceback_digest": self.traceback_digest,
            "attempts": self.attempts,
            "timed_out": self.timed_out,
        }

    @property
    def label(self) -> str:
        return f"{self.experiment} seed={self.seed}"
