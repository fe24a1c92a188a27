"""Units helpers, formatting, and the error hierarchy."""

import pytest

from repro import errors, units


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------


def test_time_helpers():
    assert units.seconds(2) == 2.0
    assert units.milliseconds(3) == pytest.approx(3e-3)
    assert units.microseconds(5) == pytest.approx(5e-6)
    assert units.nanoseconds(7) == pytest.approx(7e-9)


def test_size_helpers():
    assert units.kib(1) == 1024
    assert units.mib(2) == 2 << 20
    assert units.gib(1) == 1 << 30


def test_rate_helpers():
    assert units.gbit_per_s(8) == pytest.approx(1e9)
    assert units.gbyte_per_s(2) == pytest.approx(2e9)
    assert units.mbyte_per_s(5) == pytest.approx(5e6)


def test_compute_helpers():
    assert units.gflops(3) == pytest.approx(3e9)
    assert units.tflops(1.5) == pytest.approx(1.5e12)
    assert units.gflops_rate(2) == pytest.approx(2e9)


def test_format_time():
    assert units.format_time(0) == "0 s"
    assert units.format_time(2.5) == "2.500 s"
    assert units.format_time(3.2e-3) == "3.200 ms"
    assert units.format_time(4.5e-6) == "4.500 us"
    assert units.format_time(12e-9) == "12.0 ns"
    assert "ms" in units.format_time(-2e-3)


def test_format_bytes():
    assert units.format_bytes(512) == "512 B"
    assert units.format_bytes(2048) == "2.00 KiB"
    assert units.format_bytes(3 << 20) == "3.00 MiB"
    assert units.format_bytes(5 << 30) == "5.00 GiB"


def test_format_rate():
    assert units.format_rate(2e9) == "2.00 GB/s"
    assert units.format_rate(3e6) == "3.00 MB/s"
    assert units.format_rate(4e3) == "4.00 kB/s"
    assert units.format_rate(42) == "42.0 B/s"


# ---------------------------------------------------------------------------
# error hierarchy
# ---------------------------------------------------------------------------


def test_everything_is_a_repro_error():
    for name in (
        "SimulationError", "DeadlockError", "ConfigurationError",
        "TopologyError", "RoutingError", "MPIError", "CommunicatorError",
        "RankError", "SpawnError", "ResourceError", "AllocationError",
        "TaskError", "DependencyCycleError", "OffloadError",
    ):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError)


def test_mpi_error_subtree():
    assert issubclass(errors.RankError, errors.MPIError)
    assert issubclass(errors.SpawnError, errors.MPIError)


def test_deadlock_error_payload():
    e = errors.DeadlockError(3, 1.5)
    assert e.blocked == 3
    assert "1.5" in str(e)


def test_rank_error_message():
    e = errors.RankError(9, 4, what="root")
    assert "root 9" in str(e)
    assert "size 4" in str(e)


def test_process_killed_is_simulation_error():
    assert issubclass(errors.ProcessKilled, errors.SimulationError)
