"""Derived performance metrics used across experiments."""

from __future__ import annotations

from repro.errors import ConfigurationError


def speedup(t_serial: float, t_parallel: float) -> float:
    """Classic speedup ``T1 / Tp``."""
    if t_parallel <= 0:
        raise ConfigurationError("parallel time must be > 0")
    return t_serial / t_parallel


def parallel_efficiency(t_serial: float, t_parallel: float, p: int) -> float:
    """Speedup per processor."""
    if p < 1:
        raise ConfigurationError("p must be >= 1")
    return speedup(t_serial, t_parallel) / p


def amdahl_speedup(serial_fraction: float, p: int) -> float:
    """Amdahl's law upper bound for *p* processors."""
    if not 0 <= serial_fraction <= 1:
        raise ConfigurationError("serial_fraction must be in [0, 1]")
    if p < 1:
        raise ConfigurationError("p must be >= 1")
    return 1.0 / (serial_fraction + (1.0 - serial_fraction) / p)


def gustafson_speedup(serial_fraction: float, p: int) -> float:
    """Gustafson's scaled speedup (weak scaling)."""
    if not 0 <= serial_fraction <= 1:
        raise ConfigurationError("serial_fraction must be in [0, 1]")
    if p < 1:
        raise ConfigurationError("p must be >= 1")
    return p - serial_fraction * (p - 1)


def karp_flatt(measured_speedup: float, p: int) -> float:
    """Experimentally determined serial fraction (Karp-Flatt metric)."""
    if p < 2:
        raise ConfigurationError("Karp-Flatt needs p >= 2")
    if measured_speedup <= 0:
        raise ConfigurationError("speedup must be > 0")
    return (1.0 / measured_speedup - 1.0 / p) / (1.0 - 1.0 / p)


def energy_to_solution(power_watts: float, time_s: float) -> float:
    """Joules for a run at constant mean power."""
    if power_watts < 0 or time_s < 0:
        raise ConfigurationError("power and time must be >= 0")
    return power_watts * time_s
