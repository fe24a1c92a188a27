"""deep-sim: a discrete-event reproduction of the DEEP project.

Reproduces *"The DEEP Project: Pursuing Cluster-Computing in the
Many-Core Era"* (Eicker, Lippert, Suarez, Moschny — ICPP/HUCAA 2013):
the **Cluster-Booster architecture** with InfiniBand + EXTOLL fabrics,
**Global MPI** via ``MPI_Comm_spawn`` over the SMFU bridge, the
**OmpSs offload** programming model, and **ParaStation** resource
management — all as a deterministic discrete-event simulation.

Quickstart::

    from repro import DeepSystem, MachineConfig
    from repro.apps import coupled_application
    from repro.deep.application import run_application

    system = DeepSystem(MachineConfig(n_cluster=4, n_booster=8))
    report = run_application(system, coupled_application(), mode="cluster-booster")
    print(report.total_time_s)

Layer map (bottom-up): :mod:`repro.simkernel` (event kernel) ->
:mod:`repro.hardware` / :mod:`repro.network` (machine models) ->
:mod:`repro.mpi` / :mod:`repro.parastation` (system software) ->
:mod:`repro.ompss` / :mod:`repro.deep` (programming model + the
paper's contribution) -> :mod:`repro.apps` / :mod:`repro.analysis`.

The public names below and every subpackage load on first access, so
harness-only imports (:mod:`repro.sweep`, :mod:`repro.obs`) never load
the simulator.
"""

import importlib

from repro._version import __version__

#: Public name -> the module that defines it.  Resolved on first access
#: (PEP 562), so ``import repro.sweep`` or ``import repro.errors`` does
#: not pay for the simulator and numpy.
_EXPORTS = {
    "Application": "repro.deep.application",
    "DeepSystem": "repro.deep",
    "ExchangePhase": "repro.deep.application",
    "KernelPhase": "repro.deep.application",
    "MPIWorld": "repro.mpi",
    "Machine": "repro.deep",
    "MachineConfig": "repro.deep",
    "OmpSsRuntime": "repro.ompss",
    "RunReport": "repro.deep.application",
    "SerialPhase": "repro.deep.application",
    "Simulator": "repro.simkernel",
    "TaskGraph": "repro.ompss",
    "run_application": "repro.deep.application",
}

#: Subpackages and modules reachable as ``repro.<name>`` without an
#: explicit ``import repro.<name>``.
_SUBMODULES = frozenset({
    "analysis", "apps", "config", "deep", "errors", "fidelity", "fsutil",
    "hardware", "io", "mpi", "network", "obs", "ompss", "parastation",
    "resilience", "simkernel", "sweep", "units",
})

__all__ = sorted([*_EXPORTS, "__version__"])


def _lazy_attributes(namespace: dict, exports: dict, submodules: frozenset):
    """The PEP 562 ``(__getattr__, __dir__)`` of a package whose
    globals are *namespace*.

    A name of *exports* (name -> the module that defines it) or of
    *submodules* loads on first access and is then kept in *namespace*,
    so the next access is a plain global lookup.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        if name in exports:
            value = getattr(importlib.import_module(exports[name]), name)
        elif name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports, *submodules})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_attributes(globals(), _EXPORTS, _SUBMODULES)
