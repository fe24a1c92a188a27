"""A sweep imports only what its jobs run.

Setting a sweep up (resolving its spec, opening its cache) must load
neither the engine nor the run index nor ``multiprocessing``; only a
pool loads the pool modules; a cache-served sweep must not load the
simulator; and a job (what a pool worker runs) must load neither
networkx nor the analysis half of :mod:`repro.obs`.  Each check runs in
a fresh interpreter, so modules the test process already imported
cannot hide an eager import.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sweep import ResultCache, SweepSpec, run_sweep

SRC = Path(__file__).resolve().parents[2] / "src"

#: What a fully cache-served sweep has no use for.
HEAVY = ("numpy", "networkx", "repro.simkernel", "repro.network", "repro.mpi",
         "repro.deep")

#: What only a process pool needs.
POOL = ("multiprocessing", "concurrent.futures.process")

#: What a sweep's set-up (import, ``SweepSpec.resolve()``,
#: ``ResultCache(root)``) has no use for.
NOT_IN_SETUP = ("repro.sweep.engine", "repro.sweep.policy", "repro.sweep.chaos",
                "repro.obs.fleet", *POOL)

#: The modules of :mod:`repro.obs` that only analyses and exports use.
OBS_ANALYSIS = tuple(
    f"repro.obs.{name}"
    for name in ("critpath", "compare", "export", "report", "timeline")
)

#: One small job of each experiment.
TINY = {
    "alltoall_bridge": {"n_cluster": 2, "n_booster": 2, "payload_kib": 4},
    "checkpoint_resilience": {"work_s": 200.0, "mtbf_s": 120.0},
    "collective_scale": {"ranks": 8},
    "coupled_modes": {"n_booster": 4, "slabs": 4, "slab_mib": 1},
    "offload_stencil": {"n_booster": 4, "tiles": 4, "sweeps": 1},
    "pingpong": {"rounds": 1, "sizes_kib": [1], "n_pairs": 1},
    "spawn_cost": {"n_children": 4, "n_booster": 8},
}

SPEC = dict(
    experiments=["pingpong", "checkpoint_resilience"],
    seeds=[0, 1],
    overrides={
        "pingpong": {"rounds": 1, "sizes_kib": [1], "n_pairs": 1},
        "checkpoint_resilience": {"work_s": 200.0, "mtbf_s": 120.0},
    },
)


def run_fresh(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, check=True,
    )
    return out.stdout


def test_cache_served_sweep_loads_no_simulator(tmp_path):
    cache_dir = tmp_path / "cache"
    cold = run_sweep(SweepSpec(**SPEC), cache=ResultCache(cache_dir))
    probe = """
import json, sys
spec, cache_dir, heavy = json.loads(sys.argv[1])
import repro.sweep
loaded = {"import": [m for m in heavy if m in sys.modules]}
from repro.sweep import ResultCache, SweepSpec, run_sweep
SweepSpec(**spec).resolve()
loaded["resolve"] = [m for m in heavy if m in sys.modules]
report = run_sweep(SweepSpec(**spec), cache=ResultCache(cache_dir))
loaded["sweep"] = [m for m in heavy if m in sys.modules]
print(json.dumps({"loaded": loaded, "n_cached": report.n_cached,
                  "digest": report.digest()}))
"""
    out = json.loads(run_fresh(probe, json.dumps([SPEC, str(cache_dir), HEAVY])))
    assert out["loaded"] == {"import": [], "resolve": [], "sweep": []}
    assert out["n_cached"] == len(cold.results)
    assert out["digest"] == cold.digest()


def test_public_names_and_subpackages_resolve_lazily():
    probe = """
import json, sys
import repro
before = "repro.deep" in sys.modules
names = {n: type(getattr(repro, n)).__name__ for n in repro.__all__}
from repro import *
print(json.dumps({
    "before": before,
    "names": names,
    "deep": repro.deep.__name__,
    "star": Simulator.__module__,
    "dir": all(n in dir(repro) for n in ("sweep", "Simulator", "__version__")),
}))
"""
    out = json.loads(run_fresh(probe))
    assert out["before"] is False
    import repro

    assert sorted(out["names"]) == sorted(repro.__all__)
    assert out["deep"] == "repro.deep"
    assert out["star"] == "repro.simkernel.simulator"
    assert out["dir"] is True
    assert repro.Simulator is repro.simkernel.Simulator


def test_unknown_attribute_still_raises():
    import repro

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name


def test_jobs_of_every_experiment_load_no_networkx():
    probe = """
import json, sys
overrides, obs_analysis = json.loads(sys.argv[1])
import repro.sweep
loaded = {"import": [m for m in obs_analysis if m in sys.modules]}
from repro.sweep import SweepSpec, run_sweep
report = run_sweep(SweepSpec(experiments=sorted(overrides), seeds=[0],
                             overrides=overrides))
loaded["jobs"] = [m for m in (*obs_analysis, "networkx", "scipy")
                  if m in sys.modules]
print(json.dumps({
    "loaded": loaded,
    "ran": sorted(r.job.experiment for r in report.results if not r.cached),
    "simulator": "repro.network.routing" in sys.modules,
}))
"""
    from repro.sweep.experiments import experiment_names

    assert sorted(TINY) == experiment_names()
    out = json.loads(run_fresh(probe, json.dumps([TINY, OBS_ANALYSIS])))
    assert out["ran"] == sorted(TINY)
    assert out["simulator"] is True
    assert out["loaded"] == {"import": [], "jobs": []}


def test_obs_names_resolve_on_first_access():
    probe = """
import json, sys
import repro.obs
loaded = sorted(m for m in sys.modules if m.startswith("repro.obs."))
from repro.obs import CausalGraph
print(json.dumps({
    "import": loaded,
    "first": sorted(m for m in sys.modules if m.startswith("repro.obs.")),
}))
"""
    out = json.loads(run_fresh(probe))
    assert out == {"import": [], "first": ["repro.obs.critpath"]}

    import repro.obs

    for name in repro.obs.__all__:
        module = importlib.import_module(repro.obs._EXPORTS[name])
        assert getattr(repro.obs, name) is getattr(module, name)
    assert set(repro.obs.__all__) <= set(dir(repro.obs))
    from repro.obs import compare

    assert compare.__name__ == "repro.obs.compare"
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.obs.no_such_name


def test_setup_path_loads_no_engine_index_or_pool(tmp_path):
    probe = """
import json, sys
spec, cache_dir, unused = json.loads(sys.argv[1])
from repro.sweep import ResultCache, SweepSpec
jobs = SweepSpec(**spec).resolve()
ResultCache(cache_dir)
print(json.dumps({"n_jobs": len(jobs),
                  "loaded": [m for m in unused if m in sys.modules]}))
"""
    args = json.dumps([SPEC, str(tmp_path / "cache"), NOT_IN_SETUP])
    assert json.loads(run_fresh(probe, args)) == {"n_jobs": 4, "loaded": []}


def test_serial_and_cache_served_sweeps_load_no_pool(tmp_path):
    probe = """
import json, sys
spec, cache_dir, pool = json.loads(sys.argv[1])
from repro.sweep import ResultCache, SweepSpec, run_sweep
cache = ResultCache(cache_dir)
serial = run_sweep(SweepSpec(**spec), jobs=1, cache=cache)
loaded = {"serial": [m for m in pool if m in sys.modules]}
served = run_sweep(SweepSpec(**spec), jobs=2, cache=cache)
loaded["served"] = [m for m in pool if m in sys.modules]
print(json.dumps({"loaded": loaded, "ran": serial.n_ran,
                  "cached": served.n_cached,
                  "same": serial.digest() == served.digest()}))
"""
    out = json.loads(run_fresh(probe, json.dumps([SPEC, str(tmp_path), POOL])))
    assert out == {"loaded": {"serial": [], "served": []}, "ran": 4,
                   "cached": 4, "same": True}


def test_sweep_names_are_their_defining_modules_objects():
    probe = """
import importlib, json
import repro.sweep
from repro.sweep import *
from repro.sweep.engine import (Job, JobResult, SweepReport, SweepSpec,
                                execute_job, run_chaos_smoke, run_smoke,
                                run_sweep)
mismatched = [
    name for name in repro.sweep.__all__
    if getattr(repro.sweep, name)
    is not getattr(importlib.import_module(repro.sweep._EXPORTS[name]), name)
]
print(json.dumps({
    "mismatched": mismatched,
    "spec": repro.sweep.SweepSpec is SweepSpec,
    "job": repro.sweep.Job is Job,
    "star": sorted(n for n in repro.sweep.__all__ if n not in globals()),
}))
"""
    out = json.loads(run_fresh(probe))
    assert out == {"mismatched": [], "spec": True, "job": True, "star": []}


def test_dir_lists_exports_and_unknown_names_load_nothing():
    probe = """
import json, sys
import repro.sweep
listed = dir(repro.sweep)
try:
    repro.sweep.no_such_name
except AttributeError as exc:
    error = str(exc)
else:
    error = None
print(json.dumps({
    "unlisted": [n for n in (*repro.sweep.__all__, "engine", "digests")
                 if n not in listed],
    "error": error,
    "loaded": sorted(m for m in sys.modules if m.startswith("repro.sweep.")),
}))
"""
    out = json.loads(run_fresh(probe))
    assert out["unlisted"] == []
    assert "no_such_name" in out["error"]
    assert out["loaded"] == []


def test_submodules_resolve_after_a_bare_import():
    probe = """
import json, sys
import repro.obs, repro.sweep
before = sorted(m for m in sys.modules
                if m.startswith(("repro.sweep.", "repro.obs.")))
print(json.dumps({
    "before": before,
    "engine": repro.sweep.engine.__name__,
    "digests": repro.sweep.digests.__name__,
    "compare": repro.obs.compare.__name__,
}))
"""
    out = json.loads(run_fresh(probe))
    assert out == {"before": [], "engine": "repro.sweep.engine",
                   "digests": "repro.sweep.digests",
                   "compare": "repro.obs.compare"}
