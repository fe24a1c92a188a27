"""A cache-served sweep must not load the simulator.

Each check runs in a fresh interpreter, so modules the test process
already imported cannot hide an eager import.
"""

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
