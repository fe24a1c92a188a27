#!/usr/bin/env bash
# Tier-1 CI gate: unit/integration tests, determinism (with and
# without observability), and a tiny kernel-hot-path bench smoke run.
#
#     bash scripts/ci_checks.sh
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== runtime imports: no networkx or scipy, and each sweep role loads only what it runs =="
if grep -rnE --include='*.py' '^\s*(import|from) (networkx|scipy)\b' src/repro; then
  echo "import check FAILED: src/repro imports networkx or scipy"
  exit 1
fi
python -m pytest -q tests/sweep/test_import_weight.py

echo "== object lifetimes: every finished sweep experiment is freed by reference counting =="
python -m pytest -q tests/integration/test_object_lifetimes.py

echo "== tier-1 test suite =="
python -m pytest -x -q

echo "== determinism check =="
python scripts/check_determinism.py

echo "== E/X bench outputs match bench_tables.txt =="
EX_OUT=$(mktemp)
EX_STATUS=0
env -u REPRO_OBS_DIR python -m pytest benchmarks --benchmark-disable -s -q \
    -p no:cacheprovider > "$EX_OUT" || EX_STATUS=$?
if ! diff -u bench_tables.txt "$EX_OUT" || [ "$EX_STATUS" -ne 0 ]; then
  echo "E/X output check FAILED: the printed E/X tables moved (diff above)."
  echo "A deliberate model change regenerates the file and names every moved number:"
  echo "  env -u REPRO_OBS_DIR PYTHONPATH=src python -m pytest benchmarks --benchmark-disable -s -q -p no:cacheprovider > bench_tables.txt"
  exit 1
fi
rm -f "$EX_OUT"
echo "E/X outputs unchanged"

echo "== kernel hot-path smoke (tiny) =="
python benchmarks/bench_kernel_hotpath.py --tiny --out "$(mktemp)"

echo "== bench regression gate =="
python scripts/bench_regression.py --repeats 3

FLEET_TMP=$(mktemp -d)
TELE_TMP=$(mktemp -d)
trap 'rm -rf "$FLEET_TMP" "$TELE_TMP"' EXIT

echo "== sweep smoke (cold + warm, cache-served, telemetry totals) =="
python -m repro sweep --smoke --telemetry "$TELE_TMP"

echo "== raising sweep: its channel ends, obs top --follow returns [ABORTED] =="
if python -m repro sweep -e collective_scale -s 0,1 -j 1 --no-cache --quiet \
    --set collective_scale.ranks=0 \
    --telemetry "$TELE_TMP/raising.telemetry.jsonl" > /dev/null 2>&1; then
  echo "raising-sweep check FAILED: a sweep of ranks=0 exited 0"
  exit 1
fi
timeout 60 python -m repro obs top --follow \
    "$TELE_TMP/raising.telemetry.jsonl" > "$TELE_TMP/raising.top.txt"
if ! grep -q "\[ABORTED\]" "$TELE_TMP/raising.top.txt"; then
  echo "raising-sweep check FAILED: the last frame shows no [ABORTED]"
  exit 1
fi
echo "raising-sweep check ok (channel ends with sweep.end, aborted)"

echo "== chaos parity smoke (injected faults must converge) =="
python -m repro sweep --smoke-chaos

echo "== perfbench smokes (every pass checked against perfbench/references.json) =="
python -m pytest -q perfbench/test_perfbench.py

echo "== harness telemetry: obs top + fleet Chrome export render =="
python -m repro obs top "$TELE_TMP/cold.telemetry.jsonl" \
    --chrome-out "$TELE_TMP/fleet.trace.json"
python -m repro obs top "$TELE_TMP/warm.telemetry.jsonl" --json > "$TELE_TMP/top.json"
python - "$TELE_TMP" <<'PYEOF'
import json, sys
from pathlib import Path
tmp = Path(sys.argv[1])
trace = json.loads((tmp / "fleet.trace.json").read_text())
events = trace["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "fleet Chrome export has no job spans"
assert any(e.get("cat") == "computed" for e in spans), "no computed spans"
top = json.loads((tmp / "top.json").read_text())
assert top["finished"] and top["n_completed"] == top["n_total"], top
summary = json.loads((tmp / "warm.telemetry.json").read_text())
assert summary["n_jobs"] == summary["n_completed"] == top["n_total"], summary
assert summary["cache"]["hits"] == summary["n_cached"] == summary["n_jobs"], summary
print(f"telemetry render ok: {len(spans)} fleet spans, "
      f"{summary['n_jobs']} jobs accounted for, "
      f"warm hit rate {summary['cache']['hit_rate']:.0%}")
PYEOF

echo "== fleet observability: sweep -> rebuild parity -> sentinel =="
python -m repro sweep --experiments pingpong,checkpoint_resilience --seeds 0:3 \
    --jobs 1 --cache-dir "$FLEET_TMP/cache" --obs-dir "$FLEET_TMP/obs" \
    --quiet > /dev/null
STRAY=$(find "$FLEET_TMP/obs" "$FLEET_TMP/cache" -name '*.manifest.json')
if [ -n "$STRAY" ]; then
  echo "fleet check FAILED: a sweep job's only manifest is its index record, but found:"
  echo "$STRAY"
  exit 1
fi
python -m repro obs rebuild --cache-dir "$FLEET_TMP/cache" --check
python -m repro obs sentinel --cache-dir "$FLEET_TMP/cache" \
    --baseline benchmarks/baselines
echo "== fleet sentinel negative test (perturbed results must fail) =="
if python -m repro obs sentinel --cache-dir "$FLEET_TMP/cache" \
    --baseline benchmarks/baselines --perturb 1.5 > /dev/null 2>&1; then
  echo "sentinel negative test FAILED: perturbed results passed the gate"
  exit 1
fi
echo "sentinel negative test ok (perturbed results rejected)"

echo "== fidelity smoke (analytic 100k-rank collective, closed-form) =="
python -m repro sweep --experiments collective_scale --seeds 0 --no-cache \
    --quiet --set ranks=100000 > "$(mktemp)"

echo "== critical-path smoke (one observed demo, one demo record in the index) =="
REPRO_FLEET_INDEX="$FLEET_TMP/demo.jsonl" python -m repro demo --blame \
    --what-if extoll.bw=2 --what-if spawn.latency=0.25 \
    --what-if smfu.segment_bytes=0.25 \
    --report --report-top 3 > "$(mktemp)"
python - "$FLEET_TMP/demo.jsonl" <<'PYEOF'
import json, sys
records = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
sources = [r.get("source") for r in records]
assert sources == ["demo"], f"expected one demo record, got {sources}"
print("demo index ok: one demo record")
PYEOF

echo "== ci checks passed =="
