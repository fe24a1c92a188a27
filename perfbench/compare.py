"""Compare a parent tree and a change tree with the same benchmark code.

    python3 perfbench/compare.py --parent ../parent --change .

Each tree is the root of a checkout; ``perfbench/run.py`` of *this*
checkout runs in both, so the benchmark code and settings are
identical.  For every workload it runs :data:`~perfbench.stats.MIN_PAIRS`
pairs of untraced runs of ``run_seconds`` (from ``BENCHMARK.json``)
each, alternating which side goes first, with seed ``i`` for pair
``i``.  It prints one row per end-to-end metric, and one per raw host
time of the run's ``raw`` line (judged with :data:`RAW_BOUND`), with
both sides' medians and quartiles, the pairs the change won, and a
verdict from :func:`perfbench.stats.verdict`: ``improved`` (at least
9/10 wins and a median gap wider than the parent's IQR), ``regressed``
(worse by more than the metric's bound), ``unresolved`` (spread wider
than the bound) or ``unchanged``.  Exits 1 if any metric regressed or
any run failed its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_ROOT)

from perfbench.stats import MIN_PAIRS, REGRESSED, verdict  # noqa: E402

RUN = os.path.join(BENCH_ROOT, "perfbench", "run.py")

#: Bound for the raw host times, which ``BENCHMARK.json`` does not
#: bound: the widest any metric may have.
RAW_BOUND = 0.25


def run_once(tree: str, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One untraced run: its result and its ``raw`` metrics."""
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{tree}: {workload} seed {seed} printed no result:\n{out.stderr[-2000:]}")
    raw = next(json.loads(line[4:]) for line in lines if line.startswith("raw "))
    return json.loads(lines[-1]), raw


def main(argv=None) -> int:
    with open(os.path.join(BENCH_ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the change checkout")
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]],
                    help="workload to run (repeatable; default: all)")
    args = ap.parse_args(argv)

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    status = 0
    print(f"{'workload':<12} {'metric':<16} {'parent median [q1, q3]':<34}"
          f"{'change median [q1, q3]':<34} {'delta':>7} {'wins':>6}  verdict")
    for workload in workloads:
        values = {side: {} for side in trees}
        bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
        failed = {side: 0 for side in trees}
        for i in range(MIN_PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, raw = run_once(trees[side], workload, i, bench["run_seconds"])
                if not result["correct"]:
                    status = 1
                failed[side] += result["failed"]
                for name, metric in result["metrics"].items():
                    values[side].setdefault(name, []).append(metric["value"])
                for name, metric in raw.items():
                    bounds[name] = (metric["better"], RAW_BOUND)
                    values[side].setdefault(name, []).append(metric["value"])
        for name, (better, bound) in bounds.items():
            v, d = verdict(values["parent"][name], values["change"][name], better, bound)
            p, c = d["parent"], d["change"]
            if v == REGRESSED:
                status = 1
            print(f"{workload:<12} {name:<16} "
                  f"{f'{p.median:.6g} [{p.q1:.6g}, {p.q3:.6g}]':<34}"
                  f"{f'{c.median:.6g} [{c.q1:.6g}, {c.q3:.6g}]':<34} "
                  f"{d['delta']:>+7.1%} {d['wins']:>2}/{d['pairs']:<3}  {v}")
        if failed["change"] > failed["parent"]:
            print(f"{workload:<12} more jobs failed on the change ({failed['change']}) "
                  f"than on the parent ({failed['parent']}): no gain counts")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
