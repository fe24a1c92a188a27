"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``      — version, layer map, experiment list;
* ``machine``   — build a DEEP machine and print its inventory;
* ``demo``      — run the quickstart scenario end to end;
* ``sweep``     — fan experiment x seed jobs across cores with a
  content-addressed result cache (see docs/SWEEP.md);
* ``obs``       — fleet observability over the run index:
  ``ls``/``show`` slices, ``diff`` two slices (blame + metric deltas
  with seed-level CIs; exits 3 when any shift is significant),
  ``sentinel`` against committed baselines, ``rebuild`` the index from
  cached artifacts, ``top`` to render a sweep's wall-clock telemetry
  channel (live progress, worker occupancy, stragglers);
* ``positioning`` — print the slide-18 map;
* ``roofline``  — print the Xeon-vs-KNC roofline table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def cmd_info(args: argparse.Namespace) -> int:
    """Print version and orientation."""
    from repro import __version__

    print(f"deep-sim {__version__} — reproduction of the DEEP project "
          f"(Eicker et al., ICPP/HUCAA 2013)")
    print(__doc__)
    print("Experiments E1-E12 + X13-X24: run "
          "`pytest benchmarks/ --benchmark-only -s`")
    return 0


def cmd_machine(args: argparse.Namespace) -> int:
    """Build a machine and print its inventory."""
    from repro import DeepSystem, MachineConfig
    from repro.analysis import Table

    config = MachineConfig(
        n_cluster=args.cluster, n_booster=args.booster, n_gateways=args.gateways
    )
    system = DeepSystem(config)
    m = system.machine
    table = Table(["component", "value"], title="DEEP machine inventory")
    table.add_row("cluster nodes (CN)", config.n_cluster)
    table.add_row("CN processor", m.cluster_nodes[0].spec.processor.name)
    table.add_row("booster nodes (BN)", config.n_booster)
    table.add_row("BN processor", m.booster_nodes[0].spec.processor.name)
    table.add_row("BI gateways", config.n_gateways)
    table.add_row("EXTOLL torus", "x".join(map(str, m.extoll_fabric.dims)))
    table.add_row("IB fabric", config.ib.name)
    table.add_row("peak compute [TF]", m.total_peak_flops() / 1e12)
    table.add_row("nameplate power [kW]", m.total_power_estimate() / 1e3)
    table.print()
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """Run the quickstart scenario.

    With ``--trace-out``/``--metrics-out``/``--report``/``--blame``/
    ``--what-if`` the scenario runs inline with observability enabled
    and writes the exports / prints the analyses.
    """
    import runpy
    from pathlib import Path

    observing = bool(
        args.trace_out or args.metrics_out or args.report
        or args.blame or args.what_if or args.counters_out
    )
    quickstart = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
    if quickstart.exists() and not observing:
        runpy.run_path(str(quickstart), run_name="__main__")
        return 0
    # Observability requested (or installed without the examples tree):
    # run the quickstart scenario inline so we hold the DeepSystem.
    from repro import DeepSystem, MachineConfig
    from repro.apps import stencil_graph
    from repro.deep import OFFLOAD_WORKER_COMMAND, offload_graph, offload_worker

    system = DeepSystem(
        MachineConfig(n_cluster=4, n_booster=8, n_gateways=2), observe=observing
    )
    system.register_command(OFFLOAD_WORKER_COMMAND, offload_worker)
    out = {}

    def main(proc):
        cw = proc.comm_world
        inter = yield from proc.spawn(cw, OFFLOAD_WORKER_COMMAND, 8)
        if cw.rank == 0:
            g = stencil_graph(8, sweeps=4)
            out["result"] = yield from offload_graph(proc, inter, g)
        yield from cw.barrier()

    system.launch(main)
    system.run()
    r = out["result"]
    print(f"offloaded {r.n_tasks} tasks to 8 booster nodes in "
          f"{r.elapsed_s * 1e3:.2f} ms (simulated)")
    from repro.obs.fleet import FleetIndex, env_index_path, manifest_from_system

    fleet_path = env_index_path()
    if fleet_path is not None:
        if FleetIndex(fleet_path).record(
            manifest_from_system(system, "demo", source="demo")
        ):
            print(f"recorded demo run in fleet index {fleet_path}")
    if args.trace_out:
        system.write_trace(args.trace_out)
        print(f"wrote Chrome trace to {args.trace_out}")
    if args.metrics_out:
        system.write_metrics(args.metrics_out)
        print(f"wrote metrics dump to {args.metrics_out}")
    if args.counters_out:
        from repro.obs.timeline import write_counters_csv

        step = max(system.now / 200.0, 1e-9)
        write_counters_csv(args.counters_out, system.sim.trace, step)
        print(f"wrote counter timelines to {args.counters_out}")
    if args.blame:
        print(system.blame_report().render())
    for spec in args.what_if or ():
        key, _, factor = spec.partition("=")
        try:
            print(system.what_if(key, float(factor)).render())
        except ValueError as exc:
            print(f"what-if {spec!r}: {exc}", file=sys.stderr)
            return 2
    if args.report:
        print(system.contention_report(top=args.report_top))
    return 0


def _parse_seeds(spec: str) -> list[int]:
    """``"0,1,5"`` or ``"0:8"`` (half-open range) -> seed list.

    Rejects what used to slip through as a silently-empty sweep:
    inverted ranges (``5:2``), empty specs, and negative seeds (the
    per-job RNG streams require non-negative seeds).
    """

    def parse_int(text: str, what: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(
                f"bad {what} {text!r} in seed spec {spec!r}; expected an "
                "integer like '0:8' or '0,1,5'"
            ) from None

    if ":" in spec:
        lo, _, hi = spec.partition(":")
        lo_i = parse_int(lo, "range start") if lo else 0
        hi_i = parse_int(hi, "range end") if hi else None
        if hi_i is None:
            raise ValueError(
                f"seed range {spec!r} has no end; the range is half-open, "
                "e.g. '0:8' means seeds 0..7"
            )
        if hi_i <= lo_i:
            raise ValueError(
                f"seed range {spec!r} is empty (start {lo_i} >= end {hi_i}); "
                "the range is half-open, e.g. '0:8' means seeds 0..7"
            )
        seeds = list(range(lo_i, hi_i))
    else:
        seeds = [
            parse_int(s, "seed") for s in spec.split(",") if s.strip() != ""
        ]
    if not seeds:
        raise ValueError(f"empty seed spec {spec!r}")
    negative = [s for s in seeds if s < 0]
    if negative:
        raise ValueError(f"seeds must be >= 0, got {negative} in {spec!r}")
    return seeds


def _parse_overrides(pairs: list[str]) -> dict:
    """``["mtbf_s=300", "pingpong.rounds=5"]`` -> SweepSpec overrides.

    A bare ``field=value`` applies to every experiment that has the
    field; ``experiment.field=value`` targets one experiment.  Values
    are parsed as JSON, falling back to a plain string.
    """
    overrides: dict[str, dict] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        exp, _, fld = key.rpartition(".")
        overrides.setdefault(exp or "*", {})[fld] = value
    return overrides


def _default_jobs() -> int:
    """The ``sweep --jobs`` default: the CPUs this process may run on.

    The affinity mask (``taskset``, a pinned CPU set) counts where the
    platform has one; the host's CPU count is the fallback.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run an experiment x seed sweep through the cache + process pool."""
    from repro.sweep import (
        EXPERIMENTS,
        FailurePolicy,
        ResultCache,
        SweepSpec,
        run_chaos_smoke,
        run_smoke,
        run_sweep,
    )
    from repro.errors import ConfigurationError
    from repro.sweep.digests import code_version

    if args.list:
        from repro.analysis import Table

        table = Table(
            ["experiment", "headline", "defaults", "title"],
            title="sweepable experiments",
        )
        for name in sorted(EXPERIMENTS):
            e = EXPERIMENTS[name]
            defaults = ", ".join(f"{k}={v}" for k, v in sorted(e.defaults.items()))
            table.add_row(name, e.headline, defaults, e.title)
        table.print()
        return 0
    if args.jobs < 0:
        print(
            f"sweep: --jobs must be >= 1 (or 0 for one per usable CPU), "
            f"got {args.jobs}",
            file=sys.stderr,
        )
        return 2
    if args.smoke:
        return run_smoke(
            jobs=args.jobs or 2, cache_root=args.cache_dir,
            telemetry_dir=args.telemetry,
        )
    if args.smoke_chaos:
        return run_chaos_smoke(jobs=args.jobs or 4)

    try:
        seeds = _parse_seeds(args.seeds)
        overrides = _parse_overrides(args.set or [])
        spec = SweepSpec(
            experiments=[e.strip() for e in args.experiments.split(",")],
            seeds=seeds,
            overrides=overrides,
        )
        # Unknown experiments and config fields fail here, before any
        # job runs.
        spec.resolve()
    except (ValueError, ConfigurationError) as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2

    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.environ.get(
            "REPRO_SWEEP_CACHE", ".sweep_cache"
        )
        cache = ResultCache(cache_dir)
    obs_dir = args.obs_dir or os.environ.get("REPRO_OBS_DIR") or None
    jobs = args.jobs or _default_jobs()

    # Harness telemetry channel: explicit --telemetry, or implied (in
    # the cache root, else a temp dir) by the live --progress view.
    from pathlib import Path

    telemetry = Path(args.telemetry) if args.telemetry else None
    if telemetry is None and args.progress:
        if cache is not None:
            telemetry = cache.root / "v1" / "telemetry" / "sweep.telemetry.jsonl"
        else:
            import tempfile

            telemetry = (
                Path(tempfile.mkdtemp(prefix="repro-telemetry-"))
                / "sweep.telemetry.jsonl"
            )
    if telemetry is not None and telemetry.exists():
        # The channel is a per-invocation stream: a stale file would
        # pollute the live view's job state and the final summary.
        telemetry.unlink()

    def progress(done, total, result):
        source = "cache" if result.cached else f"{result.wall_s:6.2f}s"
        print(
            f"[{done:3d}/{total}] {result.job.label:40s} {source}",
            file=sys.stderr,
        )

    policy = None
    if (
        args.timeout is not None
        or args.retries is not None
        or args.fail_fast
        or args.max_failures is not None
    ):
        try:
            policy = FailurePolicy(
                timeout_s=args.timeout,
                max_retries=args.retries if args.retries is not None else 3,
                fail_fast=args.fail_fast,
                max_failures=args.max_failures,
            )
        except Exception as exc:
            print(f"sweep: {exc}", file=sys.stderr)
            return 2

    per_job_lines = progress if not (args.quiet or args.progress) else None
    live = None
    if args.progress:
        from repro.obs.telemetry import LiveProgress

        live = LiveProgress(telemetry).start()
    try:
        report = run_sweep(
            spec,
            jobs=jobs,
            cache=cache,
            refresh=args.refresh,
            obs_dir=obs_dir,
            progress=per_job_lines,
            isolate=args.isolate,
            telemetry=telemetry,
            policy=policy,
        )
    finally:
        if live is not None:
            live.close()
    report.summary_table().print()
    print(
        f"sweep digest {report.digest()[:16]}…  code {code_version()[:12]}…  "
        f"{report.n_cached} cached / {report.n_ran} simulated"
    )
    if report.telemetry is not None:
        from repro.obs.telemetry import summary_path_for

        tele = report.telemetry
        util = tele.get("utilization")
        hit_rate = (tele.get("cache") or {}).get("hit_rate")
        n_straggle = len(tele.get("stragglers") or [])
        print(
            f"telemetry: wall {tele.get('harness_wall_s', 0.0) or 0.0:.2f}s, "
            f"worker utilization "
            f"{'-' if util is None else f'{util:.0%}'}, cache hit rate "
            f"{'-' if hit_rate is None else f'{hit_rate:.0%}'}, "
            f"{n_straggle} straggler(s)"
        )
        print(
            f"telemetry channel {telemetry} "
            f"(summary {summary_path_for(telemetry)}; inspect with "
            f"`python -m repro obs top {telemetry}`)"
        )
    if report.n_retries or report.n_timeouts or report.n_pool_restarts:
        print(
            f"failure policy: {report.n_retries} retr"
            f"{'y' if report.n_retries == 1 else 'ies'}, "
            f"{report.n_timeouts} timeout(s), "
            f"{report.n_pool_restarts} pool restart(s)",
            file=sys.stderr,
        )
    for failure in report.failures:
        print(
            f"QUARANTINED {failure.label} after {failure.attempts} "
            f"attempt(s): {failure.error_class}: {failure.message} "
            f"(tb {failure.traceback_digest})",
            file=sys.stderr,
        )
    if report.aborted:
        print(
            "sweep aborted by failure policy "
            "(fail-fast or max-failures exceeded)",
            file=sys.stderr,
        )
    if args.summary_out:
        from repro.fsutil import atomic_write_json

        atomic_write_json(args.summary_out, report.as_dict())
        print(f"wrote summary to {args.summary_out}")
    if report.failures or report.aborted:
        return 4
    return 0


def _default_cache_root(args) -> str:
    return (
        getattr(args, "cache_dir", None)
        or os.environ.get("REPRO_SWEEP_CACHE", ".sweep_cache")
    )


def _fleet_index(args):
    """The FleetIndex addressed by ``--index`` / ``--cache-dir``."""
    from repro.obs.fleet import FleetIndex, resolve_index_path

    if getattr(args, "index", None):
        return FleetIndex(resolve_index_path(args.index))
    return FleetIndex.at_cache_root(_default_cache_root(args))


def _parse_slice_selector(text: str):
    """``exp``, ``exp@cfgdigestprefix`` or ``exp:field=value,...`` ->
    (experiment, where, digest_prefix)."""
    where = {}
    digest_prefix = None
    if "@" in text:
        exp, _, digest_prefix = text.partition("@")
    elif ":" in text:
        exp, _, fields = text.partition(":")
        for pair in fields.split(","):
            key, sep, raw = pair.partition("=")
            if not sep:
                raise ValueError(
                    f"bad slice selector field {pair!r}; expected field=value"
                )
            try:
                where[key] = json.loads(raw)
            except ValueError:
                where[key] = raw
    else:
        exp = text
    if not exp:
        raise ValueError(f"empty experiment in slice selector {text!r}")
    return exp, where, digest_prefix


def _resolve_slice(manifests, selector: str):
    """The single slice matched by *selector* (raises ValueError with
    the candidate list when ambiguous or empty)."""
    from repro.obs.compare import slice_runs

    exp, where, digest_prefix = _parse_slice_selector(selector)
    slices = slice_runs(
        manifests, experiment=exp, where=where,
        config_digest_prefix=digest_prefix,
    )
    if not slices:
        raise ValueError(f"no indexed runs match {selector!r}")
    if len(slices) > 1:
        options = ", ".join(
            f"{e}@{d[:12]}" for e, d in sorted(slices)
        )
        raise ValueError(
            f"{selector!r} is ambiguous ({len(slices)} slices: {options}); "
            f"narrow it with exp@digest or exp:field=value"
        )
    return next(iter(slices.values()))


def _cmd_obs_top(args: argparse.Namespace) -> int:
    """``obs top``: render a telemetry channel (``--follow``: to its end)."""
    from pathlib import Path

    from repro.obs.telemetry import (
        LiveProgress,
        read_events,
        snapshot,
        write_fleet_chrome_trace,
    )

    channel = Path(args.channel)
    if not channel.exists():
        print(f"obs top: no telemetry channel at {channel}", file=sys.stderr)
        return 2
    # With --json only the last snapshot prints: frames go nowhere.
    with open(os.devnull, "w") as devnull:
        view = LiveProgress(
            channel, out=devnull if args.json else sys.stdout,
            interval=args.interval,
        )
        snap = view.poll()
        if not view.state.jobs and view.state.t_sweep_start is None:
            print(f"obs top: {channel} holds no telemetry records", file=sys.stderr)
            return 2
        if args.follow:
            view.follow()
        elif not args.json:
            view.render(snap)
    if args.json:
        print(json.dumps(snapshot(view.state), indent=2, sort_keys=True))
    if args.chrome_out:
        write_fleet_chrome_trace(args.chrome_out, read_events(channel))
        print(f"wrote fleet Chrome trace to {args.chrome_out}")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Fleet observability: query/compare the cross-run index."""
    from repro.analysis import Table
    from repro.obs import compare
    from repro.obs.fleet import FleetIndex

    if args.obs_command == "top":
        return _cmd_obs_top(args)

    index = _fleet_index(args)

    if args.obs_command == "rebuild":
        from repro.sweep import ResultCache

        cache = ResultCache(_default_cache_root(args))
        rebuilt = FleetIndex.rebuild_from_cache(cache)
        if args.check:
            on_disk = [m for m in index.load() if m.source == "sweep"]
            got, want = index.digest(rebuilt), index.digest(on_disk)
            if got != want:
                print(
                    f"obs rebuild --check: MISMATCH (rebuilt {got[:16]}… vs "
                    f"indexed {want[:16]}…, {len(rebuilt)} vs {len(on_disk)} runs)",
                    file=sys.stderr,
                )
                return 1
            print(
                f"obs rebuild --check: index matches cache "
                f"({len(rebuilt)} sweep runs, digest {got[:16]}…)"
            )
            return 0
        out = FleetIndex(args.out) if args.out else index
        out.rewrite(rebuilt)
        print(
            f"rebuilt {out.path} from cache: {len(rebuilt)} runs, "
            f"digest {out.digest(rebuilt)[:16]}…"
        )
        return 0

    manifests = index.load()
    if not manifests and args.obs_command != "sentinel":
        print(f"obs: no runs indexed at {index.path}", file=sys.stderr)
        return 2

    if args.obs_command == "ls":
        slices = compare.slice_runs(
            manifests, experiment=args.experiment or None
        )
        table = Table(
            ["experiment", "config", "runs", "seeds", "partial",
             "makespan mean [s]", "±ci95"],
            title=f"fleet index — {len(manifests)} runs, "
                  f"{len(slices)} slices ({index.path})",
        )
        for key in sorted(slices):
            agg = compare.aggregate_slice(slices[key])
            mk = agg.makespan
            table.add_row(
                agg.experiment,
                agg.config_digest[:12],
                agg.n,
                ",".join(map(str, agg.seeds)) or "-",
                agg.n_partial or "",
                mk.mean if mk else "-",
                mk.ci95 if mk else "-",
            )
        table.print()
        if args.digest:
            print(f"index digest {index.digest(manifests)}")
        return 0

    if args.obs_command == "show":
        try:
            runs = _resolve_slice(manifests, args.slice)
        except ValueError as exc:
            print(f"obs show: {exc}", file=sys.stderr)
            return 2
        agg = compare.aggregate_slice(runs)
        print(f"slice {agg.label}: {agg.n} runs "
              f"({agg.n_partial} partial), seeds {agg.seeds}")
        print(f"config: {json.dumps(agg.config, sort_keys=True)}")
        table = Table(
            ["quantity", "n", "mean", "±ci95", "min", "max"],
            title="metrics across seeds",
        )
        if agg.makespan:
            s = agg.makespan
            table.add_row("makespan_s", s.n, s.mean, s.ci95, s.lo, s.hi)
        for name, s in agg.metrics.items():
            table.add_row(name, s.n, s.mean, s.ci95, s.lo, s.hi)
        for name, s in agg.blame_fractions.items():
            table.add_row(f"blame%.{name}", s.n, s.mean, s.ci95, s.lo, s.hi)
        table.print()
        return 0

    if args.obs_command == "diff":
        try:
            runs_a = _resolve_slice(manifests, args.a)
            runs_b = _resolve_slice(manifests, args.b)
        except ValueError as exc:
            print(f"obs diff: {exc}", file=sys.stderr)
            return 2
        report = compare.diff_slices(
            compare.aggregate_slice(runs_a),
            compare.aggregate_slice(runs_b),
            min_rel=args.min_rel,
        )
        print(report.render())
        if args.json:
            from repro.fsutil import atomic_write_json

            atomic_write_json(args.json, report.as_dict())
            print(f"wrote diff report to {args.json}")
        # Distinct exit code so scripts can gate on "anything shifted
        # significantly" without parsing the JSON report (0 = no
        # significant shifts, 2 = usage error, 3 = significant shifts).
        return 3 if report.significant else 0

    if args.obs_command == "sentinel":
        if args.write:
            paths = compare.write_baselines(
                manifests, args.baseline,
                include_partial=args.include_partial,
            )
            if not paths:
                print("sentinel --write: no eligible runs in the index "
                      "(are they all partial?)", file=sys.stderr)
                return 2
            for p in paths:
                print(f"wrote baseline {p}")
            return 0
        return compare.run_sentinel(
            manifests, args.baseline,
            include_partial=args.include_partial,
            allow_missing=args.allow_missing,
            perturb=args.perturb,
        )

    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def cmd_positioning(args: argparse.Namespace) -> int:
    """Print the slide-18 positioning map."""
    from repro.analysis import Table, positioning_map

    table = Table(
        ["system", "peak [TF]", "scalability", "versatility", "family"],
        title="slide 18: positioning map",
    )
    for e in positioning_map():
        table.add_row(e.name, e.peak_tflops, e.scalability, e.versatility, e.family)
    table.print()
    return 0


def cmd_roofline(args: argparse.Namespace) -> int:
    """Print the Xeon-vs-KNC roofline table."""
    from repro.analysis import Table
    from repro.analysis.roofline import (
        REFERENCE_KERNELS,
        attainable_flops,
        balance_point,
    )
    from repro.hardware.catalog import XEON_E5_2680_DUAL, XEON_PHI_KNC

    table = Table(
        ["kernel", "AI [flop/B]", "Xeon [GF/s]", "KNC [GF/s]"],
        title="roofline: dual Xeon E5 vs Xeon Phi KNC",
    )
    for k in REFERENCE_KERNELS:
        table.add_row(
            k.name, k.intensity,
            attainable_flops(XEON_E5_2680_DUAL, k.intensity) / 1e9,
            attainable_flops(XEON_PHI_KNC, k.intensity) / 1e9,
        )
    table.print()
    print(f"balance points: Xeon {balance_point(XEON_E5_2680_DUAL):.1f}, "
          f"KNC {balance_point(XEON_PHI_KNC):.1f} flop/B")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("info", help="version and orientation")
    p_machine = sub.add_parser("machine", help="print a machine inventory")
    p_machine.add_argument("--cluster", type=int, default=8)
    p_machine.add_argument("--booster", type=int, default=16)
    p_machine.add_argument("--gateways", type=int, default=2)
    p_demo = sub.add_parser("demo", help="run the quickstart scenario")
    p_demo.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome/Perfetto trace of the run to PATH",
    )
    p_demo.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a metrics dump to PATH (.json = JSON, else text)",
    )
    p_demo.add_argument(
        "--report", action="store_true",
        help="print the hottest-links/engines contention report",
    )
    p_demo.add_argument(
        "--report-top", type=int, default=5, metavar="N",
        help="number of entries per contention-report ranking (default 5)",
    )
    p_demo.add_argument(
        "--blame", action="store_true",
        help="print the critical-path blame table",
    )
    p_demo.add_argument(
        "--what-if", action="append", default=[], metavar="KEY=FACTOR",
        help="project the makespan under a scaling, e.g. extoll.bw=2 "
             "or spawn.latency=0.25 (repeatable)",
    )
    p_demo.add_argument(
        "--counters-out", default=None, metavar="PATH",
        help="write counter timelines (fixed-step CSV) to PATH",
    )
    p_sweep = sub.add_parser(
        "sweep",
        help="run experiment x seed sweeps across cores with a result cache",
    )
    p_sweep.add_argument(
        "--experiments", "-e", default="all", metavar="NAMES",
        help="comma-separated experiment names, or 'all' (default)",
    )
    p_sweep.add_argument(
        "--seeds", "-s", default="0", metavar="SPEC",
        help="seed list '0,1,5' or half-open range '0:8' (default '0')",
    )
    p_sweep.add_argument(
        "--jobs", "-j", type=int, default=0, metavar="N",
        help="worker processes (default: the CPUs this process may run "
             "on; 1 = serial)",
    )
    p_sweep.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="result cache root (default $REPRO_SWEEP_CACHE or .sweep_cache)",
    )
    p_sweep.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache entirely",
    )
    p_sweep.add_argument(
        "--refresh", action="store_true",
        help="ignore cache hits; re-simulate and overwrite entries",
    )
    p_sweep.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="config override: 'field=value' (all experiments with the "
             "field) or 'experiment.field=value' (repeatable)",
    )
    p_sweep.add_argument(
        "--obs-dir", default=None, metavar="PATH",
        help="materialise per-job observability exports here "
             "(default $REPRO_OBS_DIR)",
    )
    p_sweep.add_argument(
        "--summary-out", default=None, metavar="PATH",
        help="write the full JSON sweep report to PATH",
    )
    p_sweep.add_argument(
        "--isolate", action="store_true",
        help="fresh worker process per job (max_tasks_per_child=1)",
    )
    p_sweep.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress per-job progress lines",
    )
    p_sweep.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="stream a wall-clock harness-telemetry channel (JSONL) to "
             "PATH; the summary lands in the sibling telemetry.json "
             "(with --smoke: a directory for the cold/warm channels)",
    )
    p_sweep.add_argument(
        "--progress", action="store_true",
        help="live progress view (workers, cache hit rate, EWMA ETA) "
             "instead of per-job lines; implies a telemetry channel",
    )
    p_sweep.add_argument(
        "--list", action="store_true",
        help="list sweepable experiments and exit",
    )
    p_sweep.add_argument(
        "--smoke", action="store_true",
        help="CI smoke: cold + warm 2x2 sweep; warm must be >=95%% cached",
    )
    p_sweep.add_argument(
        "--smoke-chaos", action="store_true",
        help="CI chaos smoke: clean run vs REPRO_CHAOS-injected "
             "crashes/hangs/corruptions must converge to the same digest",
    )
    p_sweep.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-job wall-clock budget in seconds; a job past it is "
             "killed and retried (pooled sweeps only)",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="failed attempts a job may burn before quarantine "
             "(default 3 when a failure policy is active)",
    )
    p_sweep.add_argument(
        "--fail-fast", action="store_true",
        help="abort the sweep at the first quarantined job",
    )
    p_sweep.add_argument(
        "--max-failures", type=int, default=None, metavar="N",
        help="abort once more than N jobs are quarantined",
    )
    p_obs = sub.add_parser(
        "obs",
        help="fleet observability: ls/show/diff slices, sentinel, "
             "rebuild, top (telemetry)",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    def add_index_args(p):
        p.add_argument(
            "--index", default=None, metavar="PATH",
            help="fleet index file (runs.jsonl) or directory holding one",
        )
        p.add_argument(
            "--cache-dir", default=None, metavar="PATH",
            help="sweep cache root whose index to use "
                 "(default $REPRO_SWEEP_CACHE or .sweep_cache)",
        )

    p_ls = obs_sub.add_parser("ls", help="list indexed run slices")
    add_index_args(p_ls)
    p_ls.add_argument(
        "--experiment", "-e", default=None,
        help="only slices of this experiment",
    )
    p_ls.add_argument(
        "--digest", action="store_true",
        help="also print the order-free index content digest",
    )
    p_show = obs_sub.add_parser(
        "show", help="per-seed statistics of one slice"
    )
    add_index_args(p_show)
    p_show.add_argument(
        "slice", metavar="SLICE",
        help="slice selector: 'exp', 'exp@cfgdigest' or 'exp:field=value,...'",
    )
    p_diff = obs_sub.add_parser(
        "diff", help="blame/metric deltas between two slices (mean±CI)"
    )
    add_index_args(p_diff)
    p_diff.add_argument("a", metavar="A", help="baseline slice selector")
    p_diff.add_argument("b", metavar="B", help="comparison slice selector")
    p_diff.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the structured diff report to PATH",
    )
    p_diff.add_argument(
        "--min-rel", type=float, default=0.001, metavar="F",
        help="noise floor: shifts below this relative size are never "
             "flagged significant (default 0.001)",
    )
    p_sent = obs_sub.add_parser(
        "sentinel",
        help="gate the index against committed baseline snapshots",
    )
    add_index_args(p_sent)
    p_sent.add_argument(
        "--baseline", default="benchmarks/baselines", metavar="DIR",
        help="baseline snapshot directory (default benchmarks/baselines)",
    )
    p_sent.add_argument(
        "--write", action="store_true",
        help="snapshot the current index slices into the baseline dir",
    )
    p_sent.add_argument(
        "--include-partial", action="store_true",
        help="include partial runs (an incomplete blame walk or a "
        "quarantined job; excluded by default)",
    )
    p_sent.add_argument(
        "--allow-missing", action="store_true",
        help="skip baselines with no matching indexed runs instead of failing",
    )
    p_sent.add_argument(
        "--perturb", type=float, default=1.0, metavar="FACTOR",
        help="scale observed means by FACTOR before checking (negative-test "
             "hook: a passing sentinel must fail with e.g. --perturb 1.5)",
    )
    p_top = obs_sub.add_parser(
        "top",
        help="render the live state of a sweep telemetry channel",
    )
    p_top.add_argument(
        "channel", metavar="TELEMETRY_JSONL",
        help="telemetry channel file written by `sweep --telemetry/--progress`",
    )
    p_top.add_argument(
        "--json", action="store_true",
        help="print the snapshot as JSON instead of the text view",
    )
    p_top.add_argument(
        "--follow", "-f", action="store_true",
        help="keep tailing the channel until the sweep finishes",
    )
    p_top.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="poll interval with --follow (default 1.0s)",
    )
    p_top.add_argument(
        "--chrome-out", default=None, metavar="PATH",
        help="also write a Chrome/Perfetto trace of the fleet execution "
             "(one lane per worker, cache hits coloured)",
    )
    p_rebuild = obs_sub.add_parser(
        "rebuild", help="regenerate the index from cached artifacts"
    )
    add_index_args(p_rebuild)
    p_rebuild.add_argument(
        "--check", action="store_true",
        help="verify the rebuilt index digest matches the on-disk index",
    )
    p_rebuild.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the rebuilt index here instead of in place",
    )
    sub.add_parser("positioning", help="print the slide-18 map")
    sub.add_parser("roofline", help="print the roofline table")

    args = parser.parse_args(argv)
    handlers = {
        "info": cmd_info,
        "machine": cmd_machine,
        "demo": cmd_demo,
        "sweep": cmd_sweep,
        "obs": cmd_obs,
        "positioning": cmd_positioning,
        "roofline": cmd_roofline,
    }
    if args.command is None:
        parser.print_help()
        return 1
    try:
        status = handlers[args.command](args)
        # Flush inside the ``try``: a reader that stopped early must
        # fail here, not in the flush at interpreter exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout went away (``... | head -1``).  As the
        # Python docs' "Note on SIGPIPE" does: point stdout at /dev/null
        # so the flush at exit cannot raise again, and exit non-zero
        # without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
