"""Cross-run comparison: seed statistics, blame diffs, the sentinel.

Consumes :class:`~repro.obs.fleet.RunManifest` records and answers the
questions the single-run layer cannot:

* **aggregate** — group runs into *slices* (one ``(experiment,
  config)`` pair), and report each metric and blame bucket across
  seeds as mean ± CI95 (Student-t for small n);
* **diff** — compare two slices and flag metric / blame-composition
  shifts whose confidence intervals do not overlap;
* **sentinel** — compare the current index against committed baseline
  snapshots (``benchmarks/baselines/``) and fail on makespan or
  blame-composition drift beyond per-experiment tolerances, so CI
  catches *simulation-result* regressions, not just events/sec.

Everything here is pure arithmetic over manifests — no simulator
imports, no hot-path cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs.fleet import RunManifest

#: Two-sided 95% Student-t critical values by degrees of freedom; the
#: z approximation takes over past the table.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 25: 2.060, 30: 2.042,
}


def t95(df: int) -> float:
    """Two-sided 95% t critical value for *df* degrees of freedom."""
    if df <= 0:
        return 0.0
    if df in _T95:
        return _T95[df]
    if df < 25:
        return _T95[20]
    if df < 30:
        return _T95[25]
    return 1.96 if df > 60 else _T95[30]


@dataclass(frozen=True)
class Stats:
    """Summary of one scalar across seeds."""

    n: int
    mean: float
    sd: float
    ci95: float
    lo: float
    hi: float

    def as_dict(self) -> dict:
        return {
            "n": self.n, "mean": self.mean, "sd": self.sd,
            "ci95": self.ci95, "min": self.lo, "max": self.hi,
        }

    def render(self, scale: float = 1.0, unit: str = "") -> str:
        if self.n <= 1:
            return f"{self.mean * scale:.6g}{unit}"
        return (
            f"{self.mean * scale:.6g}{unit} ± {self.ci95 * scale:.2g}"
            f" (n={self.n})"
        )


def mean_ci(values: Sequence[float]) -> Stats:
    """Mean, sample sd and 95% CI half-width of *values*.

    A single observation has zero spread information: sd and ci95 are
    reported as 0 (the caller decides how to treat n=1 slices).
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ConfigurationError("mean_ci needs at least one value")
    n = len(vals)
    mean = sum(vals) / n
    if n == 1:
        return Stats(1, mean, 0.0, 0.0, vals[0], vals[0])
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    sd = math.sqrt(var)
    ci = t95(n - 1) * sd / math.sqrt(n)
    return Stats(n, mean, sd, ci, min(vals), max(vals))


# ---------------------------------------------------------------------------
# Slices and aggregation
# ---------------------------------------------------------------------------


@dataclass
class SliceAggregate:
    """All runs of one ``(experiment, config)`` pair, aggregated."""

    experiment: str
    config: dict
    config_digest: str
    n: int
    seeds: list
    n_partial: int
    makespan: Optional[Stats]
    metrics: dict[str, Stats] = field(default_factory=dict)
    blame_s: dict[str, Stats] = field(default_factory=dict)
    blame_fractions: dict[str, Stats] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.experiment}@{self.config_digest[:12]}"

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": dict(self.config),
            "config_digest": self.config_digest,
            "n_runs": self.n,
            "seeds": list(self.seeds),
            "n_partial": self.n_partial,
            "makespan": self.makespan.as_dict() if self.makespan else None,
            "metrics": {k: s.as_dict() for k, s in self.metrics.items()},
            "blame_s": {k: s.as_dict() for k, s in self.blame_s.items()},
            "blame_fractions": {
                k: s.as_dict() for k, s in self.blame_fractions.items()
            },
        }


def slice_runs(
    manifests: Iterable[RunManifest],
    experiment: Optional[str] = None,
    where: Optional[Mapping[str, Any]] = None,
    config_digest_prefix: Optional[str] = None,
    include_partial: bool = True,
) -> dict[tuple[str, str], list[RunManifest]]:
    """Group manifests into slices keyed by ``(experiment, config digest)``.

    *where* filters on effective-config fields (exact value match);
    *config_digest_prefix* selects by digest.  Partial runs are kept by
    default (they are flagged, not hidden) — the sentinel passes
    ``include_partial=False``.
    """
    slices: dict[tuple[str, str], list[RunManifest]] = {}
    for m in manifests:
        if experiment is not None and m.experiment != experiment:
            continue
        if not include_partial and m.partial:
            continue
        if where:
            if any(m.config.get(k) != v for k, v in where.items()):
                continue
        digest = m.config_digest()
        if config_digest_prefix and not digest.startswith(config_digest_prefix):
            continue
        slices.setdefault((m.experiment, digest), []).append(m)
    return slices


def aggregate_slice(runs: Sequence[RunManifest]) -> SliceAggregate:
    """Aggregate one slice's runs (same experiment + config) across
    seeds.  Metrics/buckets observed in only some runs are aggregated
    over the runs that have them (their ``n`` says how many)."""
    if not runs:
        raise ConfigurationError("cannot aggregate an empty slice")
    first = runs[0]
    makespans = [m.makespan_s for m in runs if m.makespan_s is not None]
    metric_vals: dict[str, list[float]] = {}
    blame_vals: dict[str, list[float]] = {}
    frac_vals: dict[str, list[float]] = {}
    for m in runs:
        for k, v in m.metrics.items():
            metric_vals.setdefault(k, []).append(v)
        for k, v in m.blame_s.items():
            blame_vals.setdefault(k, []).append(v)
        for k, v in m.blame_fractions.items():
            frac_vals.setdefault(k, []).append(v)
    return SliceAggregate(
        experiment=first.experiment,
        config=dict(first.config),
        config_digest=first.config_digest(),
        n=len(runs),
        seeds=sorted(m.seed for m in runs if m.seed is not None),
        n_partial=sum(1 for m in runs if m.partial),
        makespan=mean_ci(makespans) if makespans else None,
        metrics={k: mean_ci(v) for k, v in sorted(metric_vals.items())},
        blame_s={k: mean_ci(v) for k, v in sorted(blame_vals.items())},
        blame_fractions={k: mean_ci(v) for k, v in sorted(frac_vals.items())},
    )


# ---------------------------------------------------------------------------
# Diff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaRow:
    """One compared quantity between slice A and slice B."""

    name: str
    a: Optional[Stats]
    b: Optional[Stats]
    #: ``b.mean - a.mean`` (None when either side is missing).
    delta: Optional[float]
    #: Relative shift vs A's mean (None when A's mean is 0 or missing).
    rel: Optional[float]
    #: CIs do not overlap and the shift clears the noise floor.
    significant: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "a": self.a.as_dict() if self.a else None,
            "b": self.b.as_dict() if self.b else None,
            "delta": self.delta,
            "rel": self.rel,
            "significant": self.significant,
        }


def _delta(name: str, a: Optional[Stats], b: Optional[Stats],
           min_rel: float) -> DeltaRow:
    if a is None or b is None:
        return DeltaRow(name, a, b, None, None, a is not None or b is not None)
    delta = b.mean - a.mean
    rel = delta / a.mean if a.mean != 0 else None
    scale = max(abs(a.mean), abs(b.mean))
    noise = min_rel * scale
    significant = abs(delta) > (a.ci95 + b.ci95) and abs(delta) > noise
    return DeltaRow(name, a, b, delta, rel, significant)


@dataclass
class DiffReport:
    """Metric + blame deltas between two slices."""

    a: SliceAggregate
    b: SliceAggregate
    metrics: list[DeltaRow]
    makespan: DeltaRow
    blame_fractions: list[DeltaRow]
    blame_s: list[DeltaRow]

    @property
    def significant(self) -> list[DeltaRow]:
        rows = [self.makespan] + self.metrics + self.blame_fractions
        return [r for r in rows if r.significant]

    def render(self) -> str:
        def fmt(row: DeltaRow, pct: bool = False) -> str:
            def side(s: Optional[Stats]) -> str:
                if s is None:
                    return "-"
                return s.render(scale=100.0, unit="%") if pct else s.render()

            flag = "  <-- significant" if row.significant else ""
            rel = ""
            if row.rel is not None:
                rel = f"  ({row.rel * 100:+.1f}%)"
            delta = "-"
            if row.delta is not None:
                delta = f"{row.delta * (100.0 if pct else 1.0):+.6g}"
                delta += "%" if pct else ""
            return (
                f"  {row.name:<28} {side(row.a):>24} -> {side(row.b):>24}"
                f"  Δ {delta}{rel}{flag}"
            )

        lines = [
            f"fleet diff: A = {self.a.label} (n={self.a.n})"
            f"  vs  B = {self.b.label} (n={self.b.n})"
        ]
        changed = {
            k: (self.a.config.get(k), self.b.config.get(k))
            for k in sorted(set(self.a.config) | set(self.b.config))
            if self.a.config.get(k) != self.b.config.get(k)
        }
        if changed:
            lines.append(
                "config delta: "
                + ", ".join(f"{k}: {va!r} -> {vb!r}" for k, (va, vb) in changed.items())
            )
        lines.append("makespan:")
        lines.append(fmt(self.makespan))
        if self.metrics:
            lines.append("metrics:")
            lines += [fmt(r) for r in self.metrics]
        if self.blame_fractions:
            lines.append("blame (fraction of makespan):")
            lines += [fmt(r, pct=True) for r in self.blame_fractions]
        n_sig = len(self.significant)
        lines.append(
            f"{n_sig} significant shift{'s' if n_sig != 1 else ''} "
            f"(non-overlapping 95% CIs)"
        )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """Structured report.  Every delta entry carries an explicit
        ``significant: bool``, and the top level repeats the verdict as
        one bool — the same signal ``obs diff`` encodes in its exit
        code (3 when True) for scripts that gate without JSON parsing.
        """
        return {
            "a": self.a.as_dict(),
            "b": self.b.as_dict(),
            "makespan": self.makespan.as_dict(),
            "metrics": [r.as_dict() for r in self.metrics],
            "blame_fractions": [r.as_dict() for r in self.blame_fractions],
            "blame_s": [r.as_dict() for r in self.blame_s],
            "n_significant": len(self.significant),
            "significant": bool(self.significant),
        }


def diff_slices(
    a: SliceAggregate, b: SliceAggregate, min_rel: float = 0.001
) -> DiffReport:
    """Compare two aggregated slices; *min_rel* is the noise floor
    below which a shift is never flagged significant (guards against
    float jitter when every CI is zero)."""

    def rows(da: Mapping[str, Stats], db: Mapping[str, Stats]) -> list[DeltaRow]:
        return [
            _delta(name, da.get(name), db.get(name), min_rel)
            for name in sorted(set(da) | set(db))
        ]

    return DiffReport(
        a=a,
        b=b,
        metrics=rows(a.metrics, b.metrics),
        makespan=_delta("makespan_s", a.makespan, b.makespan, min_rel),
        blame_fractions=rows(a.blame_fractions, b.blame_fractions),
        blame_s=rows(a.blame_s, b.blame_s),
    )


# ---------------------------------------------------------------------------
# Regression sentinel
# ---------------------------------------------------------------------------

#: Format version of baseline snapshot files.
BASELINE_SCHEMA = 1

#: Default drift tolerances; override per baseline file.
DEFAULT_TOLERANCES = {
    #: Relative makespan drift vs the baseline mean.
    "makespan_rel": 0.10,
    #: Relative drift of any recorded scalar metric.
    "metric_rel": 0.15,
    #: Absolute drift of any blame bucket's fraction of the makespan.
    "blame_abs": 0.05,
}


def build_baseline(
    agg: SliceAggregate, tolerances: Optional[Mapping[str, float]] = None
) -> dict:
    """The committed baseline document of one slice."""
    return {
        "schema": BASELINE_SCHEMA,
        "experiment": agg.experiment,
        "config": dict(agg.config),
        "config_digest": agg.config_digest,
        "n_runs": agg.n,
        "seeds": list(agg.seeds),
        "makespan": agg.makespan.as_dict() if agg.makespan else None,
        "metrics": {k: s.as_dict() for k, s in agg.metrics.items()},
        "blame_fractions": {
            k: s.as_dict() for k, s in agg.blame_fractions.items()
        },
        "tolerances": {**DEFAULT_TOLERANCES, **(tolerances or {})},
    }


def baseline_filename(doc: Mapping[str, Any]) -> str:
    return f"{doc['experiment']}-{doc['config_digest'][:12]}.json"


def write_baselines(
    manifests: Iterable[RunManifest],
    baseline_dir,
    tolerances: Optional[Mapping[str, float]] = None,
    include_partial: bool = False,
) -> list[Path]:
    """Snapshot every slice of *manifests* into *baseline_dir*.

    Partial runs are excluded by default — an incomplete blame walk or
    a quarantined job must not define what "normal" looks like.
    Returns the written paths.
    """
    from repro.fsutil import atomic_write_json

    out = []
    slices = slice_runs(manifests, include_partial=include_partial)
    for key in sorted(slices):
        agg = aggregate_slice(slices[key])
        doc = build_baseline(agg, tolerances)
        path = Path(baseline_dir) / baseline_filename(doc)
        atomic_write_json(path, doc)
        out.append(path)
    return out


def load_baselines(baseline_dir) -> list[dict]:
    """All baseline documents in *baseline_dir* (sorted by filename)."""
    root = Path(baseline_dir)
    docs = []
    for path in sorted(root.glob("*.json")):
        try:
            import json

            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            raise ConfigurationError(f"unreadable baseline file {path}")
        if doc.get("schema") != BASELINE_SCHEMA:
            raise ConfigurationError(
                f"baseline {path} has schema {doc.get('schema')!r}, "
                f"expected {BASELINE_SCHEMA}"
            )
        docs.append(doc)
    return docs


def check_baseline(
    doc: Mapping[str, Any],
    manifests: Iterable[RunManifest],
    include_partial: bool = False,
    perturb: float = 1.0,
) -> list[str]:
    """Violations of one baseline doc against the current index.

    *perturb* scales the observed makespan and metric means before
    comparison — the explicit negative-test hook CI uses to prove the
    sentinel actually fails on drifted results.
    """
    tol = {**DEFAULT_TOLERANCES, **doc.get("tolerances", {})}
    label = f"{doc['experiment']}@{doc['config_digest'][:12]}"
    slices = slice_runs(
        manifests,
        experiment=doc["experiment"],
        config_digest_prefix=doc["config_digest"],
        include_partial=include_partial,
    )
    runs = next(iter(slices.values()), [])
    if not runs:
        return [
            f"{label}: no matching (non-partial) runs in the index — "
            f"sweep the experiment or refresh the baseline"
        ]
    agg = aggregate_slice(runs)
    violations = []

    base_mk = (doc.get("makespan") or {}).get("mean")
    if base_mk is not None:
        if agg.makespan is None:
            violations.append(f"{label}: runs carry no makespan")
        else:
            cur = agg.makespan.mean * perturb
            drift = abs(cur - base_mk) / abs(base_mk) if base_mk else abs(cur)
            if drift > tol["makespan_rel"]:
                violations.append(
                    f"{label}: makespan drift {drift:.1%} "
                    f"(baseline {base_mk:.6g}s, now {cur:.6g}s, "
                    f"tolerance {tol['makespan_rel']:.0%})"
                )

    for name, stats in sorted((doc.get("metrics") or {}).items()):
        base = stats.get("mean")
        if base is None:
            continue
        cur_stats = agg.metrics.get(name)
        if cur_stats is None:
            violations.append(f"{label}: metric {name!r} disappeared")
            continue
        cur = cur_stats.mean * perturb
        drift = abs(cur - base) / abs(base) if base else abs(cur)
        if drift > tol["metric_rel"]:
            violations.append(
                f"{label}: metric {name} drift {drift:.1%} "
                f"(baseline {base:.6g}, now {cur:.6g}, "
                f"tolerance {tol['metric_rel']:.0%})"
            )

    base_fracs = doc.get("blame_fractions") or {}
    cur_fracs = agg.blame_fractions
    for bucket in sorted(set(base_fracs) | set(cur_fracs)):
        base = (base_fracs.get(bucket) or {}).get("mean", 0.0)
        cur = cur_fracs[bucket].mean if bucket in cur_fracs else 0.0
        if abs(cur - base) > tol["blame_abs"]:
            violations.append(
                f"{label}: blame[{bucket}] fraction shifted "
                f"{base:.1%} -> {cur:.1%} "
                f"(tolerance ±{tol['blame_abs']:.0%} absolute)"
            )
    return violations


def run_sentinel(
    manifests: Iterable[RunManifest],
    baseline_dir,
    include_partial: bool = False,
    allow_missing: bool = False,
    perturb: float = 1.0,
    echo=print,
) -> int:
    """Compare the index against every committed baseline; returns a
    process exit code (0 = within tolerances)."""
    manifests = list(manifests)
    docs = load_baselines(baseline_dir)
    if not docs:
        echo(f"sentinel: no baseline snapshots under {baseline_dir}")
        return 2
    failures: list[str] = []
    checked = 0
    for doc in docs:
        violations = check_baseline(
            doc, manifests, include_partial=include_partial, perturb=perturb
        )
        label = f"{doc['experiment']}@{doc['config_digest'][:12]}"
        missing = [v for v in violations if "no matching" in v]
        if missing and allow_missing:
            echo(f"  {label}: skipped (no matching runs)")
            continue
        checked += 1
        if violations:
            failures += violations
            echo(f"  {label}: DRIFT")
        else:
            echo(f"  {label}: ok")
    if checked == 0:
        echo("sentinel: no baseline matched any indexed run")
        return 2
    if failures:
        echo("SENTINEL FAILED: simulation results drifted beyond tolerance:")
        for f in failures:
            echo(f"  - {f}")
        return 1
    echo(f"sentinel passed ({checked} baseline slice(s) within tolerance)")
    return 0
