"""Contention reports: where did the simulated time go?

Summarises the hottest links, SMFU engines and profiled resources of a
finished run as a small text report — the automatic companion every
experiment driver and ``python -m repro demo --report`` prints.
Sources, in order of preference:

* ``Simulator(observe=True)`` — exact per-resource grant/queue
  statistics via :meth:`~repro.simkernel.simulator.Simulator.profile_stats`;
* fabric byte counters (:meth:`~repro.network.fabric.Fabric.hottest_links`);
* SMFU gateway forwarding counters;
* when the run was traced, critical-path blame seconds per link and
  gateway (:mod:`repro.obs.critpath`) next to the busy-time ranking.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.fabric import Fabric
    from repro.network.smfu import SMFUGateway
    from repro.obs.critpath import BlameReport
    from repro.simkernel.simulator import Simulator


def link_blame(
    blame: "BlameReport", fabrics: Sequence["Fabric"]
) -> dict[str, float]:
    """Critical-path seconds per directed link.

    Network blame detail keys are route names (``"kind:src->dst"``);
    each route's seconds are attributed to every link along its static
    path, so a link's total is the critical-path time it carried.
    """
    out: dict[str, float] = defaultdict(float)
    by_name = {f.name: f for f in fabrics}
    for bucket, routes in blame.detail.items():
        fabric = by_name.get(bucket)
        if fabric is None:
            continue
        for route, seconds in routes.items():
            _, _, pair = route.partition(":")
            src, arrow, dst = pair.partition("->")
            if not arrow:
                continue
            try:
                links = fabric.path_links(src, dst)
            except Exception:
                continue  # endpoint gone / bridged half-route
            for link in links:
                out[link.name] += seconds
    return dict(out)


def contention_report(
    sim: "Simulator",
    fabrics: Sequence["Fabric"] = (),
    gateways: Sequence["SMFUGateway"] = (),
    top: int = 5,
    blame: Optional["BlameReport"] = None,
) -> str:
    """Human-readable hottest-links/engines report for one run.

    *top* bounds every ranking; *blame* (a critical-path
    :class:`~repro.obs.critpath.BlameReport`) adds per-link and
    per-gateway critical-path seconds next to the byte counts.
    """
    lines = [f"contention report @ t={sim.now:.6g}s"]
    per_link = link_blame(blame, fabrics) if blame is not None else {}
    smfu_blame = blame.detail.get("smfu", {}) if blame is not None else {}

    for fabric in fabrics:
        hottest = [(n, b) for n, b in fabric.hottest_links(top) if b > 0]
        lines.append(f"  fabric {fabric.name}: {fabric.total_bytes()} bytes carried")
        for name, nbytes in hottest:
            line = f"    {name:<40} {nbytes:>14} B"
            if name in per_link:
                line += f"  critpath={per_link[name] * 1e3:.3f} ms"
            lines.append(line)

    for gw in gateways:
        line = (
            f"  smfu {gw.name}: {gw.forwarded_bytes} B / "
            f"{gw.forwarded_messages} msgs forwarded, "
            f"engine util {gw.utilization():.1%}"
        )
        if gw.name in smfu_blame:
            line += f", critpath={smfu_blame[gw.name] * 1e3:.3f} ms"
        lines.append(line)

    if sim.observe:
        stats = sim.profile_stats()
        ranked = sorted(
            stats["resources"].items(),
            key=lambda kv: (kv[1]["queued"], kv[1]["utilization"]),
            reverse=True,
        )
        busy = [(k, v) for k, v in ranked if v["grants"] or v["queued"]]
        lines.append(
            f"  kernel: {stats['events_processed']} events processed, "
            f"{len(stats['resources'])} resources profiled"
        )
        for name, res in busy[:top]:
            lines.append(
                f"    {name:<40} grants={res['grants']:<8} "
                f"queued={res['queued']:<6} util={res['utilization']:.1%}"
            )
    return "\n".join(lines)
