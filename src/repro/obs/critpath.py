"""Causal critical-path analysis: blame attribution and what-if replay.

A traced run yields three things the :class:`~repro.simkernel.trace.
TraceRecorder` collects for free behind the ``if sim.trace:`` guard:

* **spans** — intervals of subsystem activity, each stamped with the
  pid of the simulated process it ran in;
* **wake edges** — ``(t_wake, t_trigger, src_pid, dst_pid)`` tuples the
  kernel records whenever a process is resumed by an event another
  process triggered (put, release, finished child, condition);
* **counter samples** — handled by :mod:`repro.obs.timeline`.

Together the first two form a causal DAG over per-process timelines.
This module turns that DAG into answers to "why is this run slow":

1. :meth:`CausalGraph.critical_path` walks backwards from the
   last-finishing activity, following same-process spans while the
   process was busy and jumping along wake edges while it was blocked,
   producing a chain of :class:`Step`\\ s that partitions
   ``[0, makespan]`` — so blame *sums to the makespan by construction*.
2. :meth:`CausalGraph.blame` aggregates the chain per subsystem bucket
   (compute, infiniband, extoll, smfu, spawn, scheduler, idle, ...)
   into a :class:`BlameReport` with seconds, fractions and per-detail
   breakdown (per gateway, per route).
3. :meth:`CausalGraph.what_if` replays the whole DAG analytically with
   scaled segment durations ("EXTOLL bandwidth x2" scales every extoll
   segment by 1/2) while preserving the recorded wake dependencies,
   projecting the new makespan without re-simulating.  For monotone
   scalings the projection brackets the true speedup: it keeps the
   recorded dependency structure, so it can miss second-order effects
   (different gateway picks, reordered queueing) but not the
   first-order one.

A walk that cannot reach time 0 (a same-time wake cycle, or its safety
limit) marks its :class:`BlameReport` ``partial``: the blame then covers
only part of the run and must not be read as whole-run blame.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.trace import SpanRecord, TraceRecorder

#: Canonical display order of blame buckets (unknown ones follow,
#: alphabetically).
BUCKET_ORDER = (
    "compute", "infiniband", "extoll", "smfu", "spawn",
    "scheduler", "mpi", "idle",
)


def classify(category: str, name: str) -> str:
    """Map a span's (category, name) to its blame bucket."""
    if category.startswith("net."):
        return category[4:]  # "infiniband", "extoll", "smfu", ...
    if category == "mpi":
        return "spawn" if name.startswith("spawn") else "mpi"
    if category == "ompss":
        return "compute"
    if category == "parastation":
        return "scheduler"
    return category


def _detail_of(category: str, name: str, fields: dict) -> Optional[str]:
    """The per-bucket breakdown key (gateway, route, command...)."""
    if category == "net.smfu":
        return fields.get("gateway") or name
    if category.startswith("net.") or category == "mpi":
        return name  # "kind:src->dst" routes / "spawn:command"
    return None


@dataclass(slots=True)
class Segment:
    """A maximal interval during which one process did one thing.

    Produced by flattening a process's (possibly nested) spans: at any
    instant the *deepest* open span owns the time, so segments of one
    pid never overlap.
    """

    start: float
    end: float
    pid: int
    category: str
    name: str
    fields: dict[str, Any] = field(default_factory=dict)
    #: ``(span name, span fields)`` of the enclosing bridged-transfer
    #: (``net.smfu``) span, when this time belongs to one — even if the
    #: segment itself is a fabric leg or engine wait inside it.  Lets
    #: structural what-ifs rescale everything a bridged transfer owns.
    bridge: Optional[tuple[str, dict]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def bucket(self) -> str:
        return classify(self.category, self.name)


@dataclass(slots=True)
class Step:
    """One hop of the critical path, covering ``[start, end]``."""

    start: float
    end: float
    pid: int
    bucket: str
    detail: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(slots=True)
class BlameReport:
    """Aggregated critical-path attribution for one run."""

    makespan: float
    #: bucket -> seconds on the critical path.
    seconds: dict[str, float]
    #: bucket -> detail key -> seconds (gateways, routes, commands).
    detail: dict[str, dict[str, float]]
    #: The full step chain, last-to-first.
    steps: list[Step]
    #: True when the walk stopped before time 0 (a same-time wake
    #: cycle or its safety limit): blame covers only part of the run.
    partial: bool = False

    @property
    def fractions(self) -> dict[str, float]:
        """bucket -> share of the makespan (sums to ~1.0)."""
        if self.makespan <= 0:
            return {b: 0.0 for b in self.seconds}
        return {b: s / self.makespan for b, s in self.seconds.items()}

    def _ordered(self) -> list[str]:
        known = [b for b in BUCKET_ORDER if b in self.seconds]
        extra = sorted(b for b in self.seconds if b not in BUCKET_ORDER)
        return known + extra

    def render(self, top: int = 3) -> str:
        """Human-readable blame table (biggest buckets first)."""
        lines = [
            f"critical path: makespan {self.makespan * 1e3:.3f} ms, "
            f"{len(self.steps)} steps"
            + ("  [PARTIAL: incomplete walk]" if self.partial else "")
        ]
        order = sorted(
            self._ordered(), key=lambda b: self.seconds[b], reverse=True
        )
        fr = self.fractions
        for bucket in order:
            line = (
                f"  {bucket:<12} {self.seconds[bucket] * 1e3:10.3f} ms"
                f"  {fr[bucket] * 100:5.1f}%"
            )
            per = self.detail.get(bucket)
            if per:
                worst = sorted(per.items(), key=lambda kv: kv[1], reverse=True)
                line += "   " + ", ".join(
                    f"{k} ({v * 1e3:.3f} ms)" for k, v in worst[:top]
                )
            lines.append(line)
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (``blame.json``)."""
        return {
            "makespan_s": self.makespan,
            "partial": self.partial,
            "n_steps": len(self.steps),
            "seconds": dict(self.seconds),
            "fractions": self.fractions,
            "detail": {b: dict(d) for b, d in self.detail.items()},
        }


@dataclass(slots=True)
class WhatIfResult:
    """Projected effect of scaling critical-path segment costs."""

    key: str
    factor: float
    #: bucket -> duration multiplier actually applied.
    scales: dict[str, float]
    baseline_s: float
    projected_s: float

    @property
    def speedup(self) -> float:
        return self.baseline_s / self.projected_s if self.projected_s else 1.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "factor": self.factor,
            "scales": dict(self.scales),
            "baseline_s": self.baseline_s,
            "projected_s": self.projected_s,
            "speedup": self.speedup,
        }

    def render(self) -> str:
        return (
            f"what-if {self.key} x{self.factor:g}: "
            f"{self.baseline_s * 1e3:.3f} ms -> {self.projected_s * 1e3:.3f} ms "
            f"(projected speedup {self.speedup:.3f}x)"
        )


#: Supported what-if knobs: key -> (bucket, how the duration multiplier
#: derives from the user's factor).  "inverse" models a rate (2x
#: bandwidth = durations x0.5); "direct" a latency (0.25 = 4x faster).
WHAT_IF_KEYS = {
    "extoll.bw": ("extoll", "inverse"),
    "ib.bw": ("infiniband", "inverse"),
    "infiniband.bw": ("infiniband", "inverse"),
    "smfu.bw": ("smfu", "inverse"),
    "spawn.latency": ("spawn", "direct"),
    "compute.speed": ("compute", "inverse"),
    "scheduler.latency": ("scheduler", "direct"),
}


def resolve_what_if(key: str, factor: float) -> dict[str, float]:
    """Translate a user-facing knob into bucket duration multipliers."""
    if factor <= 0:
        raise ValueError(f"what-if factor must be > 0, got {factor!r}")
    spec = WHAT_IF_KEYS.get(key)
    if spec is not None:
        bucket, mode = spec
        return {bucket: 1.0 / factor if mode == "inverse" else factor}
    if key == "smfu.segment_bytes":
        raise ValueError(
            "smfu.segment_bytes changes pipelining structure, so per-bucket "
            "rescaling cannot model it; project it through an analytic SMFU "
            "model instead — DeepSystem.what_if, or "
            "CausalGraph.what_if(..., smfu_model=machine.bridge) — or "
            "re-simulate with a modified SMFUSpec"
        )
    # Raw bucket name: interpret the factor as a duration multiplier.
    return {key: factor}


def _flatten_spans(spans) -> list[Segment]:
    """Flatten possibly-nested spans into non-overlapping segments.

    Per pid: a boundary sweep assigns each elementary interval to the
    *deepest* active span (latest start; ties to the shorter span, then
    the later span id).  Adjacent intervals owned by the same span are
    merged.  Category ``kernel`` is excluded — the kernel's whole-run
    umbrella span would swallow every gap.
    """
    by_pid: dict[int, list] = defaultdict(list)
    for sp in spans:
        if sp.category == "kernel" or sp.end <= sp.start:
            continue
        by_pid[sp.proc if sp.proc is not None else -1].append(sp)

    segments: list[Segment] = []
    for pid, group in by_pid.items():
        starts: dict[float, list] = defaultdict(list)
        ends: dict[float, list] = defaultdict(list)
        for sp in group:
            starts[sp.start].append(sp)
            ends[sp.end].append(sp)
        times = sorted(set(starts) | set(ends))
        active: dict[int, Any] = {}  # span_id -> span
        prev_t: Optional[float] = None
        current: Optional[Segment] = None  # segment being grown
        current_owner: Optional[int] = None
        for t in times:
            if prev_t is not None and active and t > prev_t:
                owner = max(
                    active.values(),
                    key=lambda s: (s.start, s.start - s.end, s.span_id),
                )
                bridge_sp = None
                for s in active.values():
                    if s.category == "net.smfu" and (
                        bridge_sp is None or s.start > bridge_sp.start
                    ):
                        bridge_sp = s
                bridge = (
                    (bridge_sp.name, bridge_sp.fields)
                    if bridge_sp is not None
                    else None
                )
                if (
                    current is not None
                    and current_owner == owner.span_id
                    and current.bridge == bridge
                    and current.end == prev_t
                ):
                    current.end = t
                else:
                    current = Segment(
                        prev_t, t, pid, owner.category, owner.name,
                        owner.fields, bridge=bridge,
                    )
                    current_owner = owner.span_id
                    segments.append(current)
            for sp in ends.get(t, ()):
                active.pop(sp.span_id, None)
            for sp in starts.get(t, ()):
                active[sp.span_id] = sp
            prev_t = t
    return segments


class CausalGraph:
    """Per-process segments + cross-process wake edges of one run."""

    def __init__(
        self,
        segments: list[Segment],
        wakes: list[tuple[float, float, int, int]],
        proc_names: Optional[dict[int, str]] = None,
    ) -> None:
        self.segments = sorted(segments, key=lambda s: (s.start, s.end, s.pid))
        self.proc_names = proc_names or {}
        # Per-pid segment index for the backwards walk.
        self._by_pid: dict[int, list[Segment]] = defaultdict(list)
        for seg in self.segments:
            self._by_pid[seg.pid].append(seg)
        self._starts: dict[int, list[float]] = {
            pid: [s.start for s in segs] for pid, segs in self._by_pid.items()
        }
        # Per-destination wake index, sorted by wake time.
        self._wakes_to: dict[int, list[tuple[float, float, int]]] = defaultdict(list)
        for t_wake, t_trig, src, dst in wakes:
            self._wakes_to[dst].append((t_wake, t_trig, src))
        for lst in self._wakes_to.values():
            lst.sort(key=lambda w: w[0])
        self._wake_times: dict[int, list[float]] = {
            pid: [w[0] for w in lst] for pid, lst in self._wakes_to.items()
        }
        self.n_wakes = len(wakes)

    @classmethod
    def from_trace(cls, trace: "TraceRecorder") -> "CausalGraph":
        """Build the graph from a completed traced run."""
        return cls(
            _flatten_spans(trace.spans),
            list(trace.wakes),
            proc_names=dict(trace.proc_names),
        )

    @property
    def makespan(self) -> float:
        """End of the last-finishing segment (0 for an empty graph)."""
        return max((s.end for s in self.segments), default=0.0)

    # -- walk ------------------------------------------------------------
    def _seg_before(self, pid: int, t: float) -> Optional[Segment]:
        """The latest segment of *pid* starting strictly before *t*."""
        starts = self._starts.get(pid)
        if not starts:
            return None
        i = bisect_left(starts, t) - 1
        return self._by_pid[pid][i] if i >= 0 else None

    def _wake_before(
        self, pid: int, lo: float, hi: float
    ) -> Optional[tuple[float, float, int]]:
        """The latest wake of *pid* with ``lo < t_wake <= hi`` that
        makes progress (the cause is another process or an earlier
        time)."""
        times = self._wake_times.get(pid)
        if not times:
            return None
        lst = self._wakes_to[pid]
        i = bisect_right(times, hi) - 1
        while i >= 0 and lst[i][0] > lo:
            t_wake, t_trig, src = lst[i]
            if src != pid or t_trig < hi:
                return lst[i]
            i -= 1
        return None

    def _walk(self) -> tuple[list[Step], bool]:
        """Backwards walk from the last-finishing segment.

        Returns ``(steps, complete)``; the steps tile ``[t_final, 0]``
        going backwards (each step's start is the next step's end).
        """
        if not self.segments:
            return [], True
        last = max(self.segments, key=lambda s: (s.end, s.start, s.pid))
        pid, cursor = last.pid, last.end
        steps: list[Step] = []
        limit = 4 * (len(self.segments) + self.n_wakes) + 64
        seen_at_cursor: set[int] = set()
        complete = True
        while cursor > 0:
            limit -= 1
            if limit <= 0 or pid in seen_at_cursor:
                complete = False  # same-time wake cycle: bail out
                break
            seen_at_cursor.add(pid)
            seg = self._seg_before(pid, cursor)
            if seg is not None and seg.end >= cursor:
                # Busy: blame this segment up to the cursor.
                steps.append(Step(
                    seg.start, cursor, pid, seg.bucket,
                    _detail_of(seg.category, seg.name, seg.fields),
                ))
                cursor = seg.start
                seen_at_cursor = set()
                continue
            gap_lo = seg.end if seg is not None else 0.0
            wake = self._wake_before(pid, gap_lo, cursor)
            if wake is not None:
                t_wake, t_trig, src = wake
                if t_trig < cursor:
                    # Trigger-to-resume latency (delayed succeed etc).
                    steps.append(Step(t_trig, cursor, pid, "idle", "wake"))
                    cursor = t_trig
                    seen_at_cursor = set()
                pid = src  # follow the causal edge
                continue
            # Untraced activity (bare timeouts, setup): idle.
            steps.append(Step(gap_lo, cursor, pid, "idle", None))
            cursor = gap_lo
            seen_at_cursor = set()
        return steps, complete

    def critical_path(self) -> list[Step]:
        """The makespan-critical chain, last step first."""
        return self._walk()[0]

    def blame(self) -> BlameReport:
        """Aggregate the critical path into per-bucket attribution."""
        steps, complete = self._walk()
        seconds: dict[str, float] = defaultdict(float)
        detail: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for st in steps:
            seconds[st.bucket] += st.duration
            if st.detail is not None:
                detail[st.bucket][st.detail] += st.duration
        return BlameReport(
            makespan=self.makespan,
            seconds=dict(seconds),
            detail={b: dict(d) for b, d in detail.items()},
            steps=steps,
            partial=not complete,
        )

    # -- what-if replay --------------------------------------------------
    def project(self, scales: dict[str, float], scale_fn=None) -> float:
        """Projected makespan with per-bucket duration multipliers.

        Replays every segment in recorded order: a segment starts at
        the later of (a) its process's previous projected activity and
        (b) the projected arrival of the wake that explains the gap
        before it; its duration is scaled by its bucket's multiplier.
        Unexplained gaps (untraced local work) keep their length.

        *scale_fn*, when given, is asked first for each segment's
        multiplier (``scale_fn(segment) -> float | None``); ``None``
        falls back to the per-bucket *scales*.  Structural what-ifs use
        it to rescale exactly the segments belonging to one bridged
        transfer by that transfer's own projected ratio.
        """
        # Per-pid projection state, filled in global start order so a
        # wake's source timeline is mapped before its destination asks.
        proj: dict[int, list[tuple[float, float, float, float]]] = defaultdict(list)
        proj_starts: dict[int, list[float]] = defaultdict(list)
        neg_inf = float("-inf")

        def proj_time(pid: int, t: float, depth: int = 0) -> float:
            """Map original time *t* on *pid*'s timeline to projected
            time.  Inside a mapped segment: linear interpolation.  Past
            or before all mapped activity: follow the wake chain
            backwards (handles span-less intermediary processes), else
            keep the original offset."""
            starts = proj_starts.get(pid)
            last_oe = neg_inf
            if starts:
                i = bisect_right(starts, t) - 1
                if i >= 0:
                    os_, oe_, ps_, pe_ = proj[pid][i]
                    if t <= oe_:
                        if oe_ <= os_:
                            return pe_
                        return ps_ + (t - os_) / (oe_ - os_) * (pe_ - ps_)
                    last_oe = oe_
            if depth < 64:
                wake = self._wake_before(pid, last_oe, t)
                if wake is not None:
                    t_wake, t_trig, src = wake
                    return proj_time(src, t_trig, depth + 1) + (t - t_wake)
            if last_oe > neg_inf:
                _, oe_, _, pe_ = proj[pid][i]
                return pe_ + (t - oe_)
            return t

        projected = 0.0
        for seg in self.segments:
            pid = seg.pid
            prior = proj[pid]
            if prior:
                prev_oe, prev_pe = prior[-1][1], prior[-1][3]
            else:
                prev_oe, prev_pe = None, 0.0
            lo = prev_oe if prev_oe is not None else float("-inf")
            wake = self._wake_before(pid, lo, seg.start)
            if wake is not None:
                arrival = proj_time(wake[2], wake[1])
                start = max(prev_pe, arrival)
            elif prev_oe is not None:
                start = prev_pe + (seg.start - prev_oe)
            else:
                start = seg.start
            mult = scale_fn(seg) if scale_fn is not None else None
            if mult is None:
                mult = scales.get(seg.bucket, 1.0)
            end = start + seg.duration * mult
            prior.append((seg.start, seg.end, start, end))
            proj_starts[pid].append(seg.start)
            if end > projected:
                projected = end
        return projected

    def what_if(
        self, key: str, factor: float, smfu_model=None
    ) -> WhatIfResult:
        """Project the makespan under a named scaling (see
        :data:`WHAT_IF_KEYS`; a raw bucket name scales durations
        directly).

        ``smfu.segment_bytes`` is *structural* — it changes how a
        bridged transfer pipelines, not a per-bucket rate — so it needs
        *smfu_model* (a :class:`~repro.network.smfu.ClusterBoosterBridge`,
        e.g. ``system.machine.bridge``): each traced bridged transfer
        is rescaled by the ratio of its analytic closed-form time at
        the scaled segment size vs the current one.  Without a model
        the key is rejected with an explanation.
        """
        if key == "smfu.segment_bytes" and smfu_model is not None:
            if factor <= 0:
                raise ValueError(
                    f"what-if factor must be > 0, got {factor!r}"
                )
            scale_fn, ratios = self._smfu_segment_scale_fn(smfu_model, factor)
            projected = self.project({}, scale_fn=scale_fn)
            return WhatIfResult(
                key=key,
                factor=factor,
                scales={f"{name}:{size}": r for (name, size), r in ratios.items()},
                baseline_s=self.makespan,
                projected_s=projected,
            )
        scales = resolve_what_if(key, factor)
        return WhatIfResult(
            key=key,
            factor=factor,
            scales=scales,
            baseline_s=self.makespan,
            projected_s=self.project(scales),
        )

    def _smfu_segment_scale_fn(self, smfu_model, factor: float):
        """(scale_fn, ratio cache) rescaling bridged-transfer segments
        by their route's analytic segment-size ratio.

        Cached per (route, message size): one route carries both tiny
        control packets (ratio 1.0 — below the segment size, their
        pipelining never changes) and the large data transfers the
        what-if is actually about.
        """
        ratios: dict[tuple[str, int], float] = {}

        def scale_fn(seg: Segment):
            if seg.bridge is None:
                return None
            name, fields = seg.bridge
            size = int(fields.get("size", 0))
            key = (name, size)
            ratio = ratios.get(key)
            if ratio is None:
                gw_name, _, rest = name.partition(":")
                src, _, dst = rest.partition("->")
                ratio = smfu_model.segment_bytes_ratio(
                    src,
                    dst,
                    size,
                    factor,
                    gateway=fields.get("gateway", gw_name),
                )
                ratios[key] = ratio
            return ratio

        return scale_fn, ratios
