"""Per-layer attribution from one traced round.

The benchmark adds no instrumentation to the program.  It installs a
:class:`repro.obs.Tracer`, which records the ``compile``, ``pass.*``,
``fallback.rung``, ``sim.*``, ``cache.*``, ``measure.*`` and
``campaign.run`` spans the program already emits, and it wraps a few
entry points from here, for the time of the traced round only:

- ``run`` of both executor engines (the :class:`ExecutorBackend`
  method), because the campaign runs each injection under its own
  span-less tracer, so injected runs are invisible to ours;
- ``TimingModel.estimate``, the harness's timing model;
- the campaign journal's ``append``, its one per-record write.
  ``_Journal`` is internal to :mod:`repro.gpusim.campaign`; the journal
  has no public per-record entry point to time instead.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import repro.gpusim.campaign as campaign_module
import repro.obs as obs
from repro.bench import ALL_BENCHMARKS
from repro.gpusim import Executor, TimingModel
from repro.gpusim.vexec import VectorExecutor

#: the compiler's pass spans (``pass.<name>``), in pipeline order
PASSES = (
    "clone", "lint", "regions", "placement", "liveins", "policy", "plan",
    "hazards", "renaming", "coloring", "pddg", "pruning", "recovery_table",
    "storage", "codegen", "verify",
)
SURFACES = ("rf", "ckpt", "recovery")
OUTCOMES = ("masked", "recovered", "due")


def catalog() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = [("bench.build_s", "s", "lower")]
    out += [(f"core.compile.{a}_s", "s", "lower") for a in ALL_BENCHMARKS.abbrs()]
    out += [(f"core.pass.{p}_s", "s", "lower") for p in PASSES]
    out += [("core.compiles", "count", "lower"), ("core.fallback_rungs", "count", "lower")]
    for kind in ("faultfree", "injected"):
        out += [
            (f"gpusim.{kind}.run_s", "s", "lower"),
            (f"gpusim.{kind}.runs", "count", "lower"),
            (f"gpusim.{kind}.sim_instructions", "count", "lower"),
            (f"gpusim.{kind}.sim_instructions_per_s", "1/s", "higher"),
        ]
    out.append(("campaign.golden_s", "s", "lower"))
    for prefix in ("campaign.injection_ms",) + tuple(
        f"campaign.injection_ms.{s}" for s in SURFACES
    ):
        out += [
            (f"{prefix}.p50", "ms", "lower"),
            (f"{prefix}.tail", "ms", "lower"),
            (f"{prefix}.max", "ms", "lower"),
            (f"{prefix}.n", "count", "higher"),
        ]
    out += [
        ("campaign.detections", "count", "lower"),
        ("campaign.recoveries", "count", "lower"),
        ("campaign.outcome.masked", "count", "higher"),
        ("campaign.outcome.recovered", "count", "lower"),
        ("campaign.outcome.due", "count", "lower"),
        ("campaign.journal_ms", "ms", "lower"),
        ("runtime.restarts", "count", "lower"),
        ("runtime.retries", "count", "lower"),
        ("runtime.pool_overhead_s", "s", "lower"),
        ("serve.cache.hits", "count", "higher"),
        ("serve.cache.misses", "count", "lower"),
        ("serve.cache.lookup_s", "s", "lower"),
        ("serve.cache.store_s", "s", "lower"),
        ("experiments.timing_model_s", "s", "lower"),
        ("experiments.measurements", "count", "lower"),
        ("obs.trace_overhead_s", "s", "lower"),
    ]
    return out


class LayerProbe:
    """A tracer plus timing wrappers, installed for one traced round."""

    def __init__(self):
        self.tracer = obs.Tracer()
        #: one (faulted, seconds, dynamic instructions) per executor run
        self.sim: List[Tuple[bool, float, int]] = []
        self.timing_model_s = 0.0
        self.journal_s: List[float] = []
        self.wall_s = 0.0
        self._restore: List[Tuple[type, str, object]] = []
        self._t0 = 0.0

    def _patch(self, owner: type, attr: str, wrap) -> None:
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def _wrap_run(self, original):
        probe = self

        def run(executor, launch, mem):
            faulted = executor.fault_plan is not None
            # Injected runs execute under the campaign's span-less tracer;
            # record them on ours so the trace shows where the time went.
            span = (
                probe.tracer.span("bench.injected_run")
                if faulted
                else contextlib.nullcontext()
            )
            insts = 0
            t0 = time.perf_counter()
            try:
                with span:
                    result = original(executor, launch, mem)
                insts = result.instructions
                return result
            finally:
                probe.sim.append((faulted, time.perf_counter() - t0, insts))

        return run

    def _wrap_timed(self, original, sink):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                sink(time.perf_counter() - t0)

        return timed

    def _add_timing_model(self, dt: float) -> None:
        self.timing_model_s += dt

    def __enter__(self) -> "LayerProbe":
        self._patch(Executor, "run", self._wrap_run)
        self._patch(VectorExecutor, "run", self._wrap_run)
        self._patch(
            TimingModel, "estimate",
            lambda f: self._wrap_timed(f, self._add_timing_model),
        )
        self._patch(
            campaign_module._Journal, "append",
            lambda f: self._wrap_timed(f, self.journal_s.append),
        )
        self.tracer.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall_s = time.perf_counter() - self._t0
        self.tracer.__exit__(*exc)
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False


# -- span arithmetic --------------------------------------------------------------


def self_times(spans: Sequence[obs.SpanRecord]) -> Dict[int, float]:
    """span id -> duration minus the part its children cover."""
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent_id is not None:
            child_time[s.parent_id] += s.duration
    return {s.span_id: s.duration - child_time[s.span_id] for s in spans}


def _under(span, name: str, by_id) -> bool:
    parent = by_id.get(span.parent_id)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent_id)
    return False


def latency_summary(samples_ms: Sequence[float]) -> Dict[str, float]:
    """Median, the highest percentile with at least ten samples beyond
    it (the median alone below forty samples), maximum and count."""
    s = sorted(samples_ms)
    n = len(s)
    if not n:
        return {"p50": 0.0, "tail": 0.0, "max": 0.0, "n": 0}
    p50 = statistics.median(s)
    return {"p50": p50, "tail": s[n - 11] if n >= 40 else p50, "max": s[-1], "n": n}


# -- the per-layer metrics ---------------------------------------------------------


def layer_metrics(
    workload,
    probe: LayerProbe,
    traced,
    untraced,
    pooled=None,
) -> Dict[str, float]:
    """Every catalog metric for one workload's traced round.

    ``untraced`` is the same round run without the probe (for the
    tracing overhead); ``pooled`` is the campaign round on the worker
    pool, when there is one (for the pool's overhead and supervision).
    """
    spans = probe.tracer.spans
    by_id = {s.span_id: s for s in spans}
    selfs = self_times(spans)
    out: Dict[str, float] = {name: 0 for name, _, _ in catalog()}
    out["bench.build_s"] = workload.build_s

    abbr_of = {b.fresh_kernel().name: b.abbr for b in ALL_BENCHMARKS}
    for s in spans:
        if s.name == "compile":
            out[f"core.compile.{abbr_of[s.tags['kernel']]}_s"] += s.duration
            out["core.compiles"] += 1
        elif s.name == "fallback.rung":
            out["core.fallback_rungs"] += 1
        elif s.name.startswith("pass.") and f"core.{s.name}_s" in out:
            out[f"core.{s.name}_s"] += selfs[s.span_id]
        elif s.name == "cache.lookup":
            out["serve.cache.lookup_s"] += s.duration
            key = "serve.cache.hits" if s.tags.get("hit") else "serve.cache.misses"
            out[key] += 1
        elif s.name == "cache.store":
            out["serve.cache.store_s"] += s.duration
        elif s.name in ("measure.baseline", "measure.scheme"):
            out["experiments.measurements"] += 1
        elif (
            s.name == "sim.run"
            and not s.tags.get("faulted")
            and _under(s, "campaign.run", by_id)
        ):
            out["campaign.golden_s"] += s.duration

    for kind, faulted in (("faultfree", False), ("injected", True)):
        runs = [(dt, n) for f, dt, n in probe.sim if f == faulted]
        run_s = sum(dt for dt, _ in runs)
        insts = sum(n for _, n in runs)
        out[f"gpusim.{kind}.run_s"] = run_s
        out[f"gpusim.{kind}.runs"] = len(runs)
        out[f"gpusim.{kind}.sim_instructions"] = insts
        out[f"gpusim.{kind}.sim_instructions_per_s"] = insts / run_s if run_s else 0.0
    out["experiments.timing_model_s"] = probe.timing_model_s

    if workload.name == "campaign":
        out.update(_campaign_metrics(workload, probe, traced, untraced, pooled))
    out["obs.trace_overhead_s"] = traced.wall_s - untraced.wall_s
    return out


def _campaign_metrics(workload, probe, traced, untraced, pooled) -> Dict[str, float]:
    out: Dict[str, float] = {}
    # Inline campaigns run their indices in order, one executor run each,
    # so the k-th injected run of a campaign is its record k.
    records = [
        r
        for spec in workload.specs
        if spec.benchmark in traced.results
        for r in traced.results[spec.benchmark].records
    ]
    injected_ms = [dt * 1e3 for f, dt, _ in probe.sim if f]
    if len(injected_ms) == len(records):
        by_surface: Dict[str, List[float]] = defaultdict(list)
        for rec, ms in zip(records, injected_ms):
            by_surface[rec.surface].append(ms)
        for key, value in latency_summary(injected_ms).items():
            out[f"campaign.injection_ms.{key}"] = value
        for surface in SURFACES:
            for key, value in latency_summary(by_surface[surface]).items():
                out[f"campaign.injection_ms.{surface}.{key}"] = value
    out["campaign.detections"] = sum(max(0, r.detections) for r in records)
    out["campaign.recoveries"] = sum(max(0, r.recoveries) for r in records)
    for outcome in OUTCOMES:
        out[f"campaign.outcome.{outcome}"] = sum(
            1 for r in records if r.outcome == outcome
        )
    if probe.journal_s:
        out["campaign.journal_ms"] = statistics.mean(probe.journal_s) * 1e3
    if pooled is not None:
        for report in pooled.results.values():
            sup = report.supervision or {}
            out["runtime.restarts"] = out.get("runtime.restarts", 0) + sup.get("restarts", 0)
            out["runtime.retries"] = out.get("runtime.retries", 0) + sup.get("retries", 0)
        out["runtime.pool_overhead_s"] = pooled.wall_s - untraced.wall_s
    return out


def injected_runs_match(probe, traced) -> Optional[str]:
    """The surface attribution above relies on one injected executor run
    per record; say so when that does not hold."""
    records = sum(len(r.records) for r in traced.results.values())
    runs = sum(1 for f, _, _ in probe.sim if f)
    if records != runs:
        return f"{runs} injected executor runs for {records} records"
    return None


def write_trace(path: str, probe: LayerProbe) -> List[str]:
    """Write the traced round's Chrome trace and check it: it must pass
    the program's own validator, and the spans' self-times must sum to
    no more than the traced wall time."""
    obs.write_chrome_trace(path, probe.tracer, process_name="pennybench")
    with open(path) as f:
        problems = [f"trace: {p}" for p in obs.validate_chrome_trace(json.load(f))]
    total = sum(self_times(probe.tracer.spans).values())
    if total > probe.wall_s + 1e-3:
        problems.append(
            f"trace: span self-times sum to {total:.3f} s, more than the "
            f"traced wall time {probe.wall_s:.3f} s"
        )
    return problems
