"""Spans recorded from outside the program, and the per-layer metrics made
from them.

A traced operation wraps library functions by rebinding the module
attribute each caller looks up (``infoflow.grid.advance_values`` and the
copies other modules imported under the same name), or the attribute of an
object the benchmark holds (the scenario model's ``drift``).  Each call
becomes a span (operation, name, start, end, parent, work).  Spans stay in
memory until the run ends.

A hook whose target no longer exists makes its layer *unmeasured*: every
metric of that layer is reported as ``None``, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import re
import time
from dataclasses import dataclass
from typing import Callable, Optional

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Bytes the transport kernel must move per cell-substep: read one float64
# cell and write one.  Computed from array sizes; it ignores cache misses and
# temporaries, so it is not a measured bandwidth.
BYTES_PER_CELL_SUBSTEP = 16
# dW and dU, one float64 each per trajectory-step, drawn up front.
INCREMENT_BYTES_PER_TRAJ_STEP = 16


@dataclass
class Span:
    id: int                # position in the recorder's list
    op: int
    name: str
    start: float
    end: float
    parent: int            # id of the enclosing span, -1 at top level
    work: int = 0


class SpanRecorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.op = 0
        self._stack: list = []

    def wrap(self, name: str, fn: Callable,
             work: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``work(*args)`` counts its work."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            amount = work(*args, **kwargs) if work is not None else 0
            span = Span(len(self.spans), self.op, name, self.clock(), 0.0,
                        parent, amount)
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = self.clock()
        return traced


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children: dict = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def totals(spans: list) -> dict:
    """name -> {"calls", "s" (inclusive), "self_s", "work"}."""
    out: dict = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span.name,
                             {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        row["calls"] += 1
        row["s"] += span.end - span.start
        row["self_s"] += own
        row["work"] += span.work
    return out


# ---------------------------------------------------------------------------
# Hooks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` (``attr`` may be ``Class.method``) as span ``span``.

    ``also`` names modules that imported the same function under the same
    name; their attribute is rebound too, when it is still that function.
    """

    span: str
    module: str
    attr: str
    also: tuple = ()
    work: Optional[Callable] = None


def _cell_substeps(values, ff, duration, n_substeps):
    return int(values.size) * int(n_substeps)


def library_hooks(checks: tuple) -> tuple:
    """The hooks of every library layer; ``checks`` is (function, id) pairs."""
    return (
        Hook("grid.advance", "infoflow.grid", "advance_values",
             also=("infoflow.ensemble", "infoflow.checks", "infoflow.metrics"),
             work=_cell_substeps),
        Hook("grid.steady_state", "infoflow.grid", "steady_state_grid",
             also=("infoflow.checks",)),
        Hook("ensemble.run", "infoflow.ensemble", "run_filter_ensemble",
             also=("infoflow.control", "infoflow.checks")),
        Hook("ensemble.sample", "infoflow.ensemble", "interp_rows"),
        Hook("ensemble.sample", "infoflow.ensemble", "score_values"),
        Hook("rng.draw", "infoflow.ensemble", "_draw_increments"),
        Hook("rng.substream", "infoflow.rng", "substream",
             also=("infoflow.ensemble", "infoflow.control", "infoflow.models")),
        Hook("metrics.assemble", "infoflow.metrics", "assemble_info_ledger",
             also=("infoflow.control",)),
        Hook("report.write", "infoflow.metrics", "InfoLedger.to_csv"),
        Hook("report.write", "infoflow.report", "write_run_report"),
    ) + tuple(Hook(f"checks.{cid}", "infoflow.checks", fn)
              for fn, cid in checks)


class Patches:
    """Attributes rebound for one traced operation, restored afterwards."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.unmeasured: set = set()
        self._saved: list = []

    def wrap_attr(self, span: str, owner, name: str, also=(),
                  work: Optional[Callable] = None) -> None:
        original = getattr(owner, name, None)
        if original is None:
            self.unmeasured.add(span)
            return
        wrapped = self.recorder.wrap(span, original, work)
        for target in (owner,) + tuple(also):
            if getattr(target, name, None) is original:
                self._saved.append((target, name, original))
                setattr(target, name, wrapped)

    def install(self, hooks) -> None:
        for hook in hooks:
            try:
                owner = importlib.import_module(hook.module)
                *path, name = hook.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                self.unmeasured.add(hook.span)
                continue
            also = []
            for module in hook.also:
                try:
                    also.append(importlib.import_module(module))
                except ImportError:
                    pass
            self.wrap_attr(hook.span, owner, name, also, hook.work)

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit, layer whose hook it needs)
LAYER_METRICS = (
    ("grid.advance.calls", "count", "grid.advance"),
    ("grid.advance.cell_substeps", "count", "grid.advance"),
    ("grid.advance.s", "s", "grid.advance"),
    ("grid.advance.ns_per_cell_substep", "ns", "grid.advance"),
    ("grid.advance.computed_gb_per_s", "GB/s", "grid.advance"),
    ("grid.steady_state.s", "s", "grid.steady_state"),
    ("ensemble.run.s", "s", "ensemble.run"),
    ("ensemble.self.s", "s", "ensemble.run"),
    ("ensemble.traj_steps", "count", "ensemble.run"),
    ("ensemble.self.us_per_traj_step", "us", "ensemble.run"),
    ("ensemble.sample.calls", "count", "ensemble.sample"),
    ("ensemble.sample.s", "s", "ensemble.sample"),
    ("rng.substream.calls", "count", "rng.substream"),
    ("rng.substream.s", "s", "rng.substream"),
    ("rng.draw.s", "s", "rng.draw"),
    ("rng.increments_mb", "MB", "rng.draw"),
    ("models.drift.calls", "count", "models.drift"),
    ("models.drift.s", "s", "models.drift"),
    ("control.policy.calls", "count", "control.policy"),
    ("control.policy.s", "s", "control.policy"),
    ("control.clamp_count", "count", None),
    ("metrics.assemble.s", "s", "metrics.assemble"),
    ("metrics.assemble.us_per_sample_traj", "us", "metrics.assemble"),
    ("report.write.s", "s", "report.write"),
    ("report.ledger_bytes", "bytes", None),
)


def per_layer_specs(check_ids: tuple) -> tuple:
    """Every per-layer metric as (name, unit, layer), in report order."""
    return (LAYER_METRICS
            + tuple((f"checks.{cid}.s", "s", f"checks.{cid}")
                    for cid in check_ids)
            + (("trace.overhead_frac", "ratio", None),))


def _ratio(num: float, den: float, scale: float) -> float:
    # A layer that did not run has no work; its rate reads 0 beside a 0 count.
    return scale * num / den if den else 0.0


def op_layer_values(spans: list, outputs: dict, check_ids: tuple) -> dict:
    """Per-layer values of one traced operation.

    ``outputs`` holds what the operation's own outputs say about its work:
    ``traj_steps`` (N*K), ``sample_trajs`` (S*N), ``clamp_count`` and
    ``ledger_bytes``; all 0 for an operation that runs no ensemble.
    """
    t = totals(spans)
    row = lambda name: t.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "work": 0})
    adv, ens, asm = row("grid.advance"), row("ensemble.run"), row("metrics.assemble")
    traj_steps = outputs["traj_steps"]
    values = {
        "grid.advance.calls": adv["calls"],
        "grid.advance.cell_substeps": adv["work"],
        "grid.advance.s": adv["s"],
        "grid.advance.ns_per_cell_substep": _ratio(adv["s"], adv["work"], 1e9),
        "grid.advance.computed_gb_per_s":
            _ratio(BYTES_PER_CELL_SUBSTEP * adv["work"], adv["s"], 1e-9),
        "grid.steady_state.s": row("grid.steady_state")["s"],
        "ensemble.run.s": ens["s"],
        "ensemble.self.s": ens["self_s"],
        "ensemble.traj_steps": traj_steps,
        "ensemble.self.us_per_traj_step": _ratio(ens["self_s"], traj_steps, 1e6),
        "ensemble.sample.calls": row("ensemble.sample")["calls"],
        "ensemble.sample.s": row("ensemble.sample")["s"],
        "rng.substream.calls": row("rng.substream")["calls"],
        "rng.substream.s": row("rng.substream")["s"],
        "rng.draw.s": row("rng.draw")["s"],
        "rng.increments_mb": INCREMENT_BYTES_PER_TRAJ_STEP * traj_steps / 1e6,
        "models.drift.calls": row("models.drift")["calls"],
        "models.drift.s": row("models.drift")["s"],
        "control.policy.calls": row("control.policy")["calls"],
        "control.policy.s": row("control.policy")["s"],
        "control.clamp_count": outputs["clamp_count"],
        "metrics.assemble.s": asm["s"],
        "metrics.assemble.us_per_sample_traj":
            _ratio(asm["s"], outputs["sample_trajs"], 1e6),
        "report.write.s": row("report.write")["s"],
        "report.ledger_bytes": outputs["ledger_bytes"],
    }
    for cid in check_ids:
        values[f"checks.{cid}.s"] = row(f"checks.{cid}")["s"]
    return values
