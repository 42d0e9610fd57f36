"""Layer spans for the traced run: wrappers, per-pid span files, analysis.

The traced run times calls into each layer's public functions from the
benchmark's own code — nothing inside ``src/`` changes.  :meth:`Tracer.install`
replaces those functions with timing wrappers *before* the engine's process
pool forks, so the workers inherit them.  Every process appends its spans to
its own ``spans-<pid>.jsonl`` with one unbuffered ``os.write`` per span, so a
worker that ends through ``os._exit`` loses nothing and a fork never
duplicates a buffer.

Span timestamps are ``time.perf_counter_ns()``, which on Linux reads
``CLOCK_MONOTONIC`` and is therefore comparable across the pool's processes.

Besides spans, each process records the compiled kernels' per-kernel
dispatch counts (:func:`repro.common.cc.kernel_call_counts`) after every work
unit, as a delta from its value when the process first entered a wrapper
(forked workers inherit the parent's counters).
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

DELIVERABLE = "deliverable"


class Tracer:
    """Installs the layer wrappers and writes this process's spans."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._pid: int | None = None
        self._fd: int | None = None
        self._kernel_base: dict[str, int] = {}
        self._spec: str | None = None  # the work unit running in this process

    # -- recording -------------------------------------------------------------

    def _enter(self) -> None:
        """Open this pid's span file on its first span (after a fork too)."""
        pid = os.getpid()
        if pid == self._pid:
            return
        from repro.common.cc import kernel_call_counts

        self._pid = pid
        self._spec = None
        self._fd = os.open(
            self.out_dir / f"spans-{pid}.jsonl",
            os.O_WRONLY | os.O_CREAT | os.O_APPEND,
            0o644,
        )
        self._kernel_base = kernel_call_counts()

    def _write(self, record: dict) -> None:
        os.write(self._fd, (json.dumps(record) + "\n").encode())

    def record(self, name: str, start: int, end: int, **extra) -> None:
        self._enter()
        self._write(
            {"name": name, "pid": self._pid, "start": start, "end": end,
             "spec": self._spec, **extra}
        )

    def record_kernel_calls(self) -> None:
        """Append this process's kernel dispatch counts since its first span."""
        from repro.common.cc import kernel_call_counts

        self._enter()
        counts = kernel_call_counts()
        delta = {k: v - self._kernel_base.get(k, 0) for k, v in counts.items()}
        self._write({"kernel_calls": delta, "pid": self._pid})

    def _wrap(self, owner, attr: str, name: str, *, unit=False, probe=None,
              result_fields=None):
        """Replace ``owner.attr`` with a wrapper recording one span per call.

        ``probe(first_arg)`` returns counters read before and after the call;
        the span records their increase.  ``result_fields(result)`` adds
        fields taken from the return value.  ``unit`` marks the engine's
        work-unit entry point: nested spans carry its spec id, and the kernel
        counts are flushed after it.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer._enter()
            fields = {}
            if unit:
                spec, plan = args[0], args[1]
                tracer._spec = f"{spec.workload}/{spec.label}" + (
                    f"#{plan.index}" if plan is not None else ""
                )
                fields = {
                    "label": spec.label,
                    "interval": -1 if plan is None else plan.index,
                    "detailed": (
                        spec.config.max_instructions
                        if plan is None
                        else plan.measure_instructions + plan.detailed_warmup
                    ),
                    "region": spec.config.max_instructions,
                }
            before = probe(args[0]) if probe else None
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                fields["error"] = True
                raise
            else:
                if probe:
                    after = probe(args[0])
                    fields.update({k: after[k] - before[k] for k in after})
                if result_fields:
                    fields.update(result_fields(result))
                return result
            finally:
                tracer.record(name, start, time.perf_counter_ns(), **fields)
                if unit:
                    tracer.record_kernel_calls()
                    tracer._spec = None

        setattr(owner, attr, traced)
        return traced

    def install(self) -> None:
        """Wrap each layer's public entry points (call before the pool forks)."""
        from repro.analysis import experiments
        from repro.sim import checkpoint, engine
        from repro.sim.simulator import Simulator
        from repro.workloads import store

        self._enter()  # the parent's kernel-count baseline
        run_batch = self._wrap(engine, "run_batch", "engine.run_batch")
        experiments.run_batch = run_batch
        self._wrap(engine, "_run_unit", "engine.unit", unit=True)
        self._wrap(engine.ResultCache, "put", "engine.cache_put")
        self._wrap(store, "synthesize", "workloads.synth")
        self._wrap(Simulator, "__init__", "simulator.construct")
        self._wrap(Simulator, "functional_warmup", "simulator.warmup")
        self._wrap(
            Simulator, "fast_forward_to", "simulator.ff",
            probe=lambda sim: {"instructions": sim.oracle.instrs_walked},
        )
        for method in ("run", "run_interval"):
            self._wrap(Simulator, method, "simulator.run", probe=_loop_counters)
        self._wrap(
            checkpoint, "capture_warmup", "checkpoint.capture",
            result_fields=lambda blob: {"bytes": len(blob)},
        )
        self._wrap(checkpoint, "restore_warmup", "checkpoint.restore")


def _loop_counters(sim) -> dict[str, int]:
    """Cycles, steps, idle-skipped cycles and retirements of a simulator."""
    return {
        "cycles": sim.cycle,
        "steps": sim.steps_executed,
        "skipped": sim.ff_cycles_skipped,
        "retired": sim.backend.retired_instructions,
    }


# ---------------------------------------------------------------------------
# Analysis of the span files
# ---------------------------------------------------------------------------


def load(out_dir: Path) -> tuple[list[dict], dict[int, dict[str, int]]]:
    """All spans (sorted by start) and the last kernel-count record per pid."""
    spans: list[dict] = []
    kernel_calls: dict[int, dict[str, int]] = {}
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if "kernel_calls" in record:
                kernel_calls[record["pid"]] = record["kernel_calls"]
            else:
                spans.append(record)
    spans.sort(key=lambda s: (s["start"], -s["end"]))
    return spans, kernel_calls


def self_times(spans: list[dict]) -> list[dict]:
    """Annotate each span with ``self`` ns: its duration minus its children's.

    Spans of one pid must nest; a span that starts inside another and ends
    after it is a tracer defect and raises ``ValueError``.
    """
    by_pid: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        span["self"] = span["end"] - span["start"]
        by_pid[span["pid"]].append(span)
    for pid_spans in by_pid.values():
        stack: list[dict] = []
        for span in pid_spans:
            while stack and stack[-1]["end"] <= span["start"]:
                stack.pop()
            if stack:
                parent = stack[-1]
                if span["end"] > parent["end"]:
                    raise ValueError(
                        f"span {span['name']} overlaps {parent['name']} "
                        f"in pid {span['pid']}"
                    )
                parent["self"] -= span["end"] - span["start"]
            stack.append(span)
    return spans


def account(spans: list[dict], parent_pid: int, workers: int) -> dict:
    """Where the traced wall time went.

    The parent's self times sum to its deliverable span (the wall time); the
    pool's capacity over that wall is ``workers x wall``, split into work
    units (busy, wherever they ran: a one-spec batch runs its units in the
    parent) and engine idle.  ``unaccounted_s`` is the parent's wall minus
    its summed self times, which only a nesting error makes non-zero.
    """
    root = next(
        s for s in spans if s["pid"] == parent_pid and s["name"] == DELIVERABLE
    )
    wall = (root["end"] - root["start"]) / 1e9
    parent_self = sum(s["self"] for s in spans if s["pid"] == parent_pid) / 1e9
    outside = [
        s for s in spans if s["start"] < root["start"] or s["end"] > root["end"]
    ]
    busy = sum(
        s["end"] - s["start"] for s in spans if s["name"] == "engine.unit"
    ) / 1e9
    return {
        "wall_s": wall,
        "parent_self_s": parent_self,
        "unaccounted_s": wall - parent_self,
        "spans_outside_wall": len(outside),
        "worker_busy_s": busy,
        "engine_idle_s": max(0.0, workers * wall - busy),
    }


def self_time_table(spans: list[dict], idle_s: float) -> str:
    """Per-span-name calls, total and self seconds, largest self first."""
    rows: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        row = rows[span["name"]]
        row[0] += 1
        row[1] += (span["end"] - span["start"]) / 1e9
        row[2] += span["self"] / 1e9
    rows["engine.idle (workers)"] = [0, idle_s, idle_s]
    grand = sum(r[2] for r in rows.values()) or 1.0
    lines = [f"{'span':<24} {'calls':>6} {'total s':>9} {'self s':>9} {'self %':>7}"]
    for name, (calls, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(
            f"{name:<24} {calls:>6} {total:>9.3f} {own:>9.3f} {own / grand:>7.1%}"
        )
    return "\n".join(lines)


def chrome_trace(spans: list[dict], parent_pid: int, meta: dict) -> dict:
    """Chrome trace-event JSON: one track per pid, one ``X`` event per span."""
    origin = min(s["start"] for s in spans)
    events = []
    for pid in sorted({s["pid"] for s in spans}):
        label = "parent" if pid == parent_pid else f"worker {pid}"
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": pid,
                       "args": {"name": label}})
    for span in spans:
        args = {k: v for k, v in span.items()
                if k not in ("name", "pid", "start", "end", "self")}
        events.append({
            "name": span["name"],
            "cat": span["name"].split(".")[0],
            "ph": "X",
            "pid": span["pid"],
            "tid": span["pid"],
            "ts": (span["start"] - origin) / 1e3,
            "dur": (span["end"] - span["start"]) / 1e3,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}


def layer_metrics(
    spans: list[dict],
    kernel_calls: dict[int, dict[str, int]],
    wall: float,
    workers: int,
) -> dict[str, float]:
    """The per-layer metrics derivable from one traced deliverable."""

    def named(name):
        return [s for s in spans if s["name"] == name]

    def seconds(name):
        return sum(s["end"] - s["start"] for s in named(name)) / 1e9

    loops = named("simulator.run")
    cycles = sum(s.get("cycles", 0) for s in loops)
    retired = sum(s.get("retired", 0) for s in loops)
    run_s = seconds("simulator.run")
    units = [s for s in named("engine.unit") if not s.get("error")]
    unit_s = [(s["end"] - s["start"]) / 1e9 for s in units]
    intervals = [s for s in units if s["interval"] >= 0]
    batches = named("engine.run_batch")
    first_unit = min((s["start"] for s in units), default=None)
    out = {
        "workloads.synth_s": seconds("workloads.synth"),
        "workloads.programs_built": len(named("workloads.synth")),
        "checkpoint.capture_s": seconds("checkpoint.capture"),
        "checkpoint.restore_s": seconds("checkpoint.restore"),
        "checkpoint.captures": len(named("checkpoint.capture")),
        "checkpoint.restores": len(named("checkpoint.restore")),
        "checkpoint.bytes": sum(s.get("bytes", 0) for s in named("checkpoint.capture")),
        "simulator.construct_s": seconds("simulator.construct"),
        "simulator.warmup_s": seconds("simulator.warmup"),
        "simulator.ff_s": seconds("simulator.ff"),
        "simulator.ff_instructions": sum(
            s.get("instructions", 0) for s in named("simulator.ff")
        ),
        "simulator.run_s": run_s,
        "simulator.cycles": cycles,
        "simulator.steps": sum(s.get("steps", 0) for s in loops),
        "simulator.idle_skip_frac": (
            sum(s.get("skipped", 0) for s in loops) / cycles if cycles else 0.0
        ),
        "simulator.ns_per_cycle": run_s * 1e9 / cycles if cycles else 0.0,
        "simulator.loop_kips": retired / run_s / 1e3 if run_s else 0.0,
        "engine.units": len(units),
        "engine.unit_p50_s": statistics.median(unit_s) if unit_s else 0.0,
        "engine.unit_max_s": max(unit_s, default=0.0),
        "engine.worker_util": sum(unit_s) / (workers * wall),
        "engine.parent_pre_s": (
            (first_unit - batches[0]["start"]) / 1e9
            if batches and first_unit is not None
            else 0.0
        ),
        "engine.cache_put_s": seconds("engine.cache_put"),
        "sampling.intervals": len(intervals),
        "sampling.detailed_frac": _detailed_fraction(units),
    }
    for span in loops:  # each runs inside a unit, so it carries the spec id
        label = span["spec"].split("/", 1)[1].split("#")[0]
        key = f"prefetchers.{label}.run_s"
        out[key] = out.get(key, 0.0) + (span["end"] - span["start"]) / 1e9
    totals: dict[str, int] = defaultdict(int)
    for counts in kernel_calls.values():
        for kernel, n in counts.items():
            totals[kernel] += n
    for kernel, n in totals.items():
        out[f"cc.calls.{kernel}"] = n
    return out


def _detailed_fraction(units: list[dict]) -> float:
    """Share of the simulated regions run in cycle-level detail.

    A full-fidelity unit is all detail; a sampled spec's intervals detail
    ``K x (measured + detailed warmup)`` of its region.
    """
    regions: dict[str, int] = {}
    detailed = 0
    for unit in units:
        regions[unit["spec"].split("#")[0]] = unit["region"]
        detailed += unit["detailed"]
    total = sum(regions.values())
    return detailed / total if total else 0.0
