#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale (about two minutes).

For every workload declared in ``BENCHMARK.json`` it checks that

* an untraced run emits exactly the declared end-to-end metrics and a traced
  run exactly the declared per-layer metrics, each with its declared unit,
  and that both pass their output checks;
* in the traced run the parent's span self times add up to the traced wall
  time, no span falls outside it, and the work-unit spans agree with the
  engine's own count and timing of its units (so the engine idle reported
  beside them, capacity minus unit time, is right too);

and that a ``REPRO_FAULT=raise:<unit>`` spec (the engine's fault harness)
makes the run report failures: ``failed`` and ``engine.fail_frac`` above 0.

Usage, from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import BUILD, JOBS, _declared_metrics  # noqa: E402

SCALE = 0.04
SEED = 3
FAULT = ("ftq-sweep", "raise:ftq16")  # one label, failing in both apps
UNIT_GUARD_S = 0.002  # allowed per unit for the engine's guard around its timing


def bench(workload: str, trace: int, env: dict | None = None) -> tuple[dict, dict]:
    """Run the benchmark at the tiny scale; (final JSON line, result file)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, **(env or {})},
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n"
                             f"{done.stderr[-3000:]}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    result = json.loads(
        (BUILD / "results" / f"{workload}-s{SEED}-t{trace}.json").read_text()
    )
    return line, result


def check_metrics(line: dict, declared: dict[str, str], where: str) -> list[str]:
    errors = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(line)}")
    emitted = line.get("metrics", {})
    if set(emitted) != set(declared):
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(emitted) ^ set(declared))}")
    for name, unit in declared.items():
        metric = emitted.get(name, {})
        if metric.get("unit") != unit or not isinstance(metric.get("value"), float):
            errors.append(f"{where}: {name} emitted as {metric}, unit should be {unit}")
    return errors


def check_accounting(acct: dict, units: float, where: str) -> list[str]:
    """The traced spans against the wall and the engine's own unit account.

    Work-unit spans are checked against figures the engine measures itself
    (each unit's seconds as ``BatchStats.sim_seconds`` sums them, and the
    number of units it reported), so a lost worker span file or a unit the
    wrapper missed shows here.  A unit span also covers the engine's guard
    around its timed body (fault hooks, alarm), hence a small allowance.
    """
    errors = []
    wall = acct["wall_s"]
    if abs(acct["unaccounted_s"]) > 1e-3 * wall:
        errors.append(f"{where}: parent self times miss {acct['unaccounted_s']:.6f}s "
                      f"of the {wall:.3f}s wall")
    if acct["spans_outside_wall"]:
        errors.append(f"{where}: {acct['spans_outside_wall']} spans outside the wall")
    if units != acct["batch_units"]:
        errors.append(f"{where}: {units:g} unit spans, the batch reported "
                      f"{acct['batch_units']} units")
    busy, timed = acct["worker_busy_s"], acct["batch_unit_s"]
    if not timed <= busy <= timed * 1.02 + UNIT_GUARD_S * acct["batch_units"]:
        errors.append(f"{where}: unit spans {busy:.4f}s, the engine timed its units "
                      f"at {timed:.4f}s")
    if busy > JOBS * wall:
        errors.append(f"{where}: unit spans {busy:.3f}s exceed the pool's capacity "
                      f"{JOBS * wall:.3f}s")
    return errors


def main() -> int:
    declared = _declared_metrics()
    errors: list[str] = []
    for workload in declared["workloads"]:
        for trace, names in ((0, declared["end_to_end"]), (1, declared["per_layer"])):
            where = f"{workload} trace={trace}"
            line, result = bench(workload, trace)
            errors += check_metrics(line, names, where)
            if not line["correct"] or line["failed"]:
                errors.append(f"{where}: output checks failed: {result['problems']}")
            if trace:
                errors += check_accounting(
                    result["accounting"], line["metrics"]["engine.units"]["value"], where)
            print(f"{where}: {line['attempted']} specs, {line['failed']} failed", flush=True)

    workload, fault = FAULT
    line, _ = bench(workload, 1, env={"REPRO_FAULT": fault})
    fail_frac = line["metrics"]["engine.fail_frac"]["value"]
    print(f"{workload} with REPRO_FAULT={fault}: {line['failed']} of "
          f"{line['attempted']} failed, fail_frac {fail_frac:.3f}")
    if line["correct"] or line["failed"] <= 0 or fail_frac <= 0:
        errors.append(f"REPRO_FAULT={fault} did not raise fail_frac above 0: {line}")

    for error in errors:
        print(f"FAIL: {error}")
    print("self-test " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
