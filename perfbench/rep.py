"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition with a fresh artifact root
(``REPRO_CACHE_DIR``) that holds only a prebuilt copy of the compiled
kernels.  It times set-up (interpreter start to ready: ``import repro``,
loading the kernels, ``package_fingerprint()``), then the deliverable, and
writes one JSON record to ``--out``: timings, CPU and memory use, the batch
counters, a digest of every spec's measured counters, and the isolation and
compiled-path checks.  With ``--trace-dir`` it installs the layer wrappers
of :mod:`spans` first.

Usage (normally only through ``run.py``)::

    python3 perfbench/rep.py --workload fig13-grid --seed 1 --out rec.json \\
        --spawned-at <time.time() before the spawn> [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cpu_and_rss() -> tuple[float, float]:
    """(user+sys seconds, peak RSS MiB) of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def _reap_pool() -> None:
    """Wait for the engine's pool to wind down so its workers are reaped.

    ``run_batch`` shuts its executor down without waiting; the executor's
    management thread joins the workers, after which their CPU time and peak
    RSS show up in ``RUSAGE_CHILDREN``.
    """
    import multiprocessing

    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(timeout=60)
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def _counters_digest(counters: dict) -> str:
    blob = json.dumps(counters, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _expected_checkpoints(specs) -> tuple[int, int]:
    """(distinct checkpoint keys, spec-level restores) a cold batch must show.

    Derived from the engine's own key functions, so a change to what shares
    a checkpoint moves the expectation with it.  Each distinct key is written
    exactly once; every other full-fidelity spec restores its warmup.
    """
    from repro.sim import checkpoint as ckpt
    from repro.sim import sampling
    from repro.workloads.store import ProgramStore

    keys: set[str] = set()
    full_specs = 0
    full_keys: set[str] = set()
    for spec in specs:
        program_key = ProgramStore().key_for(spec.workload, spec.seed)
        warmup_key = ckpt.checkpoint_key(program_key, spec.seed, spec.config)
        keys.add(warmup_key)
        if spec.config.sampling.enabled:
            for plan in sampling.plan_intervals(spec.config):
                if plan.ff_instructions > 0:
                    keys.add(ckpt.interval_checkpoint_key(
                        program_key, spec.seed, spec.config, plan.ff_instructions
                    ))
        else:
            full_specs += 1
            full_keys.add(warmup_key)
    return len(keys), full_specs - len(full_keys)


def _isolation_problems(root: Path, stats, specs) -> list[str]:
    """Why this run was not cold and isolated, or ``[]`` when it was."""
    from repro.sim.engine import ResultCache

    problems = []
    if stats.cache_hits:
        problems.append(f"{stats.cache_hits} result-cache hits")
    if stats.simulated != len(specs):
        problems.append(f"{stats.simulated} of {len(specs)} specs simulated")
    keys, restores = _expected_checkpoints(specs)
    info = ResultCache(root).info()
    if info.checkpoints != keys:
        problems.append(f"{info.checkpoints} checkpoints stored, expected {keys}")
    if stats.checkpoint_restores != restores:
        problems.append(
            f"{stats.checkpoint_restores} warmups restored, expected {restores}"
        )
    if info.entries != len(specs):
        problems.append(f"{info.entries} results stored, expected {len(specs)}")
    programs = len({(s.workload, s.seed) for s in specs})
    if info.programs != programs:
        problems.append(f"{info.programs} programs stored, expected {programs}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--kernel", required=True,
                        help="path of the prebuilt kernel module in the root")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401
    from repro.common import cc
    from repro.common.artifacts import cache_root, package_fingerprint

    load_started = time.perf_counter()
    module = cc.kernels()
    load_s = time.perf_counter() - load_started
    fingerprint = package_fingerprint()
    setup_s = time.time() - args.spawned_at

    record: dict = {
        "setup_s": setup_s,
        "cc_load_s": load_s,
        "fingerprint": fingerprint,
        "compiled_enabled": cc.compiled_enabled(),
        "kernel_file": Path(module.__file__).name if module is not None else None,
        "failed": 0,
        "problems": [],
    }
    if module is None or Path(module.__file__) != Path(args.kernel):
        # Timing the interpreted fallback (or a fresh compile) would flatter
        # or smear the result; the run counts as failed instead.
        record["problems"].append(
            f"compiled kernels not loaded from the prebuilt copy: {cc.build_error()}"
        )
        record["compiled_enabled"] = False
    if args.setup_only or record["problems"]:
        Path(args.out).write_text(json.dumps(record))
        return 0

    from deliverables import DELIVERABLES

    from repro.sim.engine import BatchError, BatchStats, set_default_progress

    class Events(BatchStats):
        """Batch counters plus every finished spec's event."""

        def __init__(self):
            super().__init__()
            self.events = []

        def __call__(self, event):
            super().__call__(event)
            self.events.append(event)

    tracer = None
    if args.trace_dir:
        from spans import DELIVERABLE, Tracer

        tracer = Tracer(Path(args.trace_dir))
        tracer.install()
    stats = Events()
    set_default_progress(stats)

    cpu_before, _ = _cpu_and_rss()
    started = time.perf_counter_ns()
    batch_failures = 0
    try:
        DELIVERABLES[args.workload](args.seed, args.scale)
    except BatchError as exc:
        batch_failures = len(exc.failures)
    ended = time.perf_counter_ns()
    _reap_pool()
    cpu_after, peak_rss = _cpu_and_rss()
    if tracer is not None:
        tracer.record(DELIVERABLE, started, ended)
        tracer.record_kernel_calls()

    specs = [e.spec for e in stats.events]
    results = {
        f"{e.spec.workload}/{e.spec.label}": e.result
        for e in stats.events
        if e.result is not None
    }
    record.update(
        {
            "wall_s": (ended - started) / 1e9,
            "cpu_s": cpu_after - cpu_before,
            "peak_rss_mib": peak_rss,
            "pid": os.getpid(),
            "specs": len(specs),
            "failed": batch_failures,
            "batch": stats.summary(),
            # The engine's own account of its work units: each unit's
            # seconds as it timed them, and how many units ran.
            "unit_s": stats.sim_seconds,
            "units": sum(e.intervals or 1 for e in stats.events
                         if e.error is None and not e.cached),
            "digests": {k: _counters_digest(r.counters) for k, r in results.items()},
            "model": {
                k: {
                    "ipc": r.ipc,
                    "l1i_mpki": r.icache_mpki,
                    "prefetches_emitted": r.prefetches_emitted,
                    "aur": r.utility,
                    "branch_mpki": r.branch_mpki,
                }
                for k, r in results.items()
            },
        }
    )
    if not batch_failures:
        record["problems"] += _isolation_problems(cache_root(), stats, specs)
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
