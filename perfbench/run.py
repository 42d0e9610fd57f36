#!/usr/bin/env python3
"""The repo benchmark: cold wall time of real deliverables, and where it went.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig13-grid --seed 1 --seconds 35 --trace 0

Workloads, metrics and units are declared in ``BENCHMARK.json`` at the root;
this script emits exactly the metrics named there.

Each repetition runs the workload's deliverable (see :mod:`deliverables`) in
a fresh interpreter (``rep.py``) with a fresh artifact root, ``REPRO_JOBS=2``
and the workload seed.  The compiled kernels are keyed only on their C
sources, so they are built once per checkout under ``.bench_build/`` and a
copy is placed in each fresh root: the one-time compile stays out of every
timing.  Repetitions run until ``--seconds`` is used up (at least
``MIN_REPS``).  The reference job of :mod:`reference` (one process per
pool worker) runs before the first repetition and after each one, and a
set-up-only probe follows each, paired with one reference process of its
own; every end-to-end metric is the median over them:

* ``wall_rel`` — host seconds of the deliverable, set-up excluded, as a
  multiple of the reference job's seconds measured right before and after it;
* ``cpu_rel`` — user+sys seconds of the parent and its pool workers, as a
  multiple of the reference processes' summed seconds;
* ``setup_s`` — fresh interpreter to ready (``import repro``, loading the
  prebuilt kernels, ``package_fingerprint()``) in reference seconds: the
  probe's host seconds divided by the seconds of the single reference
  process run right after it, times ``REF_UNIT_S``.  That is the set-up
  time on a host that runs the reference job in ``REF_UNIT_S`` seconds;
* ``peak_rss_mib`` — maximum resident set over the parent and workers.

Every time is a ratio to the reference job because the host's speed drifts
by tens of percent within minutes; the job runs no ``repro`` code, so it
cancels the drift without hiding a change to the repository.  The raw
seconds (``wall_s``, ``cpu_s``, ``setup_raw_s``) are printed and kept in the
result file, and the per-layer ``host.ref_s`` gives the reference job's
seconds.

``--trace 1`` additionally makes one traced repetition (the layer wrappers
of :mod:`spans`) and reports the per-layer metrics instead: layer times and
counts, kernel dispatch counts, the engine's pool use, sampling accuracy
against the full-fidelity run of the same region, and the simulated model
statistics, which a speed-only change must leave identical.  The traced run
is also exported as a Chrome trace (``.bench_build/perfbench/traces/``) and
summarised in a self-time table.

Outputs are checked: every spec must succeed, every spec's counter digest
must agree across repetitions, with the traced run and with the digest first
recorded for this workload and seed in this checkout, each run must be cold
(no result-cache hit; checkpoints created and restored exactly as the key
functions predict), and the kernels must be the compiled ones.  Any failure
counts toward ``failed``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Full result sets, with
the host they ran on, go to ``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
REP = HERE / "rep.py"

JOBS = 2  # pool workers for every repetition; fixed so the work shape is too
MIN_REPS = 3
# setup_s is given for a host that runs one reference process in this time.
REF_UNIT_S = 1.0
# Time an invocation may take beyond its --seconds of repetitions: the
# warm-up set-up, the last repetition's overshoot and, with --trace 1, the
# traced repetition, the full-fidelity run and a kernel build.  Every child
# gets the time left before the deadline, so a hung child cannot stall a run.
EXTRA_S = 120
_deadline: float | None = None  # set by main() from --seconds


def _time_left() -> float | None:
    return None if _deadline is None else max(1.0, _deadline - time.monotonic())


def _declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _clean_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_JOBS"] = str(JOBS)
    env["TMPDIR"] = str(BUILD / "tmp")
    env.pop("PYTHONPATH", None)
    return env


def _run_child(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=_time_left())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    _wait_group_gone(proc.pid)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _wait_group_gone(pgid: int, limit_s: float = 30.0) -> None:
    """Block until no process of the group is left (pool workers included)."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    os.killpg(pgid, signal.SIGKILL)


def reference_seconds(processes: int = JOBS) -> list[float]:
    """Seconds of the reference job, ``processes`` copies run together."""
    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "reference.py")], cwd=ROOT,
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        for _ in range(processes)
    ]
    try:
        return [float(p.communicate(timeout=_time_left())[0]) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

_KERNEL_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); "
    "from repro.common import cc; t = time.perf_counter(); m = cc.kernels(); "
    "print(m.__file__ if m else '', time.perf_counter() - t)"
)


def build_kernels(root: Path) -> tuple[Path | None, float]:
    """Build (or find) the kernel module under ``root``; (path, seconds)."""
    root.mkdir(parents=True, exist_ok=True)
    done = _run_child(
        [sys.executable, "-c", _KERNEL_PROBE.format(src=str(SRC))],
        _clean_env(root),
    )
    path, _, seconds = done.stdout.strip().rpartition(" ")
    if done.returncode != 0 or not path:
        sys.stderr.write(done.stderr)
        return None, 0.0
    return Path(path), float(seconds)


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------


class Runner:
    """Runs repetitions of one workload, each in a fresh artifact root."""

    def __init__(self, workload: str, seed: int, scale: float, kernel: Path):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.kernel = kernel
        self._n = 0

    def _fresh_root(self) -> Path:
        self._n += 1
        root = BUILD / "roots" / f"{os.getpid()}-{self._n}"
        shutil.rmtree(root, ignore_errors=True)
        (root / "kernels").mkdir(parents=True)
        shutil.copy2(self.kernel, root / "kernels" / self.kernel.name)
        return root

    def rep(self, setup_only: bool = False, trace_dir: Path | None = None) -> dict:
        root = self._fresh_root()
        out = root.with_suffix(".json")
        cmd = [
            sys.executable, str(REP), "--workload", self.workload,
            "--seed", str(self.seed), "--scale", str(self.scale),
            "--out", str(out), "--kernel", str(root / "kernels" / self.kernel.name),
        ]
        if setup_only:
            cmd.append("--setup-only")
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += ["--spawned-at", repr(time.time())]
        done = _run_child(cmd, _clean_env(root))
        try:
            record = json.loads(out.read_text())
        except (OSError, ValueError):
            record = {"problems": [
                f"repetition exited {done.returncode}: {done.stderr.strip()[-2000:]}"
            ]}
        finally:
            shutil.rmtree(root, ignore_errors=True)
            out.unlink(missing_ok=True)
        return record

    def full_fidelity_ipc(self) -> float:
        """IPC of the sampled region simulated in full (deterministic, untimed)."""
        root = self._fresh_root()
        code = (
            f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            "from deliverables import sampled_spec; "
            "from repro.sim.engine import run_batch; "
            f"print(run_batch([sampled_spec({self.seed}, {self.scale}, sampled=False)])[0].ipc)"
        )
        done = _run_child([sys.executable, "-c", code], _clean_env(root))
        shutil.rmtree(root, ignore_errors=True)
        if done.returncode != 0:
            raise RuntimeError(f"full-fidelity run failed: {done.stderr[-2000:]}")
        return float(done.stdout.split()[-1])


def _digest_reference(workload: str, seed: int, scale: float, first: dict) -> dict:
    """The digests first recorded for this workload, seed and source tree.

    Keyed on the package fingerprint and the deliverable definitions, so only
    runs of identical code are compared.
    """
    code = hashlib.sha256((HERE / "deliverables.py").read_bytes()).hexdigest()[:8]
    path = BUILD / "digests" / (
        f"{workload}-s{seed}-x{scale:g}-{first['fingerprint']}-{code}.json"
    )
    digests = {} if first.get("failed") else first["digests"]
    if path.is_file():
        return json.loads(path.read_text())
    if digests:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digests, sort_keys=True))
    return digests


def check_outputs(records: list[dict], reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every repetition that ran specs."""
    attempted = failed = 0
    problems: list[str] = []
    for i, record in enumerate(records):
        specs = record.get("specs", 0)
        attempted += specs
        if record.get("problems"):
            # Not cold, not compiled, or did not run: none of its specs count.
            failed += max(specs, 1)
            attempted += 0 if specs else 1
            problems += [f"rep {i}: {p}" for p in record["problems"]]
            continue
        failed += record.get("failed", 0)
        for spec_id, digest in record.get("digests", {}).items():
            expected = reference.get(spec_id)
            if expected is not None and expected != digest:
                failed += 1
                problems.append(f"rep {i}: {spec_id} counters digest {digest} != {expected}")
        missing = set(reference) - set(record.get("digests", reference))
        if missing and not record.get("failed"):
            failed += len(missing)
            problems.append(f"rep {i}: no result for {sorted(missing)}")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Host record
# ---------------------------------------------------------------------------


def _first_line(cmd: list[str]) -> str | None:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10, cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.splitlines()[0].strip() if out.returncode == 0 and out.stdout else None


def host_record() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_model": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "gcc": _first_line([os.environ.get("CC") or "gcc", "--version"]),
        "git_commit": (
            _first_line(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
        ),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def traced_metrics(runner: Runner, reps: list[dict], out: dict) -> tuple[dict, dict]:
    """One traced repetition's per-layer metrics and time accounting."""
    import spans

    trace_dir = BUILD / "traces" / f"{runner.workload}-s{runner.seed}.spans"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    traced = runner.rep(trace_dir=trace_dir)
    reps.append(traced)
    if traced.get("problems"):
        raise RuntimeError("traced repetition failed: " + "; ".join(traced["problems"]))
    span_list, kernel_calls = spans.load(trace_dir)
    spans.self_times(span_list)
    acct = spans.account(span_list, traced["pid"], JOBS)
    acct["batch_unit_s"] = traced["unit_s"]
    acct["batch_units"] = traced["units"]
    metrics = spans.layer_metrics(span_list, kernel_calls, acct["wall_s"], JOBS)
    metrics["cc.load_s"] = traced["cc_load_s"]
    trace_path = trace_dir.with_suffix(".trace.json")
    trace_path.write_text(json.dumps(
        spans.chrome_trace(span_list, traced["pid"], {"workload": runner.workload,
                                                       "seed": runner.seed})
    ))
    shutil.rmtree(trace_dir, ignore_errors=True)
    out["trace_file"] = str(trace_path.relative_to(ROOT))
    out["self_time_table"] = spans.self_time_table(span_list, acct["engine_idle_s"])
    return metrics, acct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every instruction count (self-test only)")
    args = parser.parse_args(argv)
    global _deadline
    _deadline = time.monotonic() + args.seconds + EXTRA_S

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    declared = _declared_metrics()
    if args.workload not in declared["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)

    host = host_record()
    kernel, _ = build_kernels(BUILD / "kernels")
    if kernel is None:
        print("error: the compiled kernels did not build", file=sys.stderr)
        return 1
    runner = Runner(args.workload, args.seed, args.scale, kernel)
    runner.rep(setup_only=True)  # byte-compile and page in; not measured

    reps: list[dict] = []
    probes: list[dict] = []
    started = time.monotonic()
    ref_before = reference_seconds()
    while True:
        record = runner.rep()
        ref_after = reference_seconds()
        # The host speed over a repetition: the reference jobs bracketing it.
        record["ref_s"] = statistics.fmean(ref_before + ref_after)
        record["ref_cpu_s"] = record["ref_s"] * JOBS
        ref_before = ref_after
        reps.append(record)
        probe = runner.rep(setup_only=True)
        # Set-up is one process, so a single reference process scales it.
        probe["ref1_s"] = reference_seconds(1)[0]
        probes.append(probe)
        elapsed = time.monotonic() - started
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed + per_rep > args.seconds:
            break
    timed = [r for r in reps if not r.get("problems")]
    if not timed:
        print("error: no repetition succeeded:\n  " + "\n  ".join(
            p for r in reps for p in r.get("problems", [])), file=sys.stderr)
        return 1

    setups = [p for p in probes if "setup_s" in p]
    e2e = {
        "wall_rel": statistics.median(r["wall_s"] / r["ref_s"] for r in timed),
        "cpu_rel": statistics.median(r["cpu_s"] / r["ref_cpu_s"] for r in timed),
        "setup_s": statistics.median(
            p["setup_s"] / p["ref1_s"] * REF_UNIT_S for p in setups),
        "setup_raw_s": _median(setups, "setup_s"),
        "peak_rss_mib": _median(timed, "peak_rss_mib"),
        "wall_s": _median(timed, "wall_s"),
        "cpu_s": _median(timed, "cpu_s"),
    }
    result: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "scale": args.scale, "host": host}
    per_layer: dict = {"host.ref_s": _median(timed, "ref_s")}
    if args.trace:
        layer, acct = traced_metrics(runner, reps, result)
        result["accounting"] = acct
        per_layer.update(layer)
        per_layer["trace.wall_s"] = acct["wall_s"]
        per_layer["trace.overhead_s"] = acct["wall_s"] - e2e["wall_s"]
        _, build_s = build_kernels(BUILD / "roots" / f"{os.getpid()}-build")
        shutil.rmtree(BUILD / "roots" / f"{os.getpid()}-build", ignore_errors=True)
        per_layer["cc.build_s"] = build_s

    first = next(r for r in reps if not r.get("problems"))
    reference = _digest_reference(args.workload, args.seed, args.scale, first)
    attempted, failed, problems = check_outputs(reps + probes, reference)

    model = first.get("model", {})
    if model:
        per_layer["model.l1i_mpki"] = statistics.fmean(m["l1i_mpki"] for m in model.values())
        per_layer["model.prefetches_emitted"] = sum(
            m["prefetches_emitted"] for m in model.values())
        per_layer["model.aur"] = statistics.fmean(m["aur"] for m in model.values())
        per_layer["model.branch_mpki"] = statistics.fmean(
            m["branch_mpki"] for m in model.values())
    per_layer["engine.fail_frac"] = failed / attempted if attempted else 1.0
    if args.trace and args.workload == "sampled-long":
        ipc_full = runner.full_fidelity_ipc()
        ipc_sampled = next(iter(model.values()))["ipc"]
        err = abs(ipc_sampled - ipc_full) / ipc_full * 100.0
        per_layer.update({"sampling.ipc_full": ipc_full,
                          "sampling.ipc_sampled": ipc_sampled,
                          "sampling.ipc_err_pct": err})

    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    values = per_layer if args.trace else e2e
    # A layer this workload never enters (another workload's technique
    # labels, a kernel it never calls, sampling on a full-fidelity run)
    # reads 0; the result file lists them.
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in wanted.items()
    }
    host["loadavg_end"] = os.getloadavg()
    result.update({
        "reps": reps, "setup_probes": probes, "end_to_end": e2e,
        "per_layer": per_layer, "not_entered": sorted(set(wanted) - set(values)),
        "attempted": attempted, "failed": failed, "problems": problems,
    })
    results_dir = BUILD / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str))
    print(f"host: {host['cpu_model']}, nproc {host['nproc']}, "
          f"load {host['loadavg_start'][0]:.2f} -> {host['loadavg_end'][0]:.2f}")
    print(f"{args.workload} seed {args.seed}: {len(timed)} timed repetitions, "
          f"{len(setups)} set-ups; {first['batch']}")
    print(f"median wall {e2e['wall_s']:.3f}s, cpu {e2e['cpu_s']:.3f}s, "
          f"set-up {e2e['setup_raw_s']:.3f}s, reference job {per_layer['host.ref_s']:.3f}s")
    if "sampling.ipc_full" in per_layer:
        print(f"sampled IPC {per_layer['sampling.ipc_sampled']:.4f} vs full-fidelity "
              f"{per_layer['sampling.ipc_full']:.4f}: "
              f"{per_layer['sampling.ipc_err_pct']:.2f}% error")
    if args.trace:
        print(result["self_time_table"])
        print(f"trace: {result['trace_file']}, overhead "
              f"{per_layer['trace.overhead_s']:+.3f}s")
    for problem in problems:
        print(f"FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
