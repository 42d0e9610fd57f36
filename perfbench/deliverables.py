"""The three deliverables the benchmark times, and what each must leave behind.

Each workload is one real job a developer waits for, run cold through the
public APIs (``repro.analysis.experiments`` and ``repro.sim.engine``):

* ``fig13-grid`` — the paper's headline technique grid on the apps with the
  biggest footprint (verilator), the smallest (mediawiki) and the most
  resteers (mongodb).  The cycle loop dominates and every technique hook runs.
* ``ftq-sweep`` — the shared FTQ-depth sweep behind Figs 3-6/8 and Table III
  with short runs, so the set-up layers dominate: program synthesis runs in
  the parent and warmup checkpoints are mostly *read* (one leader per app).
* ``sampled-long`` — one long verilator region under warm interval sampling.
  Fast-forwards and interval-checkpoint *writes* dominate; the detailed
  cycle loop covers under a tenth of the region.

``scale`` shrinks every instruction count proportionally (the self-test runs
at a tiny scale); the timed benchmark always runs at scale 1.
"""

from __future__ import annotations

FIG13_APPS = ("verilator", "mediawiki", "mongodb")
FIG13_INSTRUCTIONS = 12_000

FTQ_APPS = ("gcc", "xgboost")
FTQ_DEPTHS = (8, 12, 16, 24, 32, 48, 64, 96)
FTQ_INSTRUCTIONS = 4_000

SAMPLED_APP = "verilator"
SAMPLED_INSTRUCTIONS = 500_000
# K intervals of L measured instructions, each after W detailed-warmup ones
# (the verilator row of BENCH_sampling.json).
SAMPLED_SHAPE = (25, 1_000, 500)


def _scaled(instructions: int, scale: float) -> int:
    return max(1_000, int(instructions * scale))


def _fig13_grid(seed: int, scale: float):
    from repro.analysis import experiments

    return experiments.fig13_udp_speedup(
        list(FIG13_APPS), _scaled(FIG13_INSTRUCTIONS, scale), seed
    )


def _ftq_sweep(seed: int, scale: float):
    from repro.analysis import experiments

    return experiments.ftq_sweep_suite(
        list(FTQ_APPS), list(FTQ_DEPTHS), _scaled(FTQ_INSTRUCTIONS, scale), seed
    )


def sampled_spec(seed: int, scale: float, sampled: bool = True):
    """The ``sampled-long`` spec, or its full-fidelity twin (``sampled=False``)."""
    from repro.sim.engine import spec_for
    from repro.sim.presets import baseline_config

    instructions = _scaled(SAMPLED_INSTRUCTIONS, scale)
    config = baseline_config(instructions, seed)
    if sampled:
        intervals, length, warmup = SAMPLED_SHAPE
        if scale != 1.0:
            length = max(100, int(length * scale))
            warmup = max(50, int(warmup * scale))
            intervals = max(2, min(intervals, instructions // (length + warmup) // 2))
        config = config.with_sampling(intervals, length, warmup)
    return spec_for(SAMPLED_APP, config, seed, "baseline")


def _sampled_long(seed: int, scale: float):
    from repro.sim.engine import run_batch

    return run_batch([sampled_spec(seed, scale)])


# name -> run(seed, scale), which returns the experiment's output
DELIVERABLES = {
    "fig13-grid": _fig13_grid,
    "ftq-sweep": _ftq_sweep,
    "sampled-long": _sampled_long,
}
