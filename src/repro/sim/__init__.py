"""Simulation: the cycle-level core model, the experiment engine, presets, metrics."""

from repro.sim.energy import EnergyModel, EnergyReport, efficiency_comparison, energy_report
from repro.sim.engine import (
    BatchStats,
    ResultCache,
    RunEvent,
    RunSpec,
    default_cache,
    program_for,
    run_batch,
    set_default_progress,
    spec_for,
)
from repro.sim.metrics import SimResult, geomean, speedup
from repro.sim.presets import (
    PRESET_BUILDERS,
    baseline_config,
    bigger_icache_config,
    eip_config,
    infinite_storage_config,
    loop_predictor_config,
    miss_heavy_config,
    no_prefetch_config,
    opt_config,
    sw_profile_config,
    two_level_btb_config,
    perfect_icache_config,
    udp_config,
    uftq_config,
)
from repro.sim.simulator import Simulator

__all__ = [
    "BatchStats",
    "ResultCache",
    "RunEvent",
    "RunSpec",
    "default_cache",
    "run_batch",
    "set_default_progress",
    "spec_for",
    "EnergyModel",
    "EnergyReport",
    "efficiency_comparison",
    "energy_report",
    "SimResult",
    "geomean",
    "speedup",
    "PRESET_BUILDERS",
    "baseline_config",
    "bigger_icache_config",
    "eip_config",
    "infinite_storage_config",
    "loop_predictor_config",
    "miss_heavy_config",
    "no_prefetch_config",
    "sw_profile_config",
    "two_level_btb_config",
    "opt_config",
    "perfect_icache_config",
    "udp_config",
    "uftq_config",
    "program_for",
    "Simulator",
]

from repro.sim.tracer import PipelineTracer, TraceEvent  # noqa: E402

__all__ += ["PipelineTracer", "TraceEvent"]
