"""repro — reproduction of "UDP: Utility-Driven Fetch Directed Instruction
Prefetching" (ISCA 2024).

Public API tour::

    from repro import baseline_config, udp_config, run_batch, spec_for

    base, udp = run_batch([
        spec_for("xgboost", baseline_config(max_instructions=20_000), label="baseline"),
        spec_for("xgboost", udp_config(max_instructions=20_000), label="udp"),
    ])
    print(udp.ipc / base.ipc)   # UDP's IPC speedup over fixed-FTQ FDIP

Every run goes through the parallel experiment engine: ``run_batch`` fans a
spec list out over ``REPRO_JOBS`` processes and caches results on disk (see
``docs/running_experiments.md``), so build one list per sweep and submit it
once.

Layers (bottom-up):

* :mod:`repro.workloads` — synthetic datacenter programs + ground-truth oracle
* :mod:`repro.branch` — TAGE / BTB / iBTB / RAS substrate
* :mod:`repro.memory` — caches, MSHRs, uncore, stream data prefetcher
* :mod:`repro.frontend` — FTQ, decoupled walker (wrong-path capable), FDIP
* :mod:`repro.backend` — simplified OoO window with branch-resolution timing
* :mod:`repro.core` — the paper's contributions: UDP and UFTQ
* :mod:`repro.prefetchers` — stand-alone comparators (EIP, next-line)
* :mod:`repro.sim` — the cycle loop, presets, experiment engine, metrics
* :mod:`repro.analysis` — one experiment function per paper figure/table
"""

from repro.common.config import SimConfig, TechniqueConfig, UDPConfig, UFTQConfig
from repro.sim.engine import (
    BatchError,
    BatchStats,
    ResultCache,
    RunEvent,
    RunSpec,
    SpecFailure,
    default_cache,
    program_for,
    run_batch,
    set_default_progress,
    spec_for,
)
from repro.sim.metrics import SimResult, geomean, speedup
from repro.sim.presets import (
    baseline_config,
    bigger_icache_config,
    eip_config,
    infinite_storage_config,
    mana_config,
    opt_config,
    perfect_icache_config,
    shadow_btb_config,
    udp_config,
    uftq_config,
)
from repro.sim.simulator import Simulator
from repro.workloads.profiles import PAPER_TABLE3, SUITE, get_profile
from repro.workloads.synth import synthesize

__version__ = "1.0.0"

__all__ = [
    "BatchError",
    "BatchStats",
    "ResultCache",
    "RunEvent",
    "RunSpec",
    "SpecFailure",
    "default_cache",
    "program_for",
    "run_batch",
    "set_default_progress",
    "spec_for",
    "SimConfig",
    "TechniqueConfig",
    "UDPConfig",
    "UFTQConfig",
    "SimResult",
    "geomean",
    "speedup",
    "baseline_config",
    "bigger_icache_config",
    "eip_config",
    "infinite_storage_config",
    "mana_config",
    "opt_config",
    "perfect_icache_config",
    "shadow_btb_config",
    "udp_config",
    "uftq_config",
    "Simulator",
    "PAPER_TABLE3",
    "SUITE",
    "get_profile",
    "synthesize",
    "__version__",
]
