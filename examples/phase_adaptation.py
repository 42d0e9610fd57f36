#!/usr/bin/env python3
"""UFTQ's always-on adaptation across program phase changes (Section IV-A).

Builds a phase-shifting variant of a workload (its conditionals flip
between the original predictable behaviour and coin flips every
``PHASE_LENGTH`` occurrences) and compares the fixed-32 baseline against
UFTQ-ATR-AUR, which the paper keeps always-on precisely for this case.
"""

from repro import RunSpec, SimConfig, UFTQConfig, run_batch
from repro.workloads.phases import make_phased_program, phase_summary
from repro.workloads.profiles import get_profile

WORKLOAD = "gcc"
PHASE_LENGTH = 200
INSTRUCTIONS = 20_000


def main() -> None:
    profile = get_profile(WORKLOAD)
    program = make_phased_program(
        profile, seed=1, phase_length=PHASE_LENGTH, affected_fraction=0.5
    )
    summary = phase_summary(program)
    print(f"{WORKLOAD} (phased): {summary['phased_conditionals']} conditionals "
          f"flip behaviour every {PHASE_LENGTH} occurrences, "
          f"{summary['plain_conditionals']} stay fixed\n")

    base_config = SimConfig(max_instructions=INSTRUCTIONS)
    uftq_config = base_config.replace(uftq=UFTQConfig(mode="atr-aur"))

    runs = {"baseline": base_config, "uftq-atr-aur": uftq_config}
    base, uftq = run_batch(
        [
            RunSpec(WORKLOAD, config, config.seed, label, program=program)
            for label, config in runs.items()
        ]
    )

    for result in (base, uftq):
        print(f"{result.config_name:14s} IPC={result.ipc:.3f} "
              f"MPKI={result.icache_mpki:.2f} "
              f"final_depth={result.final_ftq_depth} "
              f"adjustments={result['uftq_adjustments']}")
    print(f"\nUFTQ speedup on the phased workload: "
          f"{(uftq.ipc / base.ipc - 1) * 100:+.1f}%")
    print("The controller's adjustment count shows it kept re-searching as "
          "phases flipped (always-on, per the paper).")


if __name__ == "__main__":
    main()
