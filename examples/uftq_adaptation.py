#!/usr/bin/env python3
"""Watch UFTQ adapt the FTQ depth at runtime (Section IV-A).

Runs the three UFTQ controllers on two workloads with opposite optimal
depths (verilator wants deep, mysql is content shallow) and reports the
final adapted depth, the controller's phase trajectory, and IPC versus the
fixed-32 baseline and the exhaustive-search OPT.
"""

from repro import baseline_config, run_batch, spec_for, uftq_config

WORKLOADS = ["verilator", "mysql"]
INSTRUCTIONS = 20_000
SWEEP_DEPTHS = [8, 16, 32, 48, 64, 96]
MODES = ("aur", "atr", "atr-aur")


def main() -> None:
    base_config = baseline_config(INSTRUCTIONS)
    configs = {"baseline": base_config}
    configs.update(
        (f"ftq{depth}", base_config.with_ftq_depth(depth)) for depth in SWEEP_DEPTHS
    )
    configs.update((f"uftq-{mode}", uftq_config(mode, INSTRUCTIONS)) for mode in MODES)
    # Baseline, the OPT depth sweep and the UFTQ runs: one engine batch.
    specs = [
        spec_for(workload, config, label=label)
        for workload in WORKLOADS
        for label, config in configs.items()
    ]
    results = {(s.workload, s.label): r for s, r in zip(specs, run_batch(specs))}
    for workload in WORKLOADS:
        base = results[workload, "baseline"]
        # Exhaustive-search optimum depth (the paper's OPT oracle).
        best_depth = max(
            SWEEP_DEPTHS, key=lambda d: results[workload, f"ftq{d}"].ipc
        )
        opt = results[workload, f"ftq{best_depth}"]
        print(f"\n=== {workload} ===")
        print(f"baseline (FTQ=32): IPC {base.ipc:.3f}")
        print(f"OPT (FTQ={best_depth}):     IPC {opt.ipc:.3f} "
              f"({(opt.ipc / base.ipc - 1) * 100:+.1f}%)")
        for mode in MODES:
            result = results[workload, f"uftq-{mode}"]
            print(
                f"UFTQ-{mode.upper():8s} IPC {result.ipc:.3f} "
                f"({(result.ipc / base.ipc - 1) * 100:+.1f}%), "
                f"final depth {result.final_ftq_depth}, "
                f"adjustments {result['uftq_adjustments']}"
            )


if __name__ == "__main__":
    main()
