#!/usr/bin/env python3
"""Section V-C's efficiency claim, measured: UDP reduces emitted prefetches
and off-chip traffic at equal (or better) performance.

Prints per-workload energy/traffic breakdowns for the FDIP baseline and
UDP, using the first-order energy model in ``repro.sim.energy``.
"""

from repro import baseline_config, run_batch, spec_for, udp_config
from repro.sim.energy import efficiency_comparison, energy_report

WORKLOADS = ["xgboost", "gcc", "mongodb"]
INSTRUCTIONS = 20_000


def main() -> None:
    configs = {"baseline": baseline_config(INSTRUCTIONS), "udp": udp_config(INSTRUCTIONS)}
    specs = [
        spec_for(workload, config, label=label)
        for workload in WORKLOADS
        for label, config in configs.items()
    ]
    results = run_batch(specs)
    for workload, base, udp in zip(WORKLOADS, results[0::2], results[1::2]):
        base_report = energy_report(base)
        udp_report = energy_report(udp)
        deltas = efficiency_comparison(base, udp)

        print(f"\n=== {workload} ===")
        print(f"baseline: {base_report.pj_per_instruction:8.1f} pJ/instr, "
              f"{base_report.offchip_bytes_per_kinstr:8.0f} B/kinstr off-chip, "
              f"{base['prefetches_emitted']} prefetches")
        print(f"udp:      {udp_report.pj_per_instruction:8.1f} pJ/instr, "
              f"{udp_report.offchip_bytes_per_kinstr:8.0f} B/kinstr off-chip, "
              f"{udp['prefetches_emitted']} prefetches")
        print(f"deltas:   prefetches {deltas['prefetches_emitted_pct']:+.1f}%, "
              f"off-chip {deltas['offchip_traffic_pct']:+.1f}%, "
              f"energy/instr {deltas['energy_per_instruction_pct']:+.1f}%, "
              f"IPC {deltas['ipc_pct']:+.1f}%")
        top = sorted(udp_report.per_component_pj.items(),
                     key=lambda kv: -kv[1])[:3]
        print("largest UDP energy components: "
              + ", ".join(f"{k} {v/1e6:.2f}µJ" for k, v in top))


if __name__ == "__main__":
    main()
