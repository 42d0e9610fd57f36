"""Section V-C's efficiency claim: UDP reduces emitted prefetches and
off-chip traffic (and therefore energy) relative to the FDIP baseline.

Expected shape: on gating-heavy workloads UDP emits fewer prefetches and
moves less DRAM traffic per kilo-instruction.
"""

from common import instructions, run_grid, run_once, workloads

from repro.sim.energy import efficiency_comparison, energy_report
from repro.sim.presets import baseline_config, udp_config

WORKLOADS = ["xgboost", "gcc", "mongodb"]


def test_energy_efficiency(benchmark):
    def run():
        n = instructions()
        configs = {"baseline": baseline_config(n), "udp": udp_config(n)}
        rows = []
        for name, r in run_grid(workloads(WORKLOADS), configs).items():
            base, udp = r["baseline"], r["udp"]
            deltas = efficiency_comparison(base, udp)
            report = energy_report(udp)
            rows.append((name, deltas, report))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(f"{'workload':10s} {'prefetches':>11s} {'offchip':>9s} "
          f"{'pJ/instr':>9s} {'IPC':>7s}")
    for name, deltas, report in rows:
        print(
            f"{name:10s} {deltas['prefetches_emitted_pct']:+10.1f}% "
            f"{deltas['offchip_traffic_pct']:+8.1f}% "
            f"{deltas['energy_per_instruction_pct']:+8.1f}% "
            f"{deltas['ipc_pct']:+6.1f}%"
        )
        assert report.total_pj > 0
    # UDP must not inflate prefetch volume anywhere (it only gates).
    for name, deltas, _ in rows:
        assert deltas["prefetches_emitted_pct"] <= 30.0, name
