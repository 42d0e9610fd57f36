"""Ablation: monolithic 8K BTB vs the related-work two-level organization.

Expected shape: the 2-level design's L1-BTB misses cause extra first-touch
resteers, but its L2 backing keeps the steady-state hit rate near the
monolithic design — the capacity/latency trade-off the BTB-research line
(Kobayashi, PDede) navigates.
"""

from common import instructions, run_grid, run_once, workloads

from repro.sim.presets import baseline_config, two_level_btb_config

WORKLOADS = ["gcc", "mysql", "verilator"]


def test_ablation_btb_organization(benchmark):
    def run():
        n = instructions()
        grid = run_grid(
            workloads(WORKLOADS),
            {"mono-btb": baseline_config(n), "two-level-btb": two_level_btb_config(n)},
        )
        return [
            (name, r["mono-btb"], r["two-level-btb"]) for name, r in grid.items()
        ]

    rows = run_once(benchmark, run)
    print()
    print(f"{'workload':10s} {'mono IPC':>9s} {'2lvl IPC':>9s} "
          f"{'mono rst/ki':>12s} {'2lvl rst/ki':>12s}")
    for name, mono, two in rows:
        print(f"{name:10s} {mono.ipc:9.3f} {two.ipc:9.3f} "
              f"{mono.resteers_per_kilo_instruction:12.1f} "
              f"{two.resteers_per_kilo_instruction:12.1f}")
        # The hierarchical design pays extra resteers, never fewer.
        assert two["resteer_btb_miss"] >= mono["resteer_btb_miss"] * 0.8
