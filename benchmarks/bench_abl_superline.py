"""Ablation: UDP with vs without super-line coalescing (DESIGN.md §4).

The super-line optimization stores 2-/4-line blocks in dedicated Bloom
filters, quadrupling effective capacity.  Expected: disabling it does not
crash anything and changes the emitted-prefetch mix; on filter-pressure
workloads the coalesced variant covers more candidates.
"""

from common import instructions, run_grid, run_once, workloads

from repro.sim.presets import baseline_config, udp_config

WORKLOADS = ["gcc", "verilator", "xgboost"]


def test_ablation_superline(benchmark):
    def run():
        n = instructions()
        configs = {
            "baseline": baseline_config(n),
            "udp": udp_config(n),
            "udp-no-superline": udp_config(n, use_superlines=False),
        }
        rows = []
        for name, r in run_grid(workloads(WORKLOADS), configs).items():
            with_sl = r["udp"]
            rows.append((name, r["baseline"].ipc, with_sl.ipc,
                         r["udp-no-superline"].ipc, with_sl["udp_superline_emits"]))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(f"{'workload':10s} {'base':>7s} {'udp':>7s} {'no-sl':>7s} {'sl-emits':>9s}")
    for name, base, with_sl, without, emits in rows:
        print(f"{name:10s} {base:7.3f} {with_sl:7.3f} {without:7.3f} {emits:9d}")
    for name, base, with_sl, without, _ in rows:
        assert with_sl > 0 and without > 0
