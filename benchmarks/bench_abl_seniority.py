"""Ablation: UDP's Seniority-FTQ vs direct demand-hit-only training.

The Seniority-FTQ proves candidates useful at *retirement*, preventing the
useful-set from learning lines only consumed on the wrong path.  Expected:
both variants run; the seniority variant's learned set is the more
selective one (fewer insertions per prefetch).
"""

from common import instructions, run_grid, run_once, workloads

from repro.sim.presets import baseline_config, udp_config

WORKLOADS = ["xgboost", "mongodb", "gcc"]


def test_ablation_seniority(benchmark):
    def run():
        n = instructions()
        configs = {
            "baseline": baseline_config(n),
            "udp": udp_config(n),
            "udp-no-seniority": udp_config(n, use_seniority=False),
        }
        rows = []
        for name, r in run_grid(workloads(WORKLOADS), configs).items():
            base, with_sen, without = r.values()
            rows.append(
                (
                    name,
                    base.ipc,
                    with_sen.ipc,
                    without.ipc,
                    with_sen["udp_learned_useful"],
                    without["udp_learned_useful_direct"],
                )
            )
        return rows

    rows = run_once(benchmark, run)
    print()
    print(f"{'workload':10s} {'base':>7s} {'udp':>7s} {'no-sen':>7s} "
          f"{'sen-learn':>10s} {'direct-learn':>13s}")
    for name, base, with_sen, without, learned, direct in rows:
        print(f"{name:10s} {base:7.3f} {with_sen:7.3f} {without:7.3f} "
              f"{learned:10d} {direct:13d}")
    for name, base, with_sen, without, *_ in rows:
        assert with_sen > 0 and without > 0
