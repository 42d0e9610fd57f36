"""Ablation: UDP confidence-threshold sweep.

The threshold controls how much prediction uncertainty accumulates before
UDP assumes the frontend is off-path.  Expected: a very low threshold gates
aggressively (more drops), a very high one degenerates toward baseline
FDIP (few drops).
"""

from common import instructions, run_grid, run_once, workloads

from repro.sim.presets import udp_config

WORKLOADS = ["xgboost", "gcc"]
THRESHOLDS = [2, 4, 8, 16]


def test_ablation_confidence_threshold(benchmark):
    def run():
        configs = {
            f"udp-t{threshold}": udp_config(
                instructions(), confidence_threshold=threshold
            )
            for threshold in THRESHOLDS
        }
        grid = run_grid(workloads(WORKLOADS), configs)
        out = {}
        for name, results in grid.items():
            rows = []
            for threshold in THRESHOLDS:
                r = results[f"udp-t{threshold}"]
                rows.append((threshold, r.ipc, r["udp_drop_off_path"],
                             r["udp_emit_off_path"]))
            out[name] = rows
        return out

    out = run_once(benchmark, run)
    print()
    for name, rows in out.items():
        print(name)
        for threshold, ipc, drops, emits in rows:
            print(f"  threshold={threshold:2d} ipc={ipc:.3f} drops={drops} emits={emits}")
        drops_low = rows[0][2]
        drops_high = rows[-1][2]
        assert drops_low >= drops_high, (
            f"{name}: lower threshold should gate at least as aggressively"
        )
