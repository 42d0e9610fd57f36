#!/usr/bin/env python3
"""Fig 13 in miniature: compare UDP against its ISO-storage comparators on
a chosen set of workloads.

Techniques (all over the fixed-32-FTQ FDIP baseline):
  * UDP (8KB Bloom-filter useful-set)
  * Infinite-storage UDP (exact, unbounded useful-set)
  * 40 KiB L1I (the 8KB budget spent on cache instead)
  * EIP-8KB (entangled instruction prefetcher layered on FDIP)

Run:
    python examples/udp_vs_comparators.py [workload,workload,...] [instructions]
"""

import sys

from repro import (
    baseline_config,
    bigger_icache_config,
    eip_config,
    geomean,
    infinite_storage_config,
    run_batch,
    spec_for,
    udp_config,
)


def main() -> None:
    workloads = (
        sys.argv[1].split(",") if len(sys.argv) > 1 else ["xgboost", "mongodb", "gcc"]
    )
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000

    configs = {
        "baseline": baseline_config(instructions),
        "udp": udp_config(instructions),
        "infinite": infinite_storage_config(instructions),
        "icache-40k": bigger_icache_config(instructions),
        "eip-8k": eip_config(instructions),
    }

    techniques = [name for name in configs if name != "baseline"]
    # The whole (workload x config) grid goes out as one engine batch.
    specs = [
        spec_for(workload, config, label=name)
        for workload in workloads
        for name, config in configs.items()
    ]
    results = iter(run_batch(specs))
    ratios: dict[str, list[float]] = {name: [] for name in techniques}
    print(f"{'workload':10s} " + " ".join(f"{n:>11s}" for n in techniques))
    for workload in workloads:
        base = next(results)
        cells = []
        for name in techniques:
            ratio = next(results).ipc / base.ipc
            ratios[name].append(ratio)
            cells.append(f"{(ratio - 1) * 100:+10.1f}%")
        print(f"{workload:10s} " + " ".join(cells))

    print(f"{'geomean':10s} " + " ".join(
        f"{(geomean(v) - 1) * 100:+10.1f}%" for v in ratios.values()
    ))
    print("\nPaper reference (Fig 13): UDP up to +16.1% (xgboost), +3.6% average;")
    print("40K icache ~= noise; EIP-8KB substantially below UDP.")


if __name__ == "__main__":
    main()
