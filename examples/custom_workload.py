#!/usr/bin/env python3
"""Build a custom synthetic program with the ProgramBuilder API and run it.

Demonstrates the workload substrate directly: hand-written control flow
(a dispatcher loop, a hot function with a loop, a cold function behind an
unpredictable branch), then a simulation comparing FDIP with and without
UDP on it.
"""

from repro import RunSpec, SimConfig, UDPConfig, run_batch
from repro.workloads import (
    BiasedBehavior,
    LoopBehavior,
    PatternBehavior,
    ProgramBuilder,
)


def build_program():
    b = ProgramBuilder(base=0x10_000)
    dispatch = b.label("dispatch")
    hot = b.label("hot")
    cold = b.label("cold")
    skip_cold = b.label("skip_cold")

    # Dispatcher: call the hot function, sometimes the cold one, loop.
    b.place(dispatch)
    b.set_entry()
    b.call(4, target=hot)
    # ~15% of iterations visit the cold function (data-dependent branch).
    b.cond_branch(3, target=skip_cold, behavior=BiasedBehavior(seed=7, p_taken=0.85))
    b.call(2, target=cold)
    b.place(skip_cold)
    b.block(2, jump_to=dispatch)

    # Hot function: a counted inner loop plus a patterned diamond.
    b.place(hot)
    loop_head = b.label("loop")
    b.place(loop_head)
    b.block(6)
    b.cond_branch(2, target=loop_head, behavior=LoopBehavior(trip_count=8))
    else_side = b.label("else")
    merge = b.label("merge")
    b.cond_branch(4, target=else_side,
                  behavior=PatternBehavior(seed=3, pattern=0b1101, length=4))
    b.block(5, jump_to=merge)
    b.place(else_side)
    b.block(5)
    b.place(merge)
    b.ret(3)

    # Cold function: a big straight-line body (large footprint).
    b.place(cold)
    for _ in range(60):
        b.block(8)
    b.ret(2)

    return b.finish()


def main() -> None:
    program = build_program()
    print(f"custom program: {program.num_blocks} blocks, "
          f"{program.footprint_bytes // 1024} KiB, {program.num_branches} branches\n")

    base_config = SimConfig(max_instructions=15_000, functional_warmup_blocks=2_000)
    udp_config = base_config.replace(udp=UDPConfig(enabled=True))

    # Explicit-program specs are simulated as given (no disk cache).
    base, udp = run_batch(
        [
            RunSpec("custom", config, config.seed, label, program=program)
            for config, label in ((base_config, "baseline"), (udp_config, "udp"))
        ]
    )

    for result in (base, udp):
        print(f"{result.config_name:10s} IPC={result.ipc:.3f} "
              f"MPKI={result.icache_mpki:.2f} utility={result.utility:.2f} "
              f"resteers/ki={result.resteers_per_kilo_instruction:.1f}")
    print(f"\nUDP speedup: {(udp.ipc / base.ipc - 1) * 100:+.1f}%")


if __name__ == "__main__":
    main()
