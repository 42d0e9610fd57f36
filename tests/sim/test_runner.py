"""Running workloads through the engine's batch API: caching, sweeps, optima."""

from repro.analysis.experiments import table3_optimal_ftq
from repro.sim.engine import program_for, run_batch, spec_for
from repro.sim.presets import baseline_config

FAST = baseline_config(max_instructions=3_000).replace(
    functional_warmup_blocks=1_500
)


def _sweep(depths: list[int]) -> dict[int, object]:
    specs = [
        spec_for("mediawiki", FAST.with_ftq_depth(depth), 1, f"ftq{depth}")
        for depth in depths
    ]
    return dict(zip(depths, run_batch(specs)))


def test_program_cache_returns_same_object():
    assert program_for("mysql", 1) is program_for("mysql", 1)
    assert program_for("mysql", 1) is not program_for("mysql", 2)


def test_single_spec_result_fields():
    (result,) = run_batch([spec_for("mediawiki", FAST, label="fast")])
    assert result.workload == "mediawiki"
    assert result.config_name == "fast"
    assert result.retired >= 3_000
    assert result.cycles > 0
    assert result.ipc > 0


def test_workload_profile_pins_load_dependence():
    # xgboost pins a high load-dependence fraction; it must not leak into
    # the caller's config object.
    config = baseline_config(max_instructions=2_000)
    run_batch([spec_for("xgboost", config)])
    assert config.core.load_dependence_fraction != 0.55


def test_sweep_returns_all_depths():
    results = _sweep([16, 32])
    assert sorted(results) == [16, 32]
    assert all(r.retired >= 3_000 for r in results.values())


def test_opt_oracle_picks_max_ipc():
    # The paper's OPT oracle (Table III): exhaustive search over depths.
    results = _sweep([16, 32])
    best, _, _ = table3_optimal_ftq({"mediawiki": results})["optima"]["mediawiki"]
    assert best in results
    assert results[best].ipc == max(r.ipc for r in results.values())


def test_grid_batch_structure():
    # A (workload x config) grid is one batch; results come back in spec order.
    configs = {"baseline": FAST, "ftq16": FAST.with_ftq_depth(16)}
    specs = [
        spec_for(workload, config, 1, name)
        for workload in ["mediawiki"]
        for name, config in configs.items()
    ]
    results = run_batch(specs)
    assert [(r.workload, r.config_name) for r in results] == [
        ("mediawiki", "baseline"),
        ("mediawiki", "ftq16"),
    ]
    assert all(r.ipc > 0 for r in results)
