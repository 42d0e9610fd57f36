"""Compiled kernels: byte-identity with the object oracle.

Style of ``tests/sim/test_fastforward.py``: the runtime-compiled C kernels
over structure-of-arrays state (TAGE/BTB/iBTB/cache/backend, plus the
compiled-only planned fetch-window walker, ``btb_first_hit``, the
precomputed dep-flag table and issue-scan wake gating) must be pure
wall-clock optimizations — for any (workload, preset) pair the final cycle
count and every measured counter must match the object-based
implementations exactly.  The object path stays in the tree
(``REPRO_NO_COMPILED`` / ``compiled=False``) precisely so it can serve as
the oracle.

Checkpoints must also be layout-neutral: a warmup blob captured in either
mode must restore into either mode and still reproduce the oracle's
from-scratch counters.
"""

import collections

import pytest

from repro.backend.core import BackendCore
from repro.branch.btb import BranchTargetBuffer, IndirectTargetBuffer
from repro.branch.history import GlobalHistory
from repro.branch.tage import TagePredictor
from repro.common import cc
from repro.memory.cache import SetAssocCache
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim import checkpoint as ckpt
from repro.sim import engine, sampling
from repro.sim.presets import PRESET_BUILDERS
from repro.sim.profile import build_simulator
from repro.sim.simulator import Simulator
from repro.workloads import store as program_store
from repro.workloads.profiles import get_profile
from repro.workloads.store import ProgramStore

N = 4_000
SEED = 1

# The two execution modes.  "compiled" silently degrades to "object" on a
# compiler-less host, which keeps these identity tests meaningful everywhere
# (they become object-vs-object there).
_MODES = {
    "object": dict(compiled=False),
    "compiled": dict(compiled=True),
}


def _run_mode(workload: str, preset: str, n: int, mode: str):
    config = PRESET_BUILDERS[preset](n)
    simulator = build_simulator(workload, config, **_MODES[mode])
    simulator.run()
    return simulator


def _logical_state(sim) -> dict:
    """Predictor, cache and data-generator state in the checkpoint format,
    so SoA ndarrays and the object oracle's dicts compare directly (the
    packed TAGE, BTB, iBTB, cache and occurrence buffers must be
    byte-equal)."""
    bpu = sim.bpu
    return {
        "history": bpu.history.checkpoint(),
        "tage": bpu.tage.state_packed(),
        "btb": bpu.btb.state_packed(),
        "ibtb": bpu.ibtb.state_packed(),
        "l1i": sim.l1i.state_packed(),
        "l1d": sim.hierarchy.l1d.state_packed(),
        "l2": sim.hierarchy.l2.state_packed(),
        "llc": sim.hierarchy.llc.state_packed(),
        "data": sim.data_gen.occurrences_state(),
    }


@pytest.mark.parametrize("preset", sorted(PRESET_BUILDERS))
def test_vector_counters_identical(preset):
    # The compiled path's structure-of-arrays state must end the measured
    # run holding exactly the oracle's predictor and cache contents, not
    # merely producing the same counters.
    vec = _run_mode("gcc", preset, N, "compiled")
    obj = _run_mode("gcc", preset, N, "object")
    assert vec.cycle == obj.cycle
    assert vec.measured_counters() == obj.measured_counters()
    assert _logical_state(vec) == _logical_state(obj)


@pytest.mark.parametrize("workload", ["verilator", "xgboost"])
def test_vector_counters_identical_stress_workloads(workload):
    vec = _run_mode(workload, "miss-heavy", N, "compiled")
    obj = _run_mode(workload, "miss-heavy", N, "object")
    assert vec.cycle == obj.cycle
    assert vec.measured_counters() == obj.measured_counters()
    assert _logical_state(vec) == _logical_state(obj)


@pytest.mark.parametrize("preset", sorted(PRESET_BUILDERS))
def test_compiled_counters_identical(preset):
    probes_before = cc.kernel_call_counts().get("btb_probe", 0)
    compiled = _run_mode("gcc", preset, N, "compiled")
    probes_after = cc.kernel_call_counts().get("btb_probe", 0)
    obj = _run_mode("gcc", preset, N, "object")
    assert compiled.cycle == obj.cycle
    assert compiled.measured_counters() == obj.measured_counters()
    if compiled.compiled_enabled:
        # Every BTB organization, the two-level one included, probes
        # through the compiled kernel.
        assert probes_after > probes_before


@pytest.mark.parametrize("workload", ["verilator", "xgboost"])
def test_compiled_counters_identical_stress_workloads(workload):
    # The two pathological frontends from the paper, on the preset built to
    # maximize icache-miss churn through the SoA cache arrays.
    compiled = _run_mode(workload, "miss-heavy", N, "compiled")
    obj = _run_mode(workload, "miss-heavy", N, "object")
    assert compiled.cycle == obj.cycle
    assert compiled.measured_counters() == obj.measured_counters()


def test_env_var_disables_compiled(monkeypatch):
    # An explicit compiled=True does NOT override the env: compiled kernels
    # may be unavailable for external reasons (no compiler), so graceful
    # degradation to the object oracle is the contract throughout.
    monkeypatch.setenv("REPRO_NO_COMPILED", "1")
    config = PRESET_BUILDERS["baseline"](N)
    simulator = build_simulator("gcc", config)
    assert not simulator.compiled_enabled
    forced = build_simulator("gcc", config, compiled=True)
    assert not forced.compiled_enabled
    for sim in (simulator, forced):
        assert type(sim.bpu.history) is GlobalHistory
        assert type(sim.bpu.tage) is TagePredictor
        assert type(sim.bpu.btb) is BranchTargetBuffer
        assert type(sim.bpu.ibtb) is IndirectTargetBuffer
        assert type(sim.l1i) is SetAssocCache
        assert type(sim.hierarchy) is MemoryHierarchy
        assert type(sim.hierarchy.l1d) is SetAssocCache
        assert type(sim.backend) is BackendCore


@pytest.mark.parametrize("capture_mode", sorted(_MODES))
@pytest.mark.parametrize("restore_mode", sorted(_MODES))
def test_checkpoint_round_trips_across_modes(
    tmp_path, monkeypatch, capture_mode, restore_mode
):
    """A warmup blob is layout-neutral: any capture/restore mode combo must
    reproduce the object oracle's from-scratch counters."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CHECKPOINT", raising=False)
    config = PRESET_BUILDERS["udp"](N, SEED)
    prof = get_profile("gcc")
    program = program_store.program_for("gcc", SEED)

    donor = Simulator(
        program, config, data_profile=prof.data, **_MODES[capture_mode]
    )
    donor.functional_warmup(config.functional_warmup_blocks)
    blob = ckpt.capture_warmup(donor)

    restored = Simulator(
        program, config, data_profile=prof.data, **_MODES[restore_mode]
    )
    ckpt.restore_warmup(restored, blob)
    restored.run()

    scratch = Simulator(
        program, config, data_profile=prof.data, **_MODES["object"]
    )
    scratch.functional_warmup(config.functional_warmup_blocks)
    scratch.run()

    assert restored.cycle == scratch.cycle
    assert restored.measured_counters() == scratch.measured_counters()


@pytest.mark.parametrize("capture_mode", sorted(_MODES))
@pytest.mark.parametrize("restore_mode", sorted(_MODES))
def test_warm_fastforward_checkpoints_cross_modes(
    tmp_path, monkeypatch, capture_mode, restore_mode
):
    """Schema-3 state — the data caches filled by the warming replay, the
    stream prefetcher table, and the data generator's occurrence counters —
    survives any capture/restore mode combo just like warmup state does,
    matching the object oracle's from-scratch walk."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CHECKPOINT", raising=False)
    config = PRESET_BUILDERS["udp"](N, SEED).with_sampling(4, 500, 250)
    prof = get_profile("gcc")
    program = program_store.program_for("gcc", SEED)

    def fresh(mode):
        return Simulator(
            program, config, data_profile=prof.data, **_MODES[mode]
        )

    donor = fresh(capture_mode)
    donor.functional_warmup(config.functional_warmup_blocks)
    target = donor.oracle.instrs_walked + 600
    donor.fast_forward_to(target, warm=True)
    assert donor.data_gen.occurrences_state()["pcs"]
    blob = ckpt.capture_warmup(donor)

    restored = fresh(restore_mode)
    ckpt.restore_warmup(restored, blob)

    scratch = fresh("object")
    scratch.functional_warmup(config.functional_warmup_blocks)
    scratch.fast_forward_to(target, warm=True)

    # The warming-mutated state restores layout-neutrally...
    assert (
        restored.data_gen.occurrences_state()
        == scratch.data_gen.occurrences_state()
    )
    assert (
        restored.hierarchy.l1d.state_packed()
        == scratch.hierarchy.l1d.state_packed()
    )
    assert (restored.hierarchy.stream is None) == (
        scratch.hierarchy.stream is None
    )
    if restored.hierarchy.stream is not None:
        assert (
            restored.hierarchy.stream.state_dict()
            == scratch.hierarchy.stream.state_dict()
        )
    # ...and the measured region proceeds byte-identically.
    restored.run()
    scratch.run()
    assert restored.cycle == scratch.cycle
    assert restored.measured_counters() == scratch.measured_counters()


def test_checkpoint_keys_are_derived_once_per_spec(monkeypatch):
    """Every unit of a K=40 sampled spec gets its checkpoint keys from one
    per-spec derivation: the program key and the warmup config subset are
    computed once, not once per interval, and each unit's keys still equal
    the per-interval key functions (own key first, then earlier ones)."""
    monkeypatch.delenv("REPRO_NO_CHECKPOINT", raising=False)
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        ProgramStore, "key_for", counting("program", ProgramStore.key_for)
    )
    monkeypatch.setattr(
        ckpt, "warmup_config_subset", counting("subset", ckpt.warmup_config_subset)
    )
    engine._spec_checkpoint_keys.cache_clear()
    config = PRESET_BUILDERS["baseline"](80_000, SEED).with_sampling(40, 500, 250)
    spec = engine.spec_for("gcc", config, SEED)
    plans = sampling.plan_intervals(config)
    units = [engine._unit_checkpoint_keys(spec, p, earlier=True) for p in plans]
    heads = [engine._unit_checkpoint_keys(spec, p) for p in plans]
    assert calls == {"program": 1, "subset": 1}

    program_key = ProgramStore().key_for("gcc", SEED)
    warmup_key = ckpt.checkpoint_key(program_key, SEED, config)
    for plan, unit, head in zip(plans, units, heads):
        expected = [
            (p.ff_instructions, ckpt.interval_checkpoint_key(
                program_key, SEED, config, p.ff_instructions
            ))
            for p in reversed(plans[: plan.index + 1])
            if p.ff_instructions > 0
        ]
        assert unit == (warmup_key, expected)
        assert head == (warmup_key, expected[:1])
