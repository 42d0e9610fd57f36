"""Golden-counter regression: every preset's full counter set is pinned.

One fixed-seed run per preset (gcc, 3000 instructions, seed 1) with the
complete ``measured_counters()`` dict checked into
``tests/sim/fixtures/golden_counters.json``.  Any change to simulated
behaviour — however small — shows up as a counter diff here, which makes
the fixture the tripwire for "performance work must not change results"
(the fast-forward equivalence tests check FF-vs-naive; this one checks
today-vs-the-day-the-fixture-was-blessed).

Intentional behaviour changes must regenerate the fixture via the CLI and
review the diff (see docs/performance.md for the blessing workflow)::

    PYTHONPATH=src python -m repro bless-golden

The run parameters and the generator live in :mod:`repro.sim.golden`, so
the test and the blessing command can never disagree about what a golden
run is.
"""

import json
import os

import pytest

from repro.sim import golden
from repro.sim.presets import PRESET_BUILDERS

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden_counters.json"
)


def _load_fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_covers_every_preset():
    golden_data = _load_fixture()["counters"]
    assert sorted(golden_data) == sorted(PRESET_BUILDERS), (
        "preset list changed: regenerate the fixture "
        "(PYTHONPATH=src python -m repro bless-golden)"
    )


def test_module_and_fixture_parameters_agree():
    data = _load_fixture()
    assert data["workload"] == golden.WORKLOAD
    assert data["instructions"] == golden.INSTRUCTIONS
    assert data["seed"] == golden.SEED


def test_blessed_path_is_this_fixture():
    assert os.path.samefile(os.path.dirname(FIXTURE),
                            golden.FIXTURE_PATH.parent)
    assert golden.FIXTURE_PATH.name == os.path.basename(FIXTURE)


@pytest.mark.parametrize("preset", sorted(PRESET_BUILDERS))
def test_counters_match_golden(preset):
    expected = _load_fixture()["counters"][preset]
    current = golden.golden_counters(preset)
    assert current == expected, (
        f"{preset}: measured counters diverged from the blessed fixture; "
        "if intentional, regenerate with `python -m repro bless-golden` "
        "and review the diff"
    )


def test_engine_reproduces_golden(tmp_path, monkeypatch):
    """The engine path (``run_batch``) lands on the blessed counters too.

    Two passes over a fresh artifact root: the first synthesizes the program
    and creates the warmup checkpoints, the second restores every warmup.
    Both must equal the fixture the direct simulator run is pinned to.
    """
    from repro.sim import checkpoint as ckpt
    from repro.sim import engine
    from repro.sim.engine import run_batch, spec_for

    monkeypatch.setenv(engine.CACHE_DIR_ENV, str(tmp_path / "artifacts"))
    monkeypatch.delenv(ckpt.NO_CHECKPOINT_ENV, raising=False)
    expected = _load_fixture()["counters"]
    presets = sorted(PRESET_BUILDERS)
    specs = [
        spec_for(
            golden.WORKLOAD,
            PRESET_BUILDERS[preset](golden.INSTRUCTIONS, golden.SEED),
            golden.SEED,
            preset,
        )
        for preset in presets
    ]
    for expect_restored in (False, True):
        events = []
        results = run_batch(specs, jobs=1, no_cache=True, progress=events.append)
        for preset, result in zip(presets, results):
            assert result.counters == expected[preset], (
                f"{preset}: engine counters diverged from the blessed fixture"
            )
        checkpoints = {e.checkpoint for e in events}
        if expect_restored:
            assert checkpoints == {"restored"}
        else:
            assert "created" in checkpoints


if __name__ == "__main__":
    print(f"wrote {golden.bless(FIXTURE)}")
