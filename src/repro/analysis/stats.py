"""Multi-seed robustness and interval-sampling error statistics.

The paper averages 10 SimPoints per application; our equivalent of
sampling variance is the synthesis/data seed.  ``multi_seed_speedup``
repeats a baseline/technique comparison across seeds and reports the mean
speedup with a normal-approximation confidence interval, so reproduction
claims can be checked for seed-robustness rather than read off a single
run.

For interval-sampled runs (``SimConfig.sampling``), ``ipc_sampling_error``
quantifies the accuracy cost: the relative IPC deviation of a sampled
result against its full-fidelity reference, to be read next to the
sampled result's own CI estimate (``result.sampling["ipc_relative_ci95"]``).

The mean/stdev/CI arithmetic lives in :mod:`repro.common.stats` so the
simulation layer (which this module sits above) can share it without an
import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import SimConfig
from repro.common.stats import ci95_half_width, mean, stdev
from repro.sim.metrics import SimResult
from repro.sim.engine import run_batch, spec_for


@dataclass
class SpeedupStats:
    """Speedup distribution over seeds."""

    workload: str
    ratios: list[float]

    @property
    def mean(self) -> float:
        return mean(self.ratios)

    @property
    def stdev(self) -> float:
        return stdev(self.ratios)

    @property
    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval on the mean."""
        half = ci95_half_width(self.ratios)
        return self.mean - half, self.mean + half

    @property
    def mean_pct(self) -> float:
        return (self.mean - 1.0) * 100.0

    def consistent_sign(self) -> bool:
        """True when every seed agrees on the speedup direction."""
        return all(r >= 1.0 for r in self.ratios) or all(
            r <= 1.0 for r in self.ratios
        )


def multi_seed_speedup(
    workload: str,
    baseline: SimConfig,
    technique: SimConfig,
    seeds: list[int],
) -> SpeedupStats:
    """Run baseline and technique across ``seeds``; collect IPC ratios.

    All ``2 * len(seeds)`` runs go through one :func:`run_batch` call.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    specs = [
        spec_for(workload, config.replace(seed=seed), seed, label)
        for seed in seeds
        for config, label in ((baseline, "baseline"), (technique, "technique"))
    ]
    results = run_batch(specs)
    ratios = [
        test.ipc / base.ipc if base.ipc else 1.0
        for base, test in zip(results[0::2], results[1::2])
    ]
    return SpeedupStats(workload, ratios)


def ipc_sampling_error(sampled: SimResult, reference: SimResult) -> float:
    """Relative IPC error of a sampled run against a full-fidelity reference.

    ``|sampled.ipc - reference.ipc| / reference.ipc`` — the empirical
    accuracy of the interval sample, as opposed to the CI the sample
    estimates about itself (``sampled.sampling["ipc_relative_ci95"]``).
    Returns 0.0 when the reference IPC is zero.
    """
    if reference.ipc == 0:
        return 0.0
    return abs(sampled.ipc - reference.ipc) / reference.ipc
