"""Multi-seed robustness: is the LS gap a real effect or seed noise?

The paper reports single runs per configuration (standard for
2,048-GPU-scale experiments).  At laptop scale we can afford replication,
so this module reruns a comparison across seeds and reports mean ± std per
strategy — letting the benchmarks assert that the strategy separations
they claim exceed the seed-to-seed noise, i.e. that the reproduction's
conclusions are not artefacts of one lucky seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.data.synthetic import SyntheticSpec

from .experiments import run_comparison
from .trainer import TrainConfig

__all__ = ["StrategyStats", "RobustnessReport", "run_multi_seed"]


@dataclass(frozen=True)
class StrategyStats:
    """Best-accuracy distribution of one strategy across seeds."""

    strategy: str
    accuracies: tuple[float, ...]

    @property
    def mean(self) -> float:
        """Mean across seeds."""
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        """Standard deviation across seeds."""
        return float(np.std(self.accuracies))

    @property
    def min(self) -> float:
        """Minimum across seeds."""
        return float(np.min(self.accuracies))

    @property
    def max(self) -> float:
        """Maximum across seeds."""
        return float(np.max(self.accuracies))


@dataclass(frozen=True)
class RobustnessReport:
    """Per-strategy statistics over the same seeds."""

    workers: int
    seeds: tuple[int, ...]
    stats: dict[str, StrategyStats]

    def separation(self, a: str, b: str) -> float:
        """Mean gap between strategies ``a`` and ``b`` in units of their
        pooled seed noise (a z-score-like effect size; inf if noiseless)."""
        sa, sb = self.stats[a], self.stats[b]
        gap = abs(sa.mean - sb.mean)
        noise = float(np.sqrt((sa.std**2 + sb.std**2) / 2.0))
        if noise == 0.0:
            return float("inf") if gap > 0 else 0.0
        return gap / noise

    def is_robust(self, a: str, b: str, *, min_separation: float = 3.0) -> bool:
        """True when the a-vs-b ordering is consistent across every seed AND
        the effect size exceeds ``min_separation``."""
        sa, sb = self.stats[a], self.stats[b]
        consistent = all(
            (x > y) == (sa.mean > sb.mean)
            for x, y in zip(sa.accuracies, sb.accuracies)
        )
        return consistent and self.separation(a, b) >= min_separation


def run_multi_seed(
    *,
    spec: SyntheticSpec,
    config: TrainConfig,
    workers: int,
    strategies: list[str],
    seeds: tuple[int, ...] = (0, 1, 2),
    deadline_s: float = 1200.0,
) -> RobustnessReport:
    """Rerun the comparison once per seed; both the dataset draw and the
    training seed vary together (a full independent replication)."""
    if len(seeds) < 2:
        raise ValueError("need at least two seeds for a robustness report")
    accs: dict[str, list[float]] = {s: [] for s in strategies}
    for seed in seeds:
        spec_s = replace(spec, seed=spec.seed + 1000 * seed)
        config_s = replace(config, seed=config.seed + seed)
        result = run_comparison(
            spec=spec_s, config=config_s, workers=workers,
            strategies=strategies, deadline_s=deadline_s,
        )
        for s in strategies:
            accs[s].append(result.best(s))
    return RobustnessReport(
        workers=workers,
        seeds=tuple(seeds),
        stats={s: StrategyStats(s, tuple(v)) for s, v in accs.items()},
    )
