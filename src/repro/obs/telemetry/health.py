"""Anomaly and straggler detection over aggregated telemetry.

The detectors read a :meth:`~repro.obs.telemetry.aggregate.TelemetryAggregator.snapshot`
— nothing else — so they run equally on a live aggregator, a JSON file
written by a finished run, or a synthetic snapshot in a test.  Each one
emits named :class:`HealthFinding` rows instead of prose, so the CLI, CI
checks and tests all consume the same objects.

Detectors:

* :func:`detect_stragglers` — two complementary signals over per-rank
  phase time.  (1) *Busy ratio*: a rank whose busy time (I/O + EXCHANGE +
  FW+BW; GE+WU is excluded because the allreduce makes fast ranks absorb a
  straggler's delay as wait) exceeds the cross-rank median by a factor.
  (2) *Wait share*: the inverse signature — because a synchronous exchange
  makes peers wait *inside their own exchange phase* for a slow sender,
  the straggler's busy excess can stay modest while its allreduce wait
  collapses toward zero (it arrives last; everyone else was waiting for
  it).  A rank that is busier than the median *and* waits a factor less
  than the median waiter is flagged even when the pure ratio test is not
  crossed.  Both are ratio-to-median tests — robust at the 2–8 rank scales
  this world runs at, where a z-score against N-1 peers is noise — and the
  z-score is reported as corroborating detail.
* :func:`detect_deficit_growth` — a degraded-Q deficit that keeps growing
  epoch over epoch: the exchange is persistently failing to deliver
  planned shares, not just hiccuping once.
* :func:`detect_pool_leak` — buffer-pool occupancy drifting upward across
  epochs: acquired buffers are not being released.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.utils.ascii_plot import sparkline
from repro.utils.tables import render_table

from .flight import rank_streams

__all__ = [
    "HealthFinding",
    "detect_stragglers",
    "detect_deficit_growth",
    "detect_pool_leak",
    "run_health_checks",
    "render_findings",
    "render_rank_summary",
    "render_flight_timeline",
]

#: Phases counted as a rank's own work (see module docstring).
BUSY_PHASES = ("phase.io_s", "phase.exchange_s", "phase.fw_bw_s")

#: The phase that is mostly allreduce wait (the straggler-wait signal).
WAIT_PHASE = "phase.ge_wu_s"

#: A rank is a straggler when its mean busy time exceeds the cross-rank
#: median by this factor ...
STRAGGLER_FACTOR = 1.75

#: ... and by at least this many absolute seconds (guards the
#: milliseconds-total smoke runs where ratios are pure noise).
STRAGGLER_MIN_EXCESS_S = 1e-3

#: Consecutive non-decreasing, net-positive steps before a growing
#: degraded-Q deficit is flagged.
DEFICIT_GROWTH_EPOCHS = 2

#: Pool-leak flag: occupancy at the last push exceeds the first by this
#: many buffers while never decreasing.
POOL_LEAK_MIN_GROWTH = 1


@dataclass(frozen=True, slots=True)
class HealthFinding:
    """One named anomaly surfaced by a detector."""

    kind: str          # "straggler" | "deficit-growth" | "pool-leak"
    severity: str      # "warn" | "critical"
    rank: int          # offending world rank (-1 when not rank-specific)
    metric: str        # the series the finding is about
    value: float       # observed value
    threshold: float   # the limit it crossed
    detail: str = ""   # human-readable corroboration
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-dict view (JSON-ready)."""
        return {
            "kind": self.kind,
            "severity": self.severity,
            "rank": self.rank,
            "metric": self.metric,
            "value": self.value,
            "threshold": self.threshold,
            "detail": self.detail,
            "extra": dict(self.extra),
        }


def _series(snapshot: dict, metric: str) -> dict[int, list[float]]:
    """Per-rank value sequences (seq order) of one metric; {} if absent."""
    by_rank = snapshot.get("series", {}).get(metric, {})
    return {
        int(rank): [float(v) for _s, v in points]
        for rank, points in by_rank.items()
        if points
    }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.nan


def _median(values: list[float]) -> float:
    if not values:
        return math.nan
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def busy_time_by_rank(snapshot: dict) -> dict[int, float]:
    """Mean per-epoch busy seconds (I/O + EXCHANGE + FW+BW) per rank."""
    per_rank: dict[int, list[float]] = {}
    for metric in BUSY_PHASES:
        for rank, values in _series(snapshot, metric).items():
            bucket = per_rank.setdefault(rank, [0.0] * len(values))
            # Phase series are pushed together, so lengths match per rank;
            # zip defensively anyway in case one push was dropped.
            for i, v in enumerate(values[: len(bucket)]):
                bucket[i] += v
    return {rank: _mean(values) for rank, values in per_rank.items()}


def detect_stragglers(
    snapshot: dict,
    *,
    factor: float = STRAGGLER_FACTOR,
    min_excess_s: float = STRAGGLER_MIN_EXCESS_S,
) -> list[HealthFinding]:
    """Flag straggler ranks: busy-time outliers or wait-share outliers."""
    busy = busy_time_by_rank(snapshot)
    if len(busy) < 2:
        return []
    wait = {
        rank: _mean(values)
        for rank, values in _series(snapshot, WAIT_PHASE).items()
    }
    values = list(busy.values())
    median = _median(values)
    median_wait = _median(list(wait.values())) if wait else 0.0
    mean = _mean(values)
    var = _mean([(v - mean) ** 2 for v in values])
    std = math.sqrt(var)
    findings = []
    for rank in sorted(busy):
        b = busy[rank]
        w = wait.get(rank, math.nan)
        threshold = max(median * factor, median + min_excess_s)
        ratio_hit = median > 0 and b > threshold
        # Wait-share signature: busier than the median AND waiting a factor
        # less than the median waiter — peers stalled on this rank, so its
        # own allreduce wait collapsed (see module docstring).
        wait_hit = (
            not math.isnan(w)
            and b > median + min_excess_s
            and median_wait - w > min_excess_s
            and w * factor < median_wait
        )
        if not (ratio_hit or wait_hit):
            continue
        z = (b - mean) / std if std > 0 else math.inf
        ratio = b / median if median > 0 else math.inf
        signal = "busy ratio" if ratio_hit else "wait share"
        wait_note = (
            f", waits {w:.4f}s vs median {median_wait:.4f}s"
            if not math.isnan(w) else ""
        )
        findings.append(
            HealthFinding(
                kind="straggler",
                severity="critical" if ratio >= 2 * factor else "warn",
                rank=rank,
                metric="phase.busy_s",
                value=b,
                threshold=threshold,
                detail=(
                    f"rank {rank} busy {b:.4f}s vs median {median:.4f}s "
                    f"({ratio:.2f}x, z={z:.1f}{wait_note}; {signal})"
                ),
                extra={
                    "median": median, "ratio": ratio, "z": z,
                    "wait": w, "median_wait": median_wait, "signal": signal,
                },
            )
        )
    return findings


def detect_deficit_growth(
    snapshot: dict, *, epochs: int = DEFICIT_GROWTH_EPOCHS
) -> list[HealthFinding]:
    """Flag ranks whose degraded-Q deficit grows over consecutive pushes."""
    findings = []
    for rank, values in sorted(_series(snapshot, "exchange.q_deficit").items()):
        if len(values) < epochs + 1:
            continue
        tail = values[-(epochs + 1):]
        steps = [b - a for a, b in zip(tail, tail[1:])]
        if all(s >= 0 for s in steps) and tail[-1] > tail[0]:
            findings.append(
                HealthFinding(
                    kind="deficit-growth",
                    severity="warn",
                    rank=rank,
                    metric="exchange.q_deficit",
                    value=tail[-1],
                    threshold=tail[0],
                    detail=(
                        f"rank {rank} q-deficit grew {tail[0]:.3g} -> "
                        f"{tail[-1]:.3g} over {epochs} epochs without recovering"
                    ),
                    extra={"tail": tail},
                )
            )
    return findings


def detect_pool_leak(
    snapshot: dict, *, min_growth: int = POOL_LEAK_MIN_GROWTH
) -> list[HealthFinding]:
    """Flag ranks whose buffer-pool occupancy only ever drifts upward."""
    findings = []
    for rank, values in sorted(_series(snapshot, "pool.in_use").items()):
        if len(values) < 3:
            continue
        steps = [b - a for a, b in zip(values, values[1:])]
        growth = values[-1] - values[0]
        if all(s >= 0 for s in steps) and growth >= min_growth:
            findings.append(
                HealthFinding(
                    kind="pool-leak",
                    severity="warn",
                    rank=rank,
                    metric="pool.in_use",
                    value=values[-1],
                    threshold=values[0] + min_growth,
                    detail=(
                        f"rank {rank} pool occupancy drifted {values[0]:.0f} -> "
                        f"{values[-1]:.0f} buffers without ever releasing"
                    ),
                    extra={"first": values[0], "last": values[-1]},
                )
            )
    return findings


def run_health_checks(snapshot: dict) -> list[HealthFinding]:
    """Run every detector; findings ordered critical-first, then by rank."""
    findings = (
        detect_stragglers(snapshot)
        + detect_deficit_growth(snapshot)
        + detect_pool_leak(snapshot)
    )
    sev_rank = {"critical": 0, "warn": 1}
    return sorted(findings, key=lambda f: (sev_rank.get(f.severity, 2), f.rank, f.kind))


# ------------------------------------------------------------------ rendering
def render_findings(findings: list[HealthFinding]) -> str:
    """ASCII table of findings (or an all-clear line)."""
    if not findings:
        return "health: OK — no findings"
    rows = [
        [f.severity.upper(), f.kind, f.rank, f.metric, f.value, f.detail]
        for f in findings
    ]
    return render_table(
        ["sev", "kind", "rank", "metric", "value", "detail"],
        rows,
        floatfmt=".4g",
        title=f"health: {len(findings)} finding(s)",
    )


#: Event kinds worth showing in a lifecycle timeline (everything else in
#: the rings is per-epoch phase noise).
LIFECYCLE_EVENT_PREFIXES = ("lifecycle.", "elastic.", "rank.")


def render_flight_timeline(
    dump: dict, *, prefixes: tuple[str, ...] = LIFECYCLE_EVENT_PREFIXES
) -> str:
    """Ordered lifecycle/elastic transition table from a flight dump.

    ``dump`` is a flight-recorder artifact (``repro.obs.flight/v1``: the
    ``ranks`` key maps world rank to its event ring).  This is how
    ``repro health`` surfaces a self-healing run's transitions — kill,
    shrink, degraded continue, checkpoint, crash, restart, rejoin,
    rebalance — from the post-mortem file alone.
    """
    rows = sorted(
        (
            ev for stream in rank_streams(dump) for ev in stream
            if ev.kind.startswith(prefixes)
        ),
        key=lambda ev: ev.ts,
    )
    if not rows:
        return "flight: no lifecycle events recorded"
    t0 = rows[0].ts
    table = [
        [
            f"+{ev.ts - t0:.3f}s",
            ev.rank,
            ev.kind,
            ", ".join(f"{k}={v}" for k, v in ev.fields.items()),
        ]
        for ev in rows
    ]
    return render_table(
        ["t", "rank", "transition", "detail"],
        table,
        title=f"lifecycle timeline: {len(rows)} event(s) "
        f"({dump.get('reason', 'flight dump')})",
    )


def render_rank_summary(snapshot: dict) -> str:
    """Per-rank phase/loss table with busy-time sparklines (`repro top`)."""
    ranks = snapshot.get("ranks", [])
    if not ranks:
        return "telemetry: no pushes recorded"
    busy = busy_time_by_rank(snapshot)
    loss = _series(snapshot, "train.loss")
    exchange = _series(snapshot, "phase.exchange_s")
    wait = _series(snapshot, "phase.ge_wu_s")
    rows = []
    for rank in ranks:
        per_epoch = [
            sum(vals)
            for vals in zip(
                *(
                    _series(snapshot, m).get(rank, [])
                    for m in BUSY_PHASES
                )
            )
        ]
        rows.append(
            [
                rank,
                busy.get(rank, math.nan),
                _mean(exchange.get(rank, [])),
                _mean(wait.get(rank, [])),
                loss[rank][-1] if loss.get(rank) else math.nan,
                sparkline(per_epoch) if per_epoch else "-",
            ]
        )
    return render_table(
        ["rank", "busy_s", "exch_s", "wait_s", "loss", "busy/epoch"],
        rows,
        floatfmt=".4f",
        title=f"telemetry: {len(ranks)} rank(s), {snapshot.get('pushes', 0)} push(es)",
    )
