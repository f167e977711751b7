"""ASCII line charts for benchmark artifacts.

The paper's accuracy figures are epoch-vs-accuracy curves; the benchmarks
print them as tables *and* as terminal charts so the crossing behaviour
(e.g. partial catching up to global) is visible at a glance in
``benchmarks/results/``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["ascii_chart", "gantt"]


def ascii_chart(
    series: Mapping[str, Sequence[float]],
    *,
    height: int = 12,
    width: int | None = None,
    y_label: str = "",
) -> str:
    """Multi-series ASCII line chart (one character column per x step).

    Each series gets a distinct marker; a legend line maps markers to
    names.  Series must share the same length.
    """
    if not series:
        raise ValueError("no series to plot")
    lengths = {len(v) for v in series.values()}
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ: {sorted(lengths)}")
    (n,) = lengths
    if n == 0:
        raise ValueError("series are empty")
    if height < 2:
        raise ValueError(f"height must be >= 2, got {height}")

    markers = "ox*+#@%&"
    names = list(series)
    if len(names) > len(markers):
        raise ValueError(f"at most {len(markers)} series supported")

    all_vals = [v for vs in series.values() for v in vs]
    lo, hi = min(all_vals), max(all_vals)
    if hi == lo:
        hi = lo + 1.0
    cols = n if width is None else min(n, width)
    # Down-sample columns evenly when the series is wider than the chart.
    xs = [int(round(i * (n - 1) / max(cols - 1, 1))) for i in range(cols)]

    grid = [[" "] * cols for _ in range(height)]
    for si, name in enumerate(names):
        vals = series[name]
        for ci, x in enumerate(xs):
            frac = (vals[x] - lo) / (hi - lo)
            row = height - 1 - int(round(frac * (height - 1)))
            # Later series overwrite earlier at collisions; acceptable.
            grid[row][ci] = markers[si]

    lines = []
    for r, row in enumerate(grid):
        frac = 1.0 - r / (height - 1)
        label = f"{lo + frac * (hi - lo):6.2f} |"
        lines.append(label + "".join(row))
    lines.append(" " * 7 + "+" + "-" * cols)
    legend = "  ".join(f"{markers[i]}={names[i]}" for i in range(len(names)))
    lines.append(" " * 8 + legend + (f"   (y: {y_label})" if y_label else ""))
    return "\n".join(lines)


def gantt(
    rows: Mapping[str, Sequence[tuple[float, float]]],
    *,
    width: int = 72,
    t0: float | None = None,
    t1: float | None = None,
    fill: str = "#",
    time_unit: str = "s",
) -> str:
    """Horizontal Gantt chart: one labelled lane of (start, end) intervals.

    Used by ``repro trace`` to show the merged per-rank phase timeline (the
    Figure 4 overlap picture) in a terminal.  Intervals narrower than one
    column still paint a single cell so short events stay visible.
    """
    if not rows:
        raise ValueError("no rows to plot")
    if width < 8:
        raise ValueError(f"width must be >= 8, got {width}")
    spans = [iv for ivs in rows.values() for iv in ivs]
    if t0 is None:
        t0 = min((s for s, _ in spans), default=0.0)
    if t1 is None:
        t1 = max((e for _, e in spans), default=t0 + 1.0)
    if t1 <= t0:
        t1 = t0 + 1.0
    scale = width / (t1 - t0)

    label_w = max(len(name) for name in rows)
    lines = []
    for name, ivs in rows.items():
        lane = [" "] * width
        for start, end in ivs:
            lo = int((max(start, t0) - t0) * scale)
            hi = int((min(end, t1) - t0) * scale)
            lo = min(lo, width - 1)
            hi = max(hi, lo + 1)
            for c in range(lo, min(hi, width)):
                lane[c] = fill
        lines.append(f"{name:<{label_w}} |{''.join(lane)}|")
    axis = f"{'':<{label_w}} +{'-' * width}+"
    ticks = (
        f"{'':<{label_w}}  {0.0:<10.4g}{f'{(t1 - t0):.4g} {time_unit}':>{width - 10}}"
    )
    lines.append(axis)
    lines.append(ticks)
    return "\n".join(lines)
