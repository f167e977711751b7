"""How fast the host ran while a pass was measured.

The reference machine is a 2-vCPU VM on a shared host.  Each vCPU flips, every
second or so, between a fast state and one where everything on it runs ~1.37x
slower (a neighbour on the sibling hardware thread; the guest sees no steal
time), and how much of a minute is spent in the slow state drifts between 10 %
and 80 %.  A 25 s run sees one mix, so ten runs of one commit differed by
25-35 % in plain wall-clock throughput — more than any bound the benchmark may
set, and nothing a longer median can fix inside the time the PR driver allows.

The state is, however, easy to observe.  While a pass runs, a sampler thread in
the (otherwise idle) harness process times a fixed 2 ms kernel ten times a
second, in *thread CPU time*, so that waiting for a core behind the ranks does
not count but a slow core does.  The mean sample over an epoch says how fast
the host was during that epoch, and end-to-end timings are reported **at the
reference machine's fast-state speed**: wall-clock times nominal kernel cost
over measured kernel cost.  On a quiet reference machine the factor is 1 and the
numbers are plain seconds; on a slower or busier host they are what the quiet
reference machine would have shown.  Raw wall-clock figures are printed beside
them.  The sampler costs about 1 % of the machine, the same on every commit.
"""

from __future__ import annotations

import threading
from time import perf_counter, sleep, thread_time

import numpy as np

__all__ = ["NOMINAL_S", "Sampler", "speed_between"]

#: CPU seconds one kernel run costs on the reference machine in its fast state.
NOMINAL_S = 0.00205

#: The slow state costs ~1.4x nominal; a sample far beyond that met an
#: interrupt or a page fault, not a slow core, and is clipped.
_COST_CAP_S = 2.5 * NOMINAL_S

_A = np.random.default_rng(0).random((160, 160)).astype(np.float32)


def _kernel() -> float:
    """Interpreter work plus small BLAS calls — the mix a training step is;
    returns the CPU seconds it took on this thread."""
    for _ in range(4):  # untimed: pull the operands back into cache
        _A @ _A
    t0 = thread_time()
    for _ in range(20):
        _A @ _A
    x = 0
    for i in range(20000):
        x += i
    return thread_time() - t0


class Sampler:
    """Background thread timing the kernel every ``period_s`` seconds.

    ``samples`` holds ``(perf_counter() at the sample, kernel CPU seconds)``;
    ``perf_counter`` is the clock the ranks stamp their epochs with, in every
    process on the machine.
    """

    def __init__(self, period_s: float = 0.1) -> None:
        self.period_s = period_s
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            cost = _kernel()
            self.samples.append((perf_counter(), cost))
            sleep(self.period_s)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def speed_between(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Host speed over ``[start, end]`` relative to the reference machine's
    fast state: nominal kernel cost over the mean sampled cost (1.0 when no
    sample fell inside, so an unobserved interval is reported as measured)."""
    inside = [min(cost, _COST_CAP_S) for at, cost in samples if start <= at <= end]
    if not inside:
        return 1.0
    return NOMINAL_S * len(inside) / sum(inside)
