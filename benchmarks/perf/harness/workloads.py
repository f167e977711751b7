"""The four benchmark workloads, their inputs, and the shape of a pass.

Everything here is harness-owned input generation: the program under test
(``repro``) only ever receives the generated dataset and a ``TrainConfig``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

__all__ = [
    "N_SAMPLES",
    "N_VAL",
    "N_CLASSES",
    "BATCH_SIZE",
    "RANKS",
    "Workload",
    "WORKLOADS",
    "PassSpec",
    "make_inputs",
    "pass_specs",
]

# Fixed by the issue: never trimmed to save time (epochs are).
N_SAMPLES = 2048
N_VAL = 256
N_CLASSES = 8
BATCH_SIZE = 32
RANKS = 2


@dataclass(frozen=True)
class Workload:
    """One named set of inputs plus the size of one pass over it.

    ``steady_epochs`` is how many epochs a pass runs after its warm-up epoch
    0.  The values keep one pass near 10 s on the 2-core reference machine;
    ``exchange_procs`` is additionally capped by file descriptors: the
    ``procs`` backend creates a fresh shared-memory segment per exchange
    round and never recycles it, which costs two descriptors per segment in
    every process that maps it (4,096 per epoch at Q=1).
    """

    name: str
    backend: str
    strategy: str
    sample_shape: tuple[int, ...]
    model: str
    steady_epochs: int
    why: str

    @property
    def q(self) -> float:
        """The exchange fraction in the strategy name."""
        return float(self.strategy.split("-", 1)[1])


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "compute_threads", "threads", "partial-0.3", (3, 16, 16), "resnet_tiny", 3,
            "paper's operating point (small Q, compute-bound): nn, loader and "
            "gradient allreduce dominate, the exchange should be almost free",
        ),
        Workload(
            "exchange_threads", "threads", "partial-1", (3072,), "mlp", 3,
            "opposite balance (Q=1, 12 KB samples, tiny model): scheduler, codec, "
            "pool, p2p mailbox, CRC/ACK and storage writes dominate",
        ),
        Workload(
            "compute_procs", "procs", "partial-0.3", (3, 16, 16), "resnet_tiny", 2,
            "same inputs as compute_threads on forked ranks: isolates fork, pipe "
            "RPC and pickled-gradient allreduce; must stay bit-identical to it",
        ),
        Workload(
            "exchange_procs", "procs", "partial-1", (3072,), "mlp", 2,
            "same inputs as exchange_threads over /dev/shm segments and per-call "
            "RPC: a p2p change that helps one transport and costs the other shows",
        ),
    )
}

#: File descriptors one ``exchange_procs`` epoch consumes per process (two per
#: segment, 2 x 1024 segments mapped), used to refuse a run that cannot finish.
FDS_PER_EXCHANGE_PROCS_EPOCH = 4096


@dataclass(frozen=True)
class PassSpec:
    """One child-interpreter run of ``run_spmd(train_worker, ...)``.

    ``kind`` says what the pass is for: ``untraced`` feeds the end-to-end
    metrics, ``traced`` the per-layer ones, ``twin`` re-runs a ``procs``
    workload on ``threads`` for the bit-identity check, ``local`` and
    ``single`` are the reference passes (local strategy; local strategy on
    one rank).
    """

    workload: str
    kind: str
    seed: int
    backend: str
    strategy: str
    ranks: int
    epochs: int
    traced: bool

    def to_json(self) -> dict[str, Any]:
        """Plain dict for the spec file handed to the child."""
        return asdict(self)


def pass_specs(workload: Workload, seed: int) -> dict[str, PassSpec]:
    """Every kind of pass this workload can be asked to run, by kind."""
    epochs = 1 + workload.steady_epochs
    base = dict(workload=workload.name, seed=seed, epochs=epochs)
    specs = {
        "untraced": PassSpec(
            kind="untraced", backend=workload.backend, strategy=workload.strategy,
            ranks=RANKS, traced=False, **base,
        ),
        "traced": PassSpec(
            kind="traced", backend=workload.backend, strategy=workload.strategy,
            ranks=RANKS, traced=True, **base,
        ),
        "local": PassSpec(
            kind="local", backend=workload.backend, strategy="local",
            ranks=RANKS, traced=False, **base,
        ),
        "single": PassSpec(
            kind="single", backend=workload.backend, strategy="local",
            ranks=1, traced=False, **base,
        ),
    }
    if workload.backend != "threads":
        specs["twin"] = PassSpec(
            kind="twin", backend="threads", strategy=workload.strategy,
            ranks=RANKS, traced=False, **base,
        )
    return specs


def make_inputs(seed: int, sample_shape: tuple[int, ...]):
    """Training set, labels and validation set for one seed.

    Class-conditional Gaussians, so the loss actually falls.  Sample ``k``
    carries ``k / N`` in its first element (exact in float32 for N = 2048):
    reading that element back from every batch is how the harness audits
    that each sample was visited exactly once per epoch.
    """
    rng = np.random.default_rng([seed, 0xBE7C4])
    total = N_SAMPLES + N_VAL
    centers = rng.normal(size=(N_CLASSES, *sample_shape)).astype(np.float32)
    labels = rng.integers(0, N_CLASSES, size=total)
    noise = rng.normal(size=(total, *sample_shape)).astype(np.float32)
    features = centers[labels] + 2.0 * noise
    train_x = np.ascontiguousarray(features[:N_SAMPLES])
    train_x.reshape(N_SAMPLES, -1)[:, 0] = np.arange(N_SAMPLES, dtype=np.float32) / N_SAMPLES
    return train_x, labels[:N_SAMPLES], features[N_SAMPLES:], labels[N_SAMPLES:]
