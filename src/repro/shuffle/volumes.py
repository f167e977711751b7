"""Analytic storage / communication volumes of each shuffling scheme.

Implements the §III-A/§III-B bookkeeping the paper states in closed form:

* per-worker local storage: GS needs N samples reachable, LS needs N/M,
  PLS peaks at ``(1+Q) * N/M`` — "at most 2-fold as it is with LS, yet at
  least still M/2 times smaller than that in GS";
* per-epoch traffic: each PLS worker sends (and receives) ``Q * N/M``
  samples and reads ``(1-Q) * N/M`` locally, versus GS reading ``N/M`` from
  the PFS.  The worked example (Q=0.1, M=512, ImageNet-21K 1.1 TiB): send
  225 MiB, read 2 GiB locally, vs 2.2 GiB from the PFS under GS.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ShuffleVolumes", "compute_volumes"]


@dataclass(frozen=True)
class ShuffleVolumes:
    """Per-worker, per-epoch volumes (bytes unless stated otherwise)."""

    scheme: str
    workers: int
    q: float
    dataset_bytes: int
    dataset_samples: int

    storage_bytes: int  # peak local storage requirement
    network_send_bytes: int  # sample-exchange traffic sent (== received)
    local_read_bytes: int  # read from worker-local storage
    pfs_read_bytes: int  # read from the shared parallel filesystem

    @property
    def storage_fraction(self) -> float:
        """Peak local storage as a fraction of the whole dataset — the
        paper's headline "0.03% of the dataset" number for Fugaku."""
        return self.storage_bytes / self.dataset_bytes


def compute_volumes(
    scheme: str,
    *,
    workers: int,
    dataset_bytes: int,
    dataset_samples: int,
    q: float | None = None,
) -> ShuffleVolumes:
    """Closed-form volumes for ``scheme`` in {"global", "local", "partial"}.

    ``q`` is required for (and only for) "partial".
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if dataset_bytes <= 0 or dataset_samples <= 0:
        raise ValueError("dataset_bytes and dataset_samples must be positive")
    shard = dataset_bytes // workers

    if scheme == "global":
        if q is not None:
            raise ValueError("q is meaningless for global shuffling")
        return ShuffleVolumes(
            scheme="global",
            workers=workers,
            q=1.0,
            dataset_bytes=dataset_bytes,
            dataset_samples=dataset_samples,
            storage_bytes=dataset_bytes,  # whole dataset must be reachable
            network_send_bytes=0,
            local_read_bytes=0,
            pfs_read_bytes=shard,  # reads its N/M share from the PFS
        )
    if scheme == "local":
        if q is not None:
            raise ValueError("q is meaningless for local shuffling")
        return ShuffleVolumes(
            scheme="local",
            workers=workers,
            q=0.0,
            dataset_bytes=dataset_bytes,
            dataset_samples=dataset_samples,
            storage_bytes=shard,
            network_send_bytes=0,
            local_read_bytes=shard,
            pfs_read_bytes=0,
        )
    if scheme == "partial":
        if q is None or not 0.0 <= q <= 1.0:
            raise ValueError(f"partial shuffling needs q in [0,1], got {q}")
        return ShuffleVolumes(
            scheme=f"partial-{q:g}",
            workers=workers,
            q=q,
            dataset_bytes=dataset_bytes,
            dataset_samples=dataset_samples,
            storage_bytes=int((1.0 + q) * shard),
            network_send_bytes=int(q * shard),
            local_read_bytes=int((1.0 - q) * shard),
            pfs_read_bytes=0,
        )
    raise ValueError(f"unknown scheme {scheme!r}; expected global/local/partial")
