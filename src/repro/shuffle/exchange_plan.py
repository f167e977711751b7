"""Algorithm 1: the seed-synchronised, balanced global exchange plan.

    Input: number of samples N, global fraction Q, local batch size b,
           number of workers M, rank r
    1: p <- random permutation of 1..N/M             (local, per-rank seed)
    2: for i from 1 -> Q*N/M do
    3:   dest <- random permutation of 1..M          (shared seed!)
    4:   isend sample p[i] to rank dest[r]
    5:   irecv data from ANY SOURCE
    6: end for
    7: wait for all outstanding requests

Because every rank draws the *same* destination permutation per round from
the shared seed, each round is a perfect matching: every rank sends exactly
one sample and receives exactly one — "this method could guarantee all the
workers send and receive the same number of samples, thus providing a
balanced communication" (§III-B).

:class:`ExchangePlan` materialises the full round-by-round matching so both
the executing scheduler and the tests/ablations can inspect it.  Since the
destination permutation is shared, the *source* of each incoming message is
also known (the inverse permutation), letting the implementation post
matched ``irecv(source=...)`` instead of ``ANY_SOURCE`` — same traffic,
deterministic matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.utils.rng import SeedTree

__all__ = ["ExchangePlan", "FrameSpec", "exchange_count", "plan_frames"]


def exchange_count(n_local: int, fraction: float) -> int:
    """Number of samples each worker exchanges per epoch: round(Q * N/M).

    ``fraction`` is the paper's Q in [0, 1]; Q=0 is pure local shuffling,
    Q=1 a full exchange of the local shard.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"exchange fraction Q must be in [0,1], got {fraction}")
    if n_local < 0:
        raise ValueError(f"n_local must be >= 0, got {n_local}")
    return int(round(fraction * n_local))


@dataclass(frozen=True)
class ExchangePlan:
    """The matching for one epoch: ``destinations[i, r]`` is where rank *r*
    sends its *i*-th selected sample; ``sources[i, r]`` is who sends rank
    *r* its *i*-th incoming sample."""

    epoch: int
    size: int
    rounds: int
    destinations: np.ndarray  # (rounds, size)
    sources: np.ndarray  # (rounds, size)

    @classmethod
    def for_epoch(
        cls,
        *,
        seed: int,
        epoch: int,
        size: int,
        rounds: int,
        allow_self: bool = True,
    ) -> "ExchangePlan":
        """Build the plan every rank derives identically from ``seed``.

        ``allow_self`` keeps the paper's plain permutation draw, under which
        a rank may draw itself (the sample then stays local — a wasted slot
        but still balanced).  ``allow_self=False`` re-draws fixed points into
        a derangement-ish matching, an ablation knob.
        """
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {rounds}")
        rng = SeedTree(seed).shared("exchange-dest", epoch)
        destinations = _draw_destinations(rng, rounds, size, allow_self)
        # sources[i, dest] = src  <=>  destinations[i, src] = dest
        sources = np.argsort(destinations, axis=1)
        return cls(
            epoch=epoch, size=size, rounds=rounds,
            destinations=destinations, sources=sources,
        )

    # ------------------------------------------------------------ rank views
    def sends_for(self, rank: int) -> np.ndarray:
        """destinations of rank's sends, one per round."""
        self._check_rank(rank)
        return self.destinations[:, rank].copy()

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0,{self.size})")

    # ------------------------------------------------------------ invariants
    def is_balanced(self) -> bool:
        """Every rank sends and receives exactly ``rounds`` samples."""
        return bool(
            (np.sort(self.destinations, axis=1) == np.arange(self.size)).all()
        )


class FrameSpec(NamedTuple):
    """One frame of an epoch: the samples of one window bound for (a send)
    or owed by (a receive) one peer."""

    window: int
    peer: int
    #: Indices into the rank's ``k`` selected samples, in plan-round order:
    #: what a send frame packs, and where an owed frame's samples go when
    #: the arrivals are merged back into plan-round order.
    positions: np.ndarray


def plan_frames(
    plan: ExchangePlan, k: int, granularity: int, window: int, rank: int
) -> list[tuple[list[FrameSpec], list[FrameSpec]]]:
    """Cut ``rank``'s share of ``plan`` into frames: per window, ``(send
    frames, owed frames)``, each by ascending peer.

    ``k`` samples move in ``plan.rounds`` rounds of ``granularity`` samples
    (the last round may be short) and a window is ``window`` consecutive
    rounds.  Both sides of a frame derive it from the shared plan, so a
    receiver knows what it is owed without any announcement, an empty
    ``(window, peer)`` pair has no frame, and self is a peer like any other.
    """
    dest_of = np.repeat(plan.destinations[:, rank], granularity)[:k]
    src_of = np.repeat(plan.sources[:, rank], granularity)[:k]
    # Peers by bincount, not np.unique: under numpy 2 that imports numpy.ma,
    # about 1 MB of resident memory in every rank process.
    frames = []
    for w, lo in enumerate(range(0, plan.rounds, window)):
        a = min(lo * granularity, k)
        b = min((lo + window) * granularity, k)
        frames.append(tuple(
            [
                FrameSpec(w, peer, a + np.flatnonzero(of[a:b] == peer))
                for peer in np.flatnonzero(np.bincount(of[a:b], minlength=plan.size)).tolist()
            ]
            for of in (dest_of, src_of)
        ))
    return frames


def _draw_destinations(
    rng: np.random.Generator, rounds: int, size: int, allow_self: bool
) -> np.ndarray:
    """``rounds`` destination permutations of ``range(size)`` off ``rng``.

    One ``Generator.permuted`` call over a ``(rounds, size)`` matrix
    consumes the stream exactly as ``rounds`` successive
    ``rng.permutation(size)`` calls do, so the plan (and the generator's
    end state) is the row loop's.  Only ``allow_self=False`` draws row by
    row: :func:`_deranged` takes from the same stream between rows.
    """
    if allow_self or size == 1:
        return rng.permuted(np.tile(np.arange(size), (rounds, 1)), axis=1)
    destinations = np.empty((rounds, size), dtype=np.int64)
    for i in range(rounds):
        destinations[i] = _deranged(rng.permutation(size), rng)
    return destinations


def _deranged(perm: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Remove fixed points from a permutation by swapping them pairwise."""
    perm = perm.copy()
    fixed = np.flatnonzero(perm == np.arange(len(perm)))
    if len(fixed) == 1:
        # Swap the lone fixed point with a random other position.
        other = int(rng.integers(0, len(perm) - 1))
        if other >= fixed[0]:
            other += 1
        perm[fixed[0]], perm[other] = perm[other], perm[fixed[0]]
    elif len(fixed) > 1:
        rotated = np.roll(fixed, 1)
        perm[fixed] = perm[rotated]
    return perm
