"""Central registry of every point-to-point message tag the repo uses.

Each subsystem that sends tagged p2p traffic — the reliable sample
exchange, its ACK/NACK control plane, telemetry push, and elastic shard
migration and the rejoin handshake — must allocate its tags from a named
:class:`TagRange` declared here.  The registry is the single source of
truth for three consumers:

* the subsystems themselves (they import their range and call
  :meth:`TagRange.tag` instead of spelling literals);
* the SPMD006 lint rule, which flags p2p calls whose tag folds to an
  integer outside every registered range, or sends on a range owned by a
  different subsystem;
* the uniqueness test (``tests/mpi/test_tags.py``), which asserts the
  expanded intervals — including epoch-parity images — are pairwise
  disjoint and fit under the communicator's wire-tag modulus.

Parity: the exchange tags an odd epoch's traffic with :data:`PARITY_BIT`
so a late message from epoch ``e`` can never be matched by epoch ``e+1``
(ranks are at most one epoch apart).  Ranges with ``parity=True`` occupy
both the base interval and its parity image.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PARITY_BIT",
    "TagRange",
    "RECOVERY",
    "JOIN",
    "EXCHANGE_DATA",
    "EXCHANGE_CTRL",
    "TELEMETRY",
    "REGISTRY",
    "lookup",
]

# Epoch-parity bit OR'd into exchange tags on odd epochs.  Sits above every
# base interval so the parity image of a range never folds back onto it.
PARITY_BIT = 1 << 20


@dataclass(frozen=True)
class TagRange:
    """A named, owned interval ``[base, base + width)`` of the tag space.

    ``owner`` is the dotted module prefix allowed to *send* on the range
    (receiving is unrestricted — a receiver naturally names its peer's
    range).  ``parity=True`` ranges also occupy ``[base | PARITY_BIT,
    base + width | PARITY_BIT)``.  ``wrap=True`` ranges fold offsets
    modulo ``width`` (safe when per-channel FIFO matching disambiguates,
    as with shard migration's sequential transfers); otherwise an offset
    past the width raises.
    """

    name: str
    base: int
    width: int
    owner: str
    parity: bool = False
    wrap: bool = False

    def tag(self, offset: int = 0, parity: int = 0) -> int:
        """The wire tag at ``offset`` into this range.

        ``parity`` is either ``0`` or :data:`PARITY_BIT` (the caller ORs
        in its epoch's parity); passing it for a non-parity range raises.
        """
        if offset < 0:
            raise ValueError(f"negative tag offset {offset} in range {self.name!r}")
        if offset >= self.width:
            if not self.wrap:
                raise ValueError(
                    f"tag offset {offset} exceeds width {self.width} of range "
                    f"{self.name!r}"
                )
            offset %= self.width
        if parity not in (0, PARITY_BIT):
            raise ValueError(f"parity must be 0 or PARITY_BIT, got {parity}")
        if parity and not self.parity:
            raise ValueError(f"range {self.name!r} does not carry a parity bit")
        return self.base + offset + parity

    def intervals(self) -> tuple[tuple[int, int], ...]:
        """Half-open ``(lo, hi)`` intervals this range occupies on the wire."""
        spans = [(self.base, self.base + self.width)]
        if self.parity:
            spans.append((self.base + PARITY_BIT, self.base + self.width + PARITY_BIT))
        return tuple(spans)

    def contains(self, tag: int) -> bool:
        """Whether wire tag ``tag`` falls inside this range (either parity)."""
        return any(lo <= tag < hi for lo, hi in self.intervals())


# --------------------------------------------------------------------------
# Allocations.  Values are load-bearing: EXCHANGE_DATA/EXCHANGE_CTRL/
# TELEMETRY/RECOVERY keep their historical bases (wire compatibility with
# committed flight-recorder artifacts and tests).
# --------------------------------------------------------------------------

#: Elastic shard-migration transfers after a shrink or an expand (one tag
#: per transfer, FIFO-safe wrap).
RECOVERY = TagRange("recovery", base=1 << 12, width=1 << 12, owner="repro.elastic", wrap=True)

#: Elastic rank-rejoin (JOIN) handshake.  Offset 0 carries the admission
#: state snapshot from the lowest survivor to each joiner, offset 1 the
#: joiner's ACK back.
JOIN = TagRange("join", base=(1 << 15) + 4096, width=4096, owner="repro.elastic", wrap=True)

#: Reliable-exchange data rounds: one tag per round index, parity per epoch.
EXCHANGE_DATA = TagRange(
    "exchange_data", base=1 << 16, width=1 << 16, owner="repro.shuffle", parity=True
)

#: Reliable-exchange ACK/NACK control plane: one tag per epoch parity.
EXCHANGE_CTRL = TagRange(
    "exchange_ctrl", base=1 << 18, width=1, owner="repro.shuffle", parity=True
)

#: Telemetry metric push to rank 0 (single tag, drained by iprobe loop).
TELEMETRY = TagRange("telemetry", base=(1 << 19) + 5, width=1, owner="repro.obs")

REGISTRY: tuple[TagRange, ...] = (
    RECOVERY,
    JOIN,
    EXCHANGE_DATA,
    EXCHANGE_CTRL,
    TELEMETRY,
)


def lookup(tag: int) -> TagRange | None:
    """The range containing wire tag ``tag``, or ``None`` if unregistered."""
    for r in REGISTRY:
        if r.contains(tag):
            return r
    return None

