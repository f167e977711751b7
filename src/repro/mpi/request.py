"""Non-blocking request handles (``isend``/``irecv`` results).

The paper's scheduler issues a burst of ``MPI_Isend``/``MPI_Irecv`` calls per
iteration and completes them in the *next* iteration (Figure 4); these
handles provide the ``test``/``wait``/``waitall`` surface it needs.
"""

from __future__ import annotations

from typing import Any, Iterable

from .errors import MPIError
from .message import ANY_SOURCE, ANY_TAG, Status, payload_nbytes, received

__all__ = ["Request", "SendRequest", "RecvRequest", "waitall"]


class Request:
    """Abstract non-blocking operation handle."""

    #: Whether the request was abandoned via :meth:`cancel`.
    cancelled: bool = False

    def wait(self) -> Any:
        """Block until complete; returns the received payload (None for sends)."""
        raise NotImplementedError

    @property
    def completed(self) -> bool:
        """Whether the operation has finished."""
        raise NotImplementedError

    def cancel(self) -> None:
        """Abandon the operation (MPI_Cancel): mark it complete without a
        payload.  Used by elastic recovery to retire receives whose sender
        died; a cancelled request no longer counts as pending."""
        raise NotImplementedError


class SendRequest(Request):
    """A buffered send: the payload was copied into the destination mailbox at
    ``isend`` time, so the request is complete on creation (matching MPI's
    buffered-mode semantics, which is how mpi4py's pickle path behaves for
    small messages)."""

    def __init__(self, dest: int, tag: int):
        self.dest = dest
        self.tag = tag

    def wait(self) -> Any:
        """Block until complete; returns the payload (None for sends)."""
        return None

    @property
    def completed(self) -> bool:
        """Whether the operation has finished."""
        return True

    def cancel(self) -> None:
        """No-op: a buffered send is already complete."""


class RecvRequest(Request):
    """A pending receive bound to a (source, tag) match on one rank."""

    def __init__(
        self,
        world,
        rank: int,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ):
        self._world = world
        self._rank = rank
        self.source = source
        self.tag = tag
        self.status = Status()
        self._done = False
        self._payload: Any = None

    def test(self) -> tuple[bool, Any]:
        """Non-blocking completion check: (done, payload_or_None)."""
        if self._done:
            return True, self._payload
        msg = self._world.mailboxes[self._rank].try_take(self.source, self.tag)
        if msg is None:
            return False, None
        self._complete(msg)
        return True, self._payload

    def wait(self) -> Any:
        """Block until complete; returns the payload (None for sends)."""
        if self._done:
            return self._payload
        fl = self._world.flight.for_rank(self._rank)
        if fl.detail:
            # The span is the receive's blocking time: message wait plus any
            # sender-side delay — the straggler component of the exchange.
            with fl.span("p2p.irecv.wait", peer=self.source, tag=self.tag) as sp:
                msg = self._world.take_blocking(self._rank, self.source, self.tag)
                sp.set(src=msg.source, nbytes=payload_nbytes(msg.payload))
        else:
            msg = self._world.take_blocking(self._rank, self.source, self.tag)
        self._complete(msg)
        return self._payload

    def _complete(self, msg) -> None:
        self._payload = received(msg.payload)
        self.status = Status(msg.source, msg.tag, 1, msg.posted_s)
        self._done = True

    def cancel(self) -> None:
        """Abandon the receive: it completes with a ``None`` payload and no
        longer counts as pending.  An already-matched message stays
        consumed; an unmatched one stays in the mailbox (harmless once the
        communicator context is retired)."""
        self._done = True
        self.cancelled = True

    @property
    def completed(self) -> bool:
        """Whether the operation has finished."""
        return self._done


def waitall(requests: Iterable[Request]) -> list[Any]:
    """Wait for every request; returns payloads in request order."""
    return [req.wait() for req in requests]
