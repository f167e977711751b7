"""Background-prefetching batch loader.

Real input pipelines (PyTorch ``DataLoader(num_workers=...)``) overlap
sample I/O with compute by loading ahead in background workers — the
mechanism that lets the paper's measured I/O phase stay small until the
PFS congests.  :class:`PrefetchLoader` wraps any iterable of batches with
a producer thread and a bounded queue, preserving batch order exactly.

Exceptions raised by the underlying loader are re-raised at the consumer's
next ``__next__`` (not swallowed in the producer thread).
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Iterable, Iterator

__all__ = ["PrefetchLoader"]

_SENTINEL = object()


class PrefetchLoader:
    """Iterate ``loader`` with ``depth`` batches loaded ahead.

    Each ``iter()`` spawns a fresh producer thread, so the object can be
    iterated once per epoch like a plain DataLoader.  ``depth`` bounds the
    memory held in flight.
    """

    def __init__(self, loader: Iterable[Any], *, depth: int = 2):
        if depth < 1:
            raise ValueError(f"prefetch depth must be >= 1, got {depth}")
        self.loader = loader
        self.depth = depth

    def __len__(self) -> int:
        return len(self.loader)  # type: ignore[arg-type]

    def __iter__(self) -> Iterator[Any]:
        q: queue.Queue = queue.Queue(maxsize=self.depth)
        error: list[BaseException] = []

        def producer() -> None:
            try:
                for batch in self.loader:
                    q.put(batch)
            except BaseException as exc:  # noqa: BLE001 - forwarded to consumer
                error.append(exc)
            finally:
                q.put(_SENTINEL)

        thread = threading.Thread(target=producer, daemon=True, name="prefetch")
        thread.start()

        while True:
            item = q.get()
            if item is _SENTINEL:
                thread.join()
                if error:
                    raise error[0]
                return
            yield item
