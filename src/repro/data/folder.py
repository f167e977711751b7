"""On-disk folder dataset: one file per sample, class sub-directories.

The paper's solution "supports datasets that manage each data sample in a
single distinct physical file" (§III-E) and wraps PyTorch's ``ImageFolder``.
:class:`FolderDataset` is the equivalent substrate here: a directory tree

.. code-block:: text

    root/
      class_000/sample_000000.npy
      class_000/sample_000001.npy
      class_001/...

where each ``.npy`` holds one sample array.

Reads retry transient I/O failures (``OSError``/``ValueError``) with capped
exponential backoff — parallel file systems drop the occasional read — and
:func:`materialize_folder_dataset` writes through
:func:`~repro.utils.fileio.atomic_save` so a crash mid-write can never
leave a torn ``.npy``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.utils.fileio import atomic_save
from repro.utils.retry import Retrier, default_retrier

from .dataset import Dataset

__all__ = ["FolderDataset", "materialize_folder_dataset"]


class FolderDataset(Dataset):
    """Map-style dataset over per-sample ``.npy`` files in class sub-dirs.

    Parameters
    ----------
    root:
        Dataset root directory (one sub-directory per class).
    retrier:
        :class:`~repro.utils.retry.Retrier` governing read retries; the
        process-wide default when omitted, so retry counts aggregate.
    fault_hook:
        Optional ``hook(op, path, attempt)`` run before every physical read
        attempt; the chaos-injection seam
        (:meth:`repro.faults.ChaosEngine.storage_hook`) — it raises the
        injected fault, which the retrier then recovers from.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        retrier: Retrier | None = None,
        fault_hook=None,
    ):
        self.root = Path(root)
        self.retrier = retrier if retrier is not None else default_retrier()
        self.fault_hook = fault_hook
        if not self.root.is_dir():
            raise FileNotFoundError(f"dataset root {self.root} is not a directory")
        self.classes = sorted(p.name for p in self.root.iterdir() if p.is_dir())
        if not self.classes:
            raise ValueError(f"no class sub-directories under {self.root}")
        self.class_to_idx = {name: i for i, name in enumerate(self.classes)}
        self._entries: list[tuple[Path, int]] = []
        for cls in self.classes:
            for f in sorted((self.root / cls).glob("*.npy")):
                self._entries.append((f, self.class_to_idx[cls]))
        if not self._entries:
            raise ValueError(f"no .npy samples under {self.root}")

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        path, label = self._entries[index]

        def load(attempt: int) -> np.ndarray:
            if self.fault_hook is not None:
                self.fault_hook("read", str(path), attempt)
            return np.load(path)

        return self.retrier.call(load, key=str(path)), label

    def __len__(self) -> int:
        return len(self._entries)

    def sample_label(self, index: int) -> int:
        """Class label of the sample at this index."""
        return self._entries[index][1]


def materialize_folder_dataset(
    root: str | os.PathLike,
    features: np.ndarray,
    labels: Iterable[int],
    *,
    num_classes: int | None = None,
    prefix: str = "sample",
    retrier: Retrier | None = None,
    fault_hook=None,
) -> FolderDataset:
    """Write ``(features, labels)`` to disk in FolderDataset layout.

    Creates every class directory (even empty ones) so all ranks agree on
    the ``class_to_idx`` mapping — the role the paper's ``class_file`` plays
    in ``PLS.ImageFolder(train_dir, class_file, ...)``.  ``retrier`` and
    ``fault_hook`` are forwarded to the returned :class:`FolderDataset`.
    """
    root = Path(root)
    labels = np.asarray(list(labels))
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if len(labels) else 0
    width = max(3, len(str(num_classes - 1)))
    for c in range(num_classes):
        (root / f"class_{c:0{width}d}").mkdir(parents=True, exist_ok=True)
    for i, (x, y) in enumerate(zip(features, labels)):
        atomic_save(root / f"class_{int(y):0{width}d}" / f"{prefix}_{i:06d}.npy", x)
    return FolderDataset(root, retrier=retrier, fault_hook=fault_hook)
