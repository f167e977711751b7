"""Table I registry: the paper's model/dataset pairs and their scaled
reproduction configurations.

Each :class:`ExperimentEntry` records the paper-scale facts (sample count,
on-disk size, model) alongside the laptop-scale synthetic configuration this
repository actually trains — so every benchmark can print "paper vs repro"
provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.units import GB, MB, TB

from .synthetic import SyntheticSpec

__all__ = ["ExperimentEntry", "TABLE1", "list_entries"]


@dataclass(frozen=True)
class ExperimentEntry:
    """One row of Table I plus its reproduction config."""

    key: str
    model: str
    dataset: str
    paper_samples: int
    paper_bytes: int
    notes: str = ""
    # Scaled-down synthetic stand-in actually trained here.
    repro_spec: SyntheticSpec = field(
        default_factory=lambda: SyntheticSpec(n_samples=2048, n_classes=8)
    )
    repro_model: str = "mlp"
    repro_epochs: int = 20

    @property
    def paper_sample_bytes(self) -> float:
        """Average bytes per sample at paper scale."""
        return self.paper_bytes / self.paper_samples


TABLE1: dict[str, ExperimentEntry] = {
    e.key: e
    for e in [
        ExperimentEntry(
            key="resnet50/imagenet1k",
            model="ResNet50",
            dataset="ImageNet-1K",
            paper_samples=1_200_000,
            paper_bytes=140 * GB,
            repro_spec=SyntheticSpec(
                n_samples=8192, n_classes=16, n_features=64, intra_modes=6,
                separation=2.4, noise=1.0, seed=1,
            ),
            repro_model="cnn",
            repro_epochs=25,
        ),
        ExperimentEntry(
            key="densenet161/imagenet1k",
            model="Densenet161",
            dataset="ImageNet-1K",
            paper_samples=1_200_000,
            paper_bytes=140 * GB,
            repro_spec=SyntheticSpec(
                n_samples=8192, n_classes=16, n_features=64, intra_modes=6,
                separation=2.4, noise=1.0, seed=2,
            ),
            repro_model="cnn_wide",
            repro_epochs=25,
        ),
        ExperimentEntry(
            key="resnet50/imagenet50",
            model="ResNet50",
            dataset="ImageNet-50 (subset)",
            paper_samples=65_000,
            paper_bytes=2 * GB,
            notes="Trained on a subset of the original dataset",
            repro_spec=SyntheticSpec(
                n_samples=2048, n_classes=16, n_features=64, intra_modes=6,
                separation=2.0, noise=1.1, seed=3,
            ),
            repro_model="cnn",
            repro_epochs=25,
        ),
        ExperimentEntry(
            key="wideresnet28/cifar100",
            model="WideResNet-28-10",
            dataset="CIFAR-100",
            paper_samples=50_000,
            paper_bytes=160 * MB,
            repro_spec=SyntheticSpec(
                n_samples=4096, n_classes=20, n_features=48, intra_modes=4,
                separation=2.2, noise=1.0, seed=4,
            ),
            repro_model="cnn_wide",
            repro_epochs=25,
        ),
        ExperimentEntry(
            key="inceptionv4/cifar100",
            model="Inceptionv4",
            dataset="CIFAR-100",
            paper_samples=50_000,
            paper_bytes=160 * MB,
            repro_spec=SyntheticSpec(
                n_samples=4096, n_classes=20, n_features=48, intra_modes=8,
                separation=1.8, noise=1.2, seed=5,
            ),
            repro_model="cnn_deep",
            repro_epochs=25,
        ),
        ExperimentEntry(
            key="resnet50/stanfordcars",
            model="ResNet50 (pre-trained)",
            dataset="Stanford Cars",
            paper_samples=8_144,
            paper_bytes=934 * MB,
            notes="Uses pre-trained model",
            repro_spec=SyntheticSpec(
                n_samples=1024, n_classes=8, n_features=48, intra_modes=4,
                separation=2.0, noise=1.0, seed=6,
            ),
            repro_model="mlp",
            repro_epochs=20,
        ),
        ExperimentEntry(
            key="resnet50/imagenet21k",
            model="ResNet50",
            dataset="ImageNet-21K (subset)",
            paper_samples=9_300_000,
            paper_bytes=int(1.1 * TB),
            notes="Classes with <500 samples removed (Ridnik et al.)",
            repro_spec=SyntheticSpec(
                n_samples=16384, n_classes=32, n_features=64, intra_modes=6,
                separation=2.2, noise=1.0, seed=7,
            ),
            repro_model="cnn",
            repro_epochs=20,
        ),
        ExperimentEntry(
            key="deepcam/deepcam",
            model="DeepCAM",
            dataset="DeepCAM",
            paper_samples=122_000,
            paper_bytes=int(8.2 * TB),
            notes="Climate segmentation; ~70 MB/sample",
            repro_spec=SyntheticSpec(
                n_samples=1536, n_classes=3, n_features=256, intra_modes=6,
                separation=2.2, mode_spread=1.2, noise=1.1, seed=8,
            ),
            repro_model="mlp_wide",
            repro_epochs=20,
        ),
    ]
}


def list_entries() -> list[ExperimentEntry]:
    """All Table I entries in definition order."""
    return list(TABLE1.values())
