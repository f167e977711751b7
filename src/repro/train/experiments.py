"""Canned experiment harness: one call per paper figure.

Each accuracy figure in the paper compares shuffling strategies on one
model/dataset at one or more worker counts.  :func:`run_comparison` is that
primitive: it generates the (scaled) dataset, launches the SPMD training
once per strategy, and returns the per-strategy accuracy histories that
the benchmark files print as figure rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.data.dataset import TensorDataset
from repro.data.synthetic import SyntheticSpec, make_classification, train_val_split
from repro.mpi.launcher import run_spmd
from repro.nn.models import build_model
from repro.obs.telemetry import FlightLog
from repro.shuffle.partial import strategy_from_name

from .history import RunHistory
from .trainer import TrainConfig, train_worker

__all__ = [
    "ExperimentResult",
    "run_comparison",
    "make_experiment_data",
    "run_pretrain_finetune",
    "transfer_backbone",
]


@dataclass(frozen=True)
class ExperimentResult:
    """All strategy curves for one (dataset, model, workers) configuration."""

    workers: int
    histories: dict[str, RunHistory]
    #: Each strategy's run as its world recorded it
    #: ({strategy: :class:`~repro.obs.FlightLog`}): the last K events per
    #: rank, all of them when the comparison ran with ``tracing=True``.
    flight: dict[str, FlightLog] = field(default_factory=dict)

    def final(self, strategy: str) -> float:
        """Final-epoch accuracy of the named strategy."""
        return self.histories[strategy].final_accuracy

    def best(self, strategy: str) -> float:
        """Best-epoch accuracy of the named strategy."""
        return self.histories[strategy].best_accuracy


def make_experiment_data(
    spec: SyntheticSpec, *, val_fraction: float = 0.2
) -> tuple[TensorDataset, np.ndarray, np.ndarray, np.ndarray]:
    """Generate (train_dataset, train_labels, val_X, val_y) for a spec."""
    X, y = make_classification(spec)
    train_ds, val_ds = train_val_split(X, y, val_fraction=val_fraction, seed=spec.seed)
    return train_ds, train_ds.labels, val_ds.features, val_ds.labels


def run_comparison(
    *,
    spec: SyntheticSpec,
    config: TrainConfig,
    workers: int,
    strategies: list[str],
    deadline_s: float = 600.0,
    strategy_kwargs: dict | None = None,
    tracing: bool = False,
    backend: str | None = None,
) -> ExperimentResult:
    """Train every strategy on identical data/model/seed; return the curves.

    ``strategies`` uses the paper's naming: "global", "local",
    "partial-<q>" (e.g. "partial-0.1").  ``strategy_kwargs`` are forwarded
    to the partial-local constructors (e.g. ``selection``);
    global/local shuffling take none and ignore them.

    With ``tracing=True`` every rank keeps all its events and adds the
    per-message ones (communicator traffic, Figure-10 phase regions); each
    strategy's stream comes back on ``ExperimentResult.flight``, ready for
    :func:`repro.obs.merge_ranks` and :func:`repro.obs.write_chrome_trace`.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    config = replace(
        config,
        in_shape=(spec.n_features,) if len(config.in_shape) == 1 else config.in_shape,
        num_classes=spec.n_classes,
    )
    train_ds, labels, val_X, val_y = make_experiment_data(spec)
    strategy_kwargs = strategy_kwargs or {}

    histories: dict[str, RunHistory] = {}
    flight: dict[str, FlightLog] = {}
    for name in strategies:
        def worker(comm):
            kwargs = strategy_kwargs if name.startswith("partial") else {}
            strategy = strategy_from_name(name, **kwargs)
            return train_worker(comm, config, strategy, train_ds, labels, val_X, val_y)

        results = run_spmd(
            worker, workers, copy_on_send=False, deadline_s=deadline_s,
            tracing=tracing, backend=backend,
        )
        histories[name] = results[0]
        flight[name] = results.world.flight
    return ExperimentResult(workers=workers, histories=histories, flight=flight)


def run_pretrain_finetune(
    *,
    upstream_spec: SyntheticSpec,
    downstream_spec: SyntheticSpec,
    upstream_config: TrainConfig,
    downstream_config: TrainConfig,
    workers: int,
    strategies: list[str],
    deadline_s: float = 600.0,
    backend: str | None = None,
) -> tuple[ExperimentResult, ExperimentResult]:
    """Figure 8's protocol: pretrain with each shuffling strategy upstream,
    transfer the backbone, fine-tune downstream with *global* shuffling.

    Returns (upstream_result, downstream_result); the downstream histories
    are keyed by the *upstream* strategy that produced the backbone.  The
    paper's finding: upstream LS loses ~3% but the downstream difference is
    trivial.
    """
    from repro.nn.models import build_model

    up_train, up_labels, up_valX, up_valy = make_experiment_data(upstream_spec)
    down_train, down_labels, down_valX, down_valy = make_experiment_data(downstream_spec)

    upstream_config = replace(
        upstream_config,
        in_shape=(upstream_spec.n_features,),
        num_classes=upstream_spec.n_classes,
    )
    downstream_config = replace(
        downstream_config,
        in_shape=(downstream_spec.n_features,),
        num_classes=downstream_spec.n_classes,
    )
    if upstream_spec.n_features != downstream_spec.n_features:
        raise ValueError("upstream/downstream feature dims must match for transfer")

    up_histories: dict[str, RunHistory] = {}
    down_histories: dict[str, RunHistory] = {}
    for name in strategies:
        def up_worker(comm):
            strategy = strategy_from_name(name)
            history, model = train_worker(
                comm, upstream_config, strategy, up_train, up_labels,
                up_valX, up_valy, return_model=True,
            )
            return history, (model.state_dict() if comm.rank == 0 else None)

        results = run_spmd(
            up_worker, workers, copy_on_send=False, deadline_s=deadline_s,
            backend=backend,
        )
        up_histories[name], backbone_state = results[0]

        def down_worker(comm, state):
            model = build_model(
                downstream_config.model,
                in_shape=downstream_config.in_shape,
                num_classes=downstream_config.num_classes,
                seed=downstream_config.seed,
            )
            transfer_backbone(state, model)
            strategy = strategy_from_name("global")
            return train_worker(
                comm, downstream_config, strategy, down_train, down_labels,
                down_valX, down_valy, model=model,
            )

        results = run_spmd(
            down_worker, workers, args=(backbone_state,),
            copy_on_send=False, deadline_s=deadline_s, backend=backend,
        )
        down_histories[name] = results[0]

    return (
        ExperimentResult(workers=workers, histories=up_histories),
        ExperimentResult(workers=workers, histories=down_histories),
    )


def transfer_backbone(src_state: dict, dst_model) -> int:
    """Copy every parameter/buffer whose name and shape match (the classifier
    head differs in class count and stays freshly initialised).  Returns the
    number of arrays transferred."""
    import numpy as np

    dst_params = {f"param:{k}": p for k, p in dst_model.named_parameters()}
    copied = 0
    for key, value in src_state.items():
        if key.startswith("param:"):
            target = dst_params.get(key)
            if target is not None and target.data.shape == value.shape:
                target.data[...] = value
                copied += 1
        elif key.startswith("buffer:"):
            name = key.split(":", 1)[1]
            try:
                dst_model._load_buffer(name, value)
                copied += 1
            except (KeyError, ValueError):
                continue
    if copied == 0:
        raise ValueError("no arrays transferred — incompatible architectures?")
    return copied
