"""Head training over frozen embeddings: seeded init, stratified validation
carve-out, mini-batch Adam on MSE, and patience-based early stopping.

Training is bit-deterministic: the config seed spawns three independent
SplitMix64 child streams (parameter init, validation selection, epoch
shuffling), so identical inputs and config always produce an identical
trained head.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from toolmatch.domain import NUM_ATTRIBUTES, EmbeddingSet, ToolCatalog
from toolmatch.nn import (AdamState, MlpHead, _loss_and_grads, adam_update, head_forward, init_head,
                          validate_layer_dims)
from toolmatch.rng import SplitMix64

PATHWAYS = ("visual", "language")

# Per-pathway defaults: hidden widths, learning rate, batch size, epoch budget.
PATHWAY_DEFAULTS: dict[str, dict] = {
    "visual": {"hidden_dims": (256, 64), "learning_rate": 1e-4, "batch_size": 256, "max_epochs": 1000},
    "language": {"hidden_dims": (256, 128, 64), "learning_rate": 5e-5, "batch_size": 4, "max_epochs": 2000},
}

DEFAULT_PATIENCE = 50
DEFAULT_VALIDATION_FRACTION = 0.1


class TrainingDivergedError(RuntimeError):
    """Loss went non-finite during training; reports the offending epoch."""

    def __init__(self, epoch: int, message: str):
        super().__init__(f"training diverged at epoch {epoch}: {message}")
        self.epoch = epoch


@dataclass(frozen=True)
class HeadConfig:
    """Everything needed to reproduce a training run."""

    pathway: str
    layer_dims: tuple[int, ...]
    learning_rate: float
    batch_size: int
    max_epochs: int
    patience: int = DEFAULT_PATIENCE
    validation_fraction: float = DEFAULT_VALIDATION_FRACTION
    seed: int = 0

    def __post_init__(self):
        if self.pathway not in PATHWAYS:
            raise ValueError(f"pathway must be one of {PATHWAYS}, got {self.pathway!r}")
        object.__setattr__(self, "layer_dims", validate_layer_dims(self.layer_dims))
        if not 0 < self.learning_rate < float("inf"):  # nan fails this too
            raise ValueError(f"learning_rate must be a positive finite number, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in (0, 1)")

    @classmethod
    def for_pathway(cls, pathway: str, input_dim: int, **overrides) -> "HeadConfig":
        """Defaults for a pathway, with the input dimension prepended."""
        if pathway not in PATHWAY_DEFAULTS:
            raise ValueError(f"pathway must be one of {PATHWAYS}, got {pathway!r}")
        base = dict(PATHWAY_DEFAULTS[pathway])
        hidden = tuple(overrides.pop("hidden_dims", base.pop("hidden_dims")))
        base.update(overrides)
        return cls(pathway=pathway, layer_dims=(int(input_dim), *hidden, NUM_ATTRIBUTES), **base)

    def to_dict(self) -> dict:
        return {
            "pathway": self.pathway,
            "layer_dims": list(self.layer_dims),
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "max_epochs": self.max_epochs,
            "patience": self.patience,
            "validation_fraction": self.validation_fraction,
            "seed": self.seed,
        }


@dataclass(eq=False)
class TrainedHead:
    """A head at its best-validation epoch plus the run's provenance."""

    head: MlpHead
    config: HeadConfig
    best_validation_mse: float
    epochs_run: int
    training_log: list[tuple[float, float]] = field(default_factory=list)  # (train, val) per epoch
    # Epoch whose parameters the head holds (0: the initialization); None
    # when unknown, as for a loaded checkpoint, which does not store it.
    best_epoch: int | None = None


def split_validation(
    item_ids: Sequence[int],
    tool_of,
    fraction: float,
    rng: SplitMix64,
) -> tuple[list[int], list[int]]:
    """Carve a validation subset out of the training items, once, before epoch 1.

    Stratified by tool where possible: each tool contributes floor(fraction *
    count) items. If stratification yields nothing (all groups tiny), falls
    back to a global draw that always leaves at least one training item.
    """
    ids = sorted(int(i) for i in item_ids)
    groups: dict[int, list[int]] = {}
    for iid in ids:
        groups.setdefault(tool_of(iid), []).append(iid)

    val: list[int] = []
    for tool_id in sorted(groups):
        members = groups[tool_id]
        take = int(fraction * len(members))
        if take > 0:
            val.extend(rng.sample(members, take))
    if not val and len(ids) >= 2:
        take = min(max(1, int(fraction * len(ids))), len(ids) - 1)
        val = rng.sample(ids, take)
    val_set = set(val)
    train = [i for i in ids if i not in val_set]
    return train, sorted(val_set)


def _epoch_val_mse(head: MlpHead, x: np.ndarray, t: np.ndarray) -> float:
    out = head_forward(head, x)
    diff = out - t
    return float(np.mean(diff * diff))


def train_head(embeddings: EmbeddingSet, catalog: ToolCatalog, config: HeadConfig) -> TrainedHead:
    """Train an attribute head on the embedding set's train split.

    Targets are each item's tool attribute vector (raw 1-7 scale). Stops when
    validation MSE has not strictly improved for ``patience`` consecutive
    epochs, or at ``max_epochs``; the returned parameters are those of the
    best-validation epoch.
    """
    if embeddings.dim != config.layer_dims[0]:
        raise ValueError(
            f"embedding dimension {embeddings.dim} does not match head input "
            f"dimension {config.layer_dims[0]}"
        )
    train_items = embeddings.items("train")
    if not train_items:
        raise ValueError("training split is empty")

    master = SplitMix64(config.seed)
    init_seed, val_seed, shuffle_seed = master.child_seeds(3)

    head = init_head(config.layer_dims, init_seed)
    if config.max_epochs == 0:
        return TrainedHead(head=head, config=config, best_validation_mse=float("inf"),
                           epochs_run=0, training_log=[], best_epoch=0)

    fit_ids, val_ids = split_validation(
        train_items, embeddings.tool_of, config.validation_fraction, SplitMix64(val_seed)
    )
    X_fit = embeddings.matrix(fit_ids)
    T_fit = np.stack([catalog.attributes_of(embeddings.tool_of(i)) for i in fit_ids])
    if val_ids:
        X_val = embeddings.matrix(val_ids)
        T_val = np.stack([catalog.attributes_of(embeddings.tool_of(i)) for i in val_ids])
    else:
        X_val = T_val = None  # degenerate split: monitor the train loss instead

    shuffler = SplitMix64(shuffle_seed)
    state = AdamState.for_params(head.vector, config.learning_rate)

    n = len(fit_ids)
    order = list(range(n))
    log: list[tuple[float, float]] = []
    best_val = float("inf")
    best_epoch = 0
    best_vector = head.vector.copy()
    stale = 0
    epochs_run = 0

    for epoch in range(1, config.max_epochs + 1):
        epochs_run = epoch
        shuffler.shuffle(order)
        sq_err_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            try:
                loss, grad = _loss_and_grads(head, X_fit[idx], T_fit[idx])
            except FloatingPointError as exc:
                raise TrainingDivergedError(epoch, str(exc)) from None
            sq_err_sum += loss * len(idx)
            adam_update(head.vector, grad, state)
        train_mse = sq_err_sum / n
        if X_val is not None:
            val_mse = _epoch_val_mse(head, X_val, T_val)
        else:
            val_mse = train_mse
        if not np.isfinite(val_mse):
            raise TrainingDivergedError(epoch, "validation loss is non-finite")
        log.append((train_mse, val_mse))

        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            np.copyto(best_vector, head.vector)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    np.copyto(head.vector, best_vector)
    return TrainedHead(
        head=head,
        config=config,
        best_validation_mse=best_val,
        epochs_run=epochs_run,
        training_log=log,
        best_epoch=best_epoch,
    )


def predict_attributes(trained: TrainedHead, embeddings: EmbeddingSet, item_id: int) -> np.ndarray:
    """Unclamped 13-dim attribute prediction for one item."""
    return head_forward(trained.head, embeddings.vector(item_id))


def predict_each(trained: TrainedHead, embeddings: EmbeddingSet, item_ids: Sequence[int]) -> np.ndarray:
    """One row per requested item, each equal to its ``predict_attributes`` to the bit.

    The rows go through one forward pass as an (n, 1, d) stack, so each is
    multiplied as the single vector it would be on its own; a (n, d) batch
    rounds differently.
    """
    return head_forward(trained.head, embeddings.matrix(item_ids)[:, None, :])[:, 0]


def predictor(trained: TrainedHead, embeddings: EmbeddingSet):
    """item_id -> prediction callable with a per-item cache (for one request at a time)."""
    cache: dict[int, np.ndarray] = {}

    def predict(item_id: int) -> np.ndarray:
        if item_id not in cache:
            cache[item_id] = predict_attributes(trained, embeddings, item_id)
        return cache[item_id]

    return predict
