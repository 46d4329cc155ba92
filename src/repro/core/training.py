"""VSP-side extractor training (Section V-C).

The verification service provider trains the biometric extractor once,
on gradient arrays collected from hired people, with cross-entropy loss
and the Adam optimiser; users never contribute training data.  The
trained extractor then ships on the earphone.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import ExtractorConfig, TrainingConfig
from repro.core.extractor import TwoBranchExtractor
from repro.errors import ShapeError
from repro.ml.base import accuracy
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import Adam


@dataclasses.dataclass
class TrainingHistory:
    """Per-epoch training trace."""

    losses: list[float] = dataclasses.field(default_factory=list)
    accuracies: list[float] = dataclasses.field(default_factory=list)

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ShapeError("no epochs recorded")
        return self.losses[-1]

    @property
    def final_accuracy(self) -> float:
        if not self.accuracies:
            raise ShapeError("no epochs recorded")
        return self.accuracies[-1]


def train_extractor(
    feature_arrays: np.ndarray,
    labels: np.ndarray,
    extractor_config: ExtractorConfig | None = None,
    training_config: TrainingConfig | None = None,
    model: TwoBranchExtractor | None = None,
) -> tuple[TwoBranchExtractor, TrainingHistory]:
    """Train (or continue training) a two-branch extractor.

    Args:
        feature_arrays: ``(B, 2, 6, W)`` training inputs.
        labels: ``(B,)`` dense integer person ids ``0..K-1``.
        extractor_config: architecture; ignored if ``model`` is given.
        training_config: optimisation parameters.
        model: continue training this model instead of a fresh one.

    Returns:
        ``(model, history)`` with the model left in eval mode.
    """
    feature_arrays = np.asarray(feature_arrays, dtype=np.float64)
    labels = np.asarray(labels)
    if feature_arrays.ndim != 4:
        raise ShapeError("feature_arrays must be (B, 2, 6, W)")
    if labels.shape != (feature_arrays.shape[0],):
        raise ShapeError("labels must be (B,)")
    train_cfg = training_config or TrainingConfig()
    num_classes = int(labels.max()) + 1
    if model is None:
        model = TwoBranchExtractor(
            extractor_config, num_classes=num_classes, seed=train_cfg.seed
        )
    elif model.num_classes < num_classes:
        raise ShapeError(
            f"model head has {model.num_classes} classes, data has {num_classes}"
        )

    loader = DataLoader(
        ArrayDataset(feature_arrays, labels),
        batch_size=train_cfg.batch_size,
        seed=train_cfg.seed,
    )
    loss_fn = CrossEntropyLoss()
    optimizer = Adam(
        model.parameters(),
        lr=train_cfg.learning_rate,
        weight_decay=train_cfg.weight_decay,
    )

    history = TrainingHistory()
    model.train()
    for _ in range(train_cfg.epochs):
        epoch_losses = []
        correct = 0
        seen = 0
        for batch_x, batch_y in loader:
            logits = model(batch_x)
            loss = loss_fn(logits, batch_y)
            optimizer.zero_grad()
            model.backward(loss_fn.backward())
            optimizer.step()
            epoch_losses.append(loss)
            correct += int(np.sum(np.argmax(logits, axis=1) == batch_y))
            seen += batch_y.size
        history.losses.append(float(np.mean(epoch_losses)))
        history.accuracies.append(correct / max(seen, 1))
    model.eval()
    return model, history


def evaluate_classification(
    model: TwoBranchExtractor,
    feature_arrays: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 256,
) -> float:
    """Test-set classification accuracy of the training head (Fig. 10a)."""
    feature_arrays = np.asarray(feature_arrays, dtype=np.float64)
    labels = np.asarray(labels)
    model.eval()
    predictions = []
    for start in range(0, feature_arrays.shape[0], batch_size):
        logits = model(feature_arrays[start : start + batch_size])
        predictions.append(np.argmax(logits, axis=1))
    return accuracy(labels, np.concatenate(predictions))
