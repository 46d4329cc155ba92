"""Plain dense neural network -- the paper's 'NN' baseline.

A small multi-layer perceptron built on :mod:`repro.nn`; it classifies
flat feature vectors (SFS features in Fig. 7(b), flattened gradient
arrays in Fig. 10(a)) without the two-branch convolutional structure,
which is exactly what the paper's extractor is shown to beat.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.ml.base import Estimator
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import Adam
from repro.nn.layers import Linear, ReLU, Sequential


class MLPClassifier(Estimator):
    """Two-hidden-layer perceptron trained with Adam + cross-entropy."""

    def __init__(
        self,
        hidden: tuple[int, int] = (128, 64),
        epochs: int = 60,
        batch_size: int = 32,
        learning_rate: float = 1e-3,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if len(hidden) != 2 or any(h <= 0 for h in hidden):
            raise ConfigError("hidden must be two positive sizes")
        if epochs <= 0 or batch_size <= 0 or learning_rate <= 0:
            raise ConfigError("epochs, batch_size, learning_rate must be positive")
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self._net: Sequential | None = None
        self._classes: np.ndarray | None = None
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None

    def fit(self, inputs: np.ndarray, labels: np.ndarray) -> "MLPClassifier":
        inputs, labels = self._check_fit_inputs(inputs, labels)
        self._mean = inputs.mean(axis=0)
        std = inputs.std(axis=0)
        self._std = np.where(std == 0.0, 1.0, std)
        scaled = (inputs - self._mean) / self._std

        self._classes = np.unique(labels)
        class_index = {cls: i for i, cls in enumerate(self._classes)}
        dense_labels = np.array([class_index[l] for l in labels])

        rng = np.random.default_rng(self.seed)
        h1, h2 = self.hidden
        self._net = Sequential(
            Linear(inputs.shape[1], h1, rng=rng),
            ReLU(),
            Linear(h1, h2, rng=rng),
            ReLU(),
            Linear(h2, self._classes.size, rng=rng),
        )
        loader = DataLoader(
            ArrayDataset(scaled, dense_labels),
            batch_size=self.batch_size,
            shuffle=True,
            seed=self.seed,
        )
        loss_fn = CrossEntropyLoss()
        optimizer = Adam(self._net.parameters(), lr=self.learning_rate)
        self._net.train()
        for _ in range(self.epochs):
            for batch_x, batch_y in loader:
                logits = self._net(batch_x)
                loss_fn(logits, batch_y)
                optimizer.zero_grad()
                self._net.backward(loss_fn.backward())
                optimizer.step()
        self._net.eval()
        self._fitted = True
        return self

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        inputs = self._check_predict_inputs(inputs)
        assert self._net is not None and self._classes is not None
        scaled = (inputs - self._mean) / self._std
        logits = self._net(scaled)
        return self._classes[np.argmax(logits, axis=1)]
