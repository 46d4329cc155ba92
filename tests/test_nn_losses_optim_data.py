"""Loss, optimiser, data-loading and serialization tests."""

import numpy as np
import pytest

from repro.errors import ConfigError, SerializationError, ShapeError
from repro.nn import Linear, load_state_dict, save_state_dict
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import Adam
from repro.nn.tensor import Parameter
from tests.gradcheck import numerical_gradient


class TestCrossEntropy:
    def test_uniform_logits_log_k(self):
        loss = CrossEntropyLoss()
        value = loss(np.zeros((4, 10)), np.arange(4))
        assert value == pytest.approx(np.log(10.0))

    def test_perfect_prediction_near_zero(self):
        loss = CrossEntropyLoss()
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        assert loss(logits, np.array([1, 2])) < 1e-6

    def test_gradient_matches_numerical(self, rng):
        loss = CrossEntropyLoss()
        logits = rng.normal(size=(3, 5))
        labels = np.array([0, 3, 2])
        loss(logits, labels)
        analytic = loss.backward()

        def f(lg):
            return CrossEntropyLoss()(lg, labels)

        numeric = numerical_gradient(f, logits.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_extreme_logits_stable(self):
        loss = CrossEntropyLoss()
        assert np.isfinite(loss(np.array([[1e4, -1e4]]), np.array([0])))

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ShapeError):
            CrossEntropyLoss()(np.zeros((2, 3)), np.array([0, 3]))

    def test_backward_before_forward_raises(self):
        with pytest.raises(ShapeError):
            CrossEntropyLoss().backward()


class TestOptimizers:
    def _quadratic_param(self):
        return Parameter(np.array([5.0, -3.0]))

    def test_adam_converges_on_quadratic(self):
        param = self._quadratic_param()
        opt = Adam([param], lr=0.3)
        for _ in range(300):
            param.zero_grad()
            param.accumulate(2.0 * param.data)
            opt.step()
        assert np.abs(param.data).max() < 1e-3

    def test_weight_decay_shrinks_weights(self, rng):
        param = Parameter(np.ones(4))
        opt = Adam([param], lr=0.1, weight_decay=0.5)
        opt.step()  # zero gradient, only decay
        assert np.all(param.data < 1.0)

    def test_rejects_empty_parameters(self):
        with pytest.raises(ConfigError):
            Adam([], lr=0.1)

    def test_rejects_bad_lr(self):
        with pytest.raises(ConfigError):
            Adam([Parameter(np.zeros(1))], lr=0.0)


class TestDataLoader:
    def test_batches_cover_dataset(self, rng):
        ds = ArrayDataset(rng.normal(size=(10, 3)), np.arange(10) % 2)
        loader = DataLoader(ds, batch_size=4, shuffle=False)
        seen = sum(len(y) for _, y in loader)
        assert seen == 10
        assert len(loader) == 3

    def test_drop_last(self, rng):
        ds = ArrayDataset(rng.normal(size=(10, 3)), np.zeros(10))
        loader = DataLoader(ds, batch_size=4, drop_last=True)
        assert len(loader) == 2

    def test_shuffle_changes_order_across_epochs(self, rng):
        ds = ArrayDataset(np.arange(20)[:, None].astype(float), np.zeros(20))
        loader = DataLoader(ds, batch_size=20, shuffle=True, seed=0)
        first = next(iter(loader))[0].ravel()
        second = next(iter(loader))[0].ravel()
        assert not np.array_equal(first, second)

    def test_deterministic_given_seed(self, rng):
        ds = ArrayDataset(np.arange(20)[:, None].astype(float), np.zeros(20))
        a = next(iter(DataLoader(ds, batch_size=20, seed=5)))[0]
        b = next(iter(DataLoader(ds, batch_size=20, seed=5)))[0]
        np.testing.assert_array_equal(a, b)

    def test_dataset_length_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            ArrayDataset(rng.normal(size=(5, 2)), np.zeros(4))

    def test_num_classes(self):
        ds = ArrayDataset(np.zeros((4, 1)), np.array([0, 2, 1, 2]))
        assert ds.num_classes() == 3


class TestSerialize:
    def test_round_trip(self, tmp_path, rng):
        lin = Linear(4, 3, rng=rng)
        path = tmp_path / "model.npz"
        save_state_dict(lin.state_dict(), path)
        restored = load_state_dict(path)
        lin2 = Linear(4, 3, rng=np.random.default_rng(9))
        lin2.load_state(restored)
        x = rng.normal(size=(2, 4))
        np.testing.assert_array_equal(lin(x), lin2(x))

    def test_empty_state_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            save_state_dict({}, tmp_path / "x.npz")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            load_state_dict(tmp_path / "nope.npz")
