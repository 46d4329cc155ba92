"""Neural-network layer tests with numerical gradient checks."""

import numpy as np
import pytest

from repro.errors import ModelError, ShapeError
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
)
from tests.gradcheck import check_layer_input_grad, check_layer_param_grads

TOL = 1e-6


class TestConv2d:
    def test_output_shape_paper_stride(self, rng):
        """3x3 kernel, stride 1x2, padding 1: (6, 30) -> (6, 15)."""
        conv = Conv2d(1, 8, (3, 3), (1, 2), (1, 1), rng=rng)
        out = conv(rng.normal(size=(2, 1, 6, 30)))
        assert out.shape == (2, 8, 6, 15)

    def test_input_gradient(self, rng):
        conv = Conv2d(2, 3, (3, 3), (1, 2), (1, 1), rng=rng)
        x = rng.normal(size=(2, 2, 6, 10))
        assert check_layer_input_grad(conv, x) < TOL

    def test_parameter_gradients(self, rng):
        conv = Conv2d(2, 3, (3, 3), (1, 2), (1, 1), rng=rng)
        x = rng.normal(size=(2, 2, 6, 10))
        errors = check_layer_param_grads(conv, x)
        assert max(errors.values()) < TOL

    def test_rejects_wrong_channels(self, rng):
        conv = Conv2d(2, 3, rng=rng)
        with pytest.raises(ShapeError):
            conv(rng.normal(size=(1, 5, 6, 10)))

    def test_backward_before_forward_raises(self, rng):
        conv = Conv2d(1, 1, rng=rng)
        with pytest.raises(ModelError):
            conv.backward(np.zeros((1, 1, 6, 10)))

    def test_known_convolution_value(self):
        conv = Conv2d(1, 1, (3, 3), (1, 1), (0, 0))
        conv.weight.data[...] = 1.0
        conv.bias.data[...] = 0.0
        x = np.ones((1, 1, 3, 3))
        assert conv(x)[0, 0, 0, 0] == pytest.approx(9.0)


class TestBatchNorm2d:
    def test_normalises_in_training(self, rng):
        bn = BatchNorm2d(4)
        x = rng.normal(3.0, 5.0, size=(8, 4, 6, 10))
        out = bn(x)
        assert abs(out.mean()) < 1e-6
        assert out.std() == pytest.approx(1.0, rel=0.01)

    def test_running_stats_converge(self, rng):
        bn = BatchNorm2d(2, momentum=0.5)
        for _ in range(30):
            bn(rng.normal(7.0, 2.0, size=(16, 2, 4, 4)))
        np.testing.assert_allclose(bn.running_mean, [7.0, 7.0], atol=0.3)
        np.testing.assert_allclose(bn.running_var, [4.0, 4.0], rtol=0.3)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        for _ in range(10):
            bn(rng.normal(7.0, 2.0, size=(16, 2, 4, 4)))
        bn.eval()
        x = rng.normal(7.0, 2.0, size=(4, 2, 4, 4))
        out1 = bn(x)
        out2 = bn(x)
        np.testing.assert_array_equal(out1, out2)

    def test_input_gradient_training(self, rng):
        bn = BatchNorm2d(3)
        x = rng.normal(size=(4, 3, 2, 5))
        assert check_layer_input_grad(bn, x) < TOL

    def test_parameter_gradients(self, rng):
        bn = BatchNorm2d(3)
        x = rng.normal(size=(4, 3, 2, 5))
        errors = check_layer_param_grads(bn, x)
        assert max(errors.values()) < 1e-4  # running stats shift slightly

    def test_rejects_wrong_channels(self, rng):
        with pytest.raises(ShapeError):
            BatchNorm2d(3)(rng.normal(size=(2, 4, 3, 3)))


class TestActivations:
    def test_relu_forward(self):
        out = ReLU()(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_relu_gradient(self, rng):
        x = rng.normal(size=(4, 7)) + 0.1  # avoid the kink at zero
        assert check_layer_input_grad(ReLU(), x) < TOL

    def test_sigmoid_range(self, rng):
        out = Sigmoid()(rng.normal(0, 10, size=100))
        assert np.all((out > 0.0) & (out < 1.0))

    def test_sigmoid_extreme_stability(self):
        out = Sigmoid()(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))

    def test_sigmoid_gradient(self, rng):
        x = rng.normal(size=(3, 5))
        assert check_layer_input_grad(Sigmoid(), x) < TOL


class TestLinear:
    def test_affine_map(self, rng):
        lin = Linear(3, 2, rng=rng)
        lin.weight.data = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        lin.bias.data = np.array([1.0, -1.0])
        out = lin(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[2.0, 3.0]])

    def test_gradients(self, rng):
        lin = Linear(5, 4, rng=rng)
        x = rng.normal(size=(3, 5))
        assert check_layer_input_grad(lin, x) < TOL
        assert max(check_layer_param_grads(lin, x).values()) < TOL

    def test_rejects_wrong_features(self, rng):
        with pytest.raises(ShapeError):
            Linear(5, 4, rng=rng)(rng.normal(size=(3, 6)))


class TestFlattenDropout:
    def test_flatten_round_trip(self, rng):
        flat = Flatten()
        x = rng.normal(size=(2, 3, 4, 5))
        out = flat(x)
        assert out.shape == (2, 60)
        back = flat.backward(out)
        np.testing.assert_array_equal(back, x)


class TestSequential:
    def test_forward_backward_chain_gradient(self, rng):
        net = Sequential(
            Conv2d(1, 2, (3, 3), (1, 2), (1, 1), rng=rng),
            BatchNorm2d(2),
            ReLU(),
            Flatten(),
            Linear(2 * 4 * 4, 3, rng=rng),
            Sigmoid(),
        )
        x = rng.normal(size=(3, 1, 4, 8))
        assert check_layer_input_grad(net, x) < 1e-5

    def test_parameter_traversal(self, rng):
        net = Sequential(Linear(3, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng))
        assert len(net.parameters()) == 4
        assert net.num_parameters() == 3 * 4 + 4 + 4 * 2 + 2

    def test_train_eval_propagates(self, rng):
        net = Sequential(BatchNorm2d(2), ReLU())
        net.eval()
        assert not net[0].training and not net[1].training
        net.train()
        assert net[0].training and net[1].training

    def test_zero_grad_resets(self, rng):
        lin = Linear(3, 2, rng=rng)
        lin(rng.normal(size=(2, 3)))
        lin.backward(np.ones((2, 2)))
        assert np.any(lin.weight.grad != 0.0)
        lin.zero_grad()
        assert np.all(lin.weight.grad == 0.0)


class TestStateDict:
    def test_round_trip(self, rng):
        net = Sequential(Conv2d(1, 2, rng=rng), BatchNorm2d(2), Flatten())
        net(rng.normal(size=(2, 1, 4, 4)))  # populate running stats
        state = net.state_dict()
        net2 = Sequential(
            Conv2d(1, 2, rng=np.random.default_rng(99)), BatchNorm2d(2), Flatten()
        )
        net2.load_state(state)
        x = rng.normal(size=(1, 1, 4, 4))
        net.eval(), net2.eval()
        np.testing.assert_array_equal(net(x), net2(x))

    def test_missing_key_raises(self, rng):
        net = Sequential(Linear(3, 2, rng=rng))
        with pytest.raises(ModelError):
            net.load_state({})

    def test_shape_mismatch_raises(self, rng):
        net = Sequential(Linear(3, 2, rng=rng))
        state = net.state_dict()
        bad = {k: np.zeros((1, 1)) for k in state}
        with pytest.raises(ModelError):
            net.load_state(bad)
