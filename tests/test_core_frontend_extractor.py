"""Front-end and two-branch extractor tests."""

import numpy as np
import pytest

from repro.config import ExtractorConfig
from repro.core.extractor import TwoBranchExtractor
from repro.core.frontend import (
    FRONTEND_KINDS,
    GradientFrontEnd,
    RectifiedSpectralFrontEnd,
    make_frontend,
)
from repro.errors import ConfigError, ShapeError
from tests.gradcheck import check_layer_input_grad


class TestRectifiedSpectralFrontEnd:
    def test_shape(self, rng):
        fe = RectifiedSpectralFrontEnd()
        out = fe.transform(rng.uniform(size=(6, 60)))
        assert out.shape == (2, 6, 31)
        assert fe.width(60) == 31

    def test_nonnegative(self, rng):
        out = RectifiedSpectralFrontEnd().transform(rng.uniform(size=(6, 60)))
        assert np.all(out >= 0.0)

    def test_shift_insensitive(self, rng):
        """Magnitude spectra barely change under a circular time shift."""
        fe = RectifiedSpectralFrontEnd()
        signal = rng.uniform(size=(6, 60))
        shifted = np.roll(signal, 3, axis=1)
        a, b = fe.transform(signal), fe.transform(shifted)
        cos = np.sum(a * b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos > 0.97

    def test_direction_planes_differ_for_asymmetric_signal(self):
        t = np.linspace(0, 4 * np.pi, 60)
        asym = np.tile(np.where(np.sin(t) > 0, np.sin(t), 0.3 * np.sin(t)), (6, 1))
        out = RectifiedSpectralFrontEnd().transform(asym)
        assert not np.allclose(out[0], out[1])

    def test_rejects_bad_power(self):
        with pytest.raises(ConfigError):
            RectifiedSpectralFrontEnd(power=0.0)


class TestGradientFrontEnd:
    def test_temporal_shape(self, rng):
        fe = GradientFrontEnd("temporal")
        out = fe.transform(rng.uniform(size=(6, 60)))
        assert out.shape == (2, 6, 30)
        assert fe.width(60) == 30

    def test_positive_plane_nonnegative(self, rng):
        out = GradientFrontEnd("temporal").transform(rng.uniform(size=(6, 60)))
        assert np.all(out[0] >= 0.0)
        assert np.all(out[1] <= 0.0)

    def test_sorted_is_permutation_invariant_per_direction(self, rng):
        fe = GradientFrontEnd("sorted")
        signal = rng.uniform(size=(6, 60))
        out = fe.transform(signal)
        assert np.all(np.diff(out[0], axis=1) <= 1e-12)  # descending magnitudes
        assert np.all(np.diff(out[1], axis=1) >= -1e-12)  # ascending (most negative first)

    def test_rejects_unknown_order(self):
        with pytest.raises(ConfigError):
            GradientFrontEnd("shuffled")


class TestFactory:
    @pytest.mark.parametrize("kind", FRONTEND_KINDS)
    def test_known_kinds(self, kind, rng):
        fe = make_frontend(kind)
        out = fe.transform(rng.uniform(size=(6, 60)))
        assert out.shape[0] == 2 and out.shape[1] == 6

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigError):
            make_frontend("mel")

    def test_batch_empty(self):
        fe = make_frontend("spectral")
        out = fe.transform_batch(np.empty((0, 6, 60)))
        assert out.shape[0] == 0


class TestTwoBranchExtractor:
    @pytest.fixture(scope="class")
    def small(self):
        return ExtractorConfig(embedding_dim=32, channels=(2, 4, 8))

    def test_logit_shape(self, small, rng):
        model = TwoBranchExtractor(small, num_classes=5, seed=0)
        out = model(rng.normal(size=(3, 2, 6, 31)))
        assert out.shape == (3, 5)

    def test_embedding_shape_and_range(self, small, rng):
        model = TwoBranchExtractor(small, num_classes=5, seed=0)
        emb = model.embed(rng.normal(size=(4, 2, 6, 31)))
        assert emb.shape == (4, 32)
        assert np.all((emb > 0.0) & (emb < 1.0))

    def test_rejects_wrong_input_shape(self, small, rng):
        model = TwoBranchExtractor(small, num_classes=5)
        with pytest.raises(ShapeError):
            model(rng.normal(size=(3, 2, 6, 30)))

    def test_branches_are_independent(self, small, rng):
        """Swapping the direction planes changes the output (the two
        branches have separate weights)."""
        model = TwoBranchExtractor(small, num_classes=5, seed=0)
        model.eval()
        x = rng.normal(size=(1, 2, 6, 31))
        swapped = x[:, ::-1, :, :].copy()
        assert not np.allclose(model.embed(x), model.embed(swapped))

    def test_end_to_end_gradient(self, rng):
        tiny = ExtractorConfig(embedding_dim=8, channels=(2, 2, 2))
        model = TwoBranchExtractor(tiny, num_classes=3, seed=0)
        x = rng.normal(size=(2, 2, 6, 31))
        assert check_layer_input_grad(model, x) < 1e-5

    def test_storage_default_config_near_paper(self):
        """The paper reports ~5 MB for the extractor."""
        model = TwoBranchExtractor(ExtractorConfig(), num_classes=34)
        mb = model.storage_nbytes() / 1e6
        assert 1.0 < mb < 8.0

    def test_rejects_single_class(self):
        with pytest.raises(ConfigError):
            TwoBranchExtractor(num_classes=1)

    def test_deterministic_seeding(self, small, rng):
        a = TwoBranchExtractor(small, num_classes=4, seed=3)
        b = TwoBranchExtractor(small, num_classes=4, seed=3)
        x = rng.normal(size=(1, 2, 6, 31))
        a.eval(), b.eval()
        np.testing.assert_array_equal(a.embed(x), b.embed(x))

    def test_state_dict_round_trip(self, small, rng):
        model = TwoBranchExtractor(small, num_classes=4, seed=1)
        x = rng.normal(size=(2, 2, 6, 31))
        model(x)  # touch running stats
        clone = TwoBranchExtractor(small, num_classes=4, seed=2)
        clone.load_state(model.state_dict())
        model.eval(), clone.eval()
        np.testing.assert_allclose(model.embed(x), clone.embed(x))
