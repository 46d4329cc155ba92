"""Configuration validation tests."""

import dataclasses

import pytest

from repro.config import (
    DEFAULT_CONFIG,
    HIGHPASS_ORDER,
    INTERNAL_RATE_HZ,
    SAMPLE_RATE_HZ,
    DecisionConfig,
    ExtractorConfig,
    GalleryConfig,
    InferenceConfig,
    MandiPassConfig,
    PreprocessConfig,
    ResilienceConfig,
    SamplingConfig,
    SecurityConfig,
    ServingConfig,
    StreamConfig,
    TrainingConfig,
)
from repro.dsp.detection import ONSET_STD_START, ONSET_STD_SUSTAIN
from repro.errors import ConfigError

#: Every settable field, 47 in all.  A field stays only if a perfbench
#: workload, a paper experiment or a test of a needed behaviour sets it;
#: values the paper fixes are module constants.  A new knob changes this
#: table.
SETTABLE_FIELDS = {
    SamplingConfig: ("duration_s", "utterance_s"),
    PreprocessConfig: (
        "segment_length",
        "onset_window",
        "onset_sustain_windows",
        "mad_threshold",
        "highpass_cutoff_hz",
    ),
    ExtractorConfig: ("embedding_dim", "channels", "frontend", "input_width"),
    TrainingConfig: ("epochs", "batch_size", "learning_rate", "weight_decay", "seed"),
    InferenceConfig: ("compute_dtype", "metrics_enabled"),
    GalleryConfig: ("shard_size", "prescreen_rank", "compact_tombstone_ratio"),
    ServingConfig: ("max_batch_size", "queue_capacity", "num_worker_processes"),
    ResilienceConfig: (
        "max_retries",
        "stage_timeout_s",
        "breaker_failure_threshold",
        "breaker_cooldown_s",
        "min_usable_axes",
    ),
    StreamConfig: ("chunk_size", "cooldown_samples", "rearm_after_samples"),
    SecurityConfig: ("template_dim", "projected_dim", "matrix_seed"),
    DecisionConfig: ("threshold",),
    MandiPassConfig: (
        "sampling",
        "preprocess",
        "extractor",
        "training",
        "security",
        "decision",
        "inference",
        "serving",
        "resilience",
        "gallery",
        "stream",
    ),
}


@pytest.mark.parametrize("cls", list(SETTABLE_FIELDS), ids=lambda cls: cls.__name__)
def test_settable_fields_census(cls):
    names = tuple(field.name for field in dataclasses.fields(cls))
    assert names == SETTABLE_FIELDS[cls]


class TestSamplingConfig:
    def test_defaults_match_paper(self):
        cfg = SamplingConfig()
        assert SAMPLE_RATE_HZ == 350
        assert cfg.num_samples == 210

    def test_oversample_is_integer_ratio(self):
        assert INTERNAL_RATE_HZ % SAMPLE_RATE_HZ == 0
        assert SamplingConfig().oversample == 8

    def test_rejects_negative_duration(self):
        with pytest.raises(ConfigError):
            SamplingConfig(duration_s=-1.0)


class TestPreprocessConfig:
    def test_defaults_match_paper(self):
        cfg = PreprocessConfig()
        assert cfg.segment_length == 60
        assert cfg.onset_window == 10
        assert ONSET_STD_START == 250.0
        assert ONSET_STD_SUSTAIN == 100.0
        assert cfg.highpass_cutoff_hz == 20.0
        assert HIGHPASS_ORDER == 4

    def test_rejects_cutoff_above_nyquist(self):
        with pytest.raises(ConfigError):
            PreprocessConfig(highpass_cutoff_hz=200.0)

    def test_rejects_tiny_segment(self):
        with pytest.raises(ConfigError):
            PreprocessConfig(segment_length=1)


class TestExtractorConfig:
    def test_defaults(self):
        cfg = ExtractorConfig()
        assert cfg.embedding_dim == 512
        assert cfg.frontend == "spectral"
        assert cfg.input_width == 31

    def test_expected_width_spectral(self):
        assert ExtractorConfig().expected_input_width(60) == 31

    def test_expected_width_gradient(self):
        cfg = ExtractorConfig(frontend="gradient", input_width=30)
        assert cfg.expected_input_width(60) == 30

    def test_rejects_unknown_frontend(self):
        with pytest.raises(ConfigError):
            ExtractorConfig(frontend="wavelet")

    def test_rejects_wrong_conv_count(self):
        with pytest.raises(ConfigError):
            ExtractorConfig(channels=(8, 16))

    def test_rejects_nonpositive_embedding(self):
        with pytest.raises(ConfigError):
            ExtractorConfig(embedding_dim=0)


class TestTrainingConfig:
    def test_rejects_zero_epochs(self):
        with pytest.raises(ConfigError):
            TrainingConfig(epochs=0)

    def test_rejects_negative_lr(self):
        with pytest.raises(ConfigError):
            TrainingConfig(learning_rate=-1e-3)


class TestDecisionConfig:
    def test_threshold_in_cosine_range(self):
        with pytest.raises(ConfigError):
            DecisionConfig(threshold=2.5)
        with pytest.raises(ConfigError):
            DecisionConfig(threshold=0.0)


class TestMandiPassConfig:
    def test_default_is_consistent(self):
        assert DEFAULT_CONFIG.extractor.input_width == 31

    def test_rejects_mismatched_width(self):
        with pytest.raises(ConfigError):
            MandiPassConfig(extractor=ExtractorConfig(input_width=30))

    def test_gradient_frontend_width_accepted(self):
        cfg = MandiPassConfig(
            extractor=ExtractorConfig(frontend="gradient", input_width=30)
        )
        assert cfg.extractor.frontend == "gradient"

    def test_rejects_mismatched_template_dim(self):
        with pytest.raises(ConfigError):
            MandiPassConfig(security=SecurityConfig(template_dim=128))

    def test_replace_returns_new_config(self):
        new = DEFAULT_CONFIG.replace(decision=DecisionConfig(threshold=0.3))
        assert new.decision.threshold == 0.3
        assert DEFAULT_CONFIG.decision.threshold != 0.3

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CONFIG.decision = DecisionConfig(threshold=0.3)
