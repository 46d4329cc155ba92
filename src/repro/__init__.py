"""MandiPass reproduction (ICDCS 2021).

A full Python implementation of *MandiPass: Secure and Usable User
Authentication via Earphone IMU*: the two-branch biometric extractor,
the signal-preprocessing pipeline, Gaussian-matrix cancelable templates
-- plus every substrate the paper depends on, built from scratch: a
physiological mandible-vibration simulator, an IMU sensor model, a DSP
toolkit, a numpy deep-learning framework and classical-ML baselines.

Quickstart::

    from repro import (
        DatasetSpec, MandiPass, generate_dataset, train_extractor,
    )

    hired = generate_dataset(DatasetSpec(population_seed=100))
    model, _ = train_extractor(hired.features, hired.labels)
    system = MandiPass(model)
    # record / enroll / verify -- see examples/quickstart.py

Every name below is loaded from its module on first access (PEP 562),
so ``import repro`` loads nothing, and a serving process that never
touches the simulator, the trainer or the evaluation harness never
imports them.
"""

import importlib

__version__ = "1.0.0"

_EXPORTS = {
    "repro.config": (
        "DEFAULT_CONFIG",
        "DecisionConfig",
        "ExtractorConfig",
        "InferenceConfig",
        "MandiPassConfig",
        "PreprocessConfig",
        "SamplingConfig",
        "SecurityConfig",
        "ServingConfig",
        "StreamConfig",
        "TrainingConfig",
    ),
    "repro.core.engine": ("BatchItemFailure", "BatchOutcome", "InferenceEngine"),
    "repro.core.extractor": ("TwoBranchExtractor",),
    "repro.core.mandibleprint": ("extract_embeddings",),
    "repro.core.similarity": ("cosine_distance",),
    "repro.core.system": ("MandiPass",),
    "repro.core.training": ("train_extractor",),
    "repro.datasets.cache": ("DatasetCache",),
    "repro.datasets.synth": ("DatasetSpec", "SynthDataset", "generate_dataset"),
    "repro.dsp.pipeline": ("Preprocessor",),
    "repro.errors": ("ReproError",),
    "repro.imu.device": ("IDEAL_IMU", "MPU6050", "MPU9250"),
    "repro.imu.recorder": ("Recorder",),
    "repro.obs.metrics": ("MetricsRegistry",),
    "repro.physio.conditions": ("RecordingCondition",),
    "repro.physio.person": ("PersonProfile",),
    "repro.physio.population": ("sample_population",),
    "repro.security.cancelable": ("CancelableTransform",),
    "repro.security.enclave": ("SecureEnclave",),
    "repro.serve.server": ("AuthFuture", "AuthServer", "RequestStatus"),
    "repro.stream.session": ("SessionDecision", "SessionState", "StreamSession"),
    "repro.types": (
        "Activity",
        "EarSide",
        "Gender",
        "Mouthful",
        "Tone",
        "VerificationResult",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# ``obs`` is a subpackage: ``from repro import obs`` imports it directly.
__all__ = sorted([*_MODULE_OF, "obs"])


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
