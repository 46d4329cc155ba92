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
"""

from repro.config import (
    CascadeConfig,
    DEFAULT_CONFIG,
    DecisionConfig,
    ExtractorConfig,
    FusionConfig,
    InferenceConfig,
    MandiPassConfig,
    PreprocessConfig,
    SamplingConfig,
    SecurityConfig,
    ServingConfig,
    StreamConfig,
    TrainingConfig,
)
# repro.core must load before repro.cascade: core.system finishes the
# cascade package's initialization itself (it imports repro.cascade while
# cascade's modules only reach back into repro.core *submodules*).
from repro.core import (
    BatchItemFailure,
    BatchOutcome,
    InferenceEngine,
    MandiPass,
    TwoBranchExtractor,
    cosine_distance,
    extract_embeddings,
    train_extractor,
)
from repro.cascade import (
    ExitPolicy,
    Stage1Gate,
    calibrate_cascade,
)
from repro import obs
from repro.datasets import DatasetCache, DatasetSpec, SynthDataset, generate_dataset
from repro.dsp import Preprocessor
from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.imu import IDEAL_IMU, MPU6050, MPU9250, Recorder
from repro.physio import (
    HeartbeatVerifier,
    PersonProfile,
    RecordingCondition,
    sample_population,
)
from repro.security import CancelableTransform, SecureEnclave
from repro.serve import AuthFuture, AuthServer, RequestStatus
from repro.stream import SessionDecision, SessionState, StreamSession
from repro.types import Activity, EarSide, Gender, Mouthful, Tone, VerificationResult

__version__ = "1.0.0"

__all__ = [
    "Activity",
    "AuthFuture",
    "AuthServer",
    "BatchItemFailure",
    "BatchOutcome",
    "CancelableTransform",
    "CascadeConfig",
    "DEFAULT_CONFIG",
    "DatasetCache",
    "DatasetSpec",
    "DecisionConfig",
    "EarSide",
    "ExitPolicy",
    "ExtractorConfig",
    "FusionConfig",
    "Gender",
    "HeartbeatVerifier",
    "IDEAL_IMU",
    "InferenceConfig",
    "InferenceEngine",
    "MPU6050",
    "MPU9250",
    "MandiPass",
    "MandiPassConfig",
    "MetricsRegistry",
    "Mouthful",
    "PersonProfile",
    "PreprocessConfig",
    "Preprocessor",
    "Recorder",
    "RecordingCondition",
    "ReproError",
    "RequestStatus",
    "SamplingConfig",
    "SecureEnclave",
    "SecurityConfig",
    "ServingConfig",
    "SessionDecision",
    "SessionState",
    "Stage1Gate",
    "StreamConfig",
    "StreamSession",
    "SynthDataset",
    "Tone",
    "TrainingConfig",
    "TwoBranchExtractor",
    "VerificationResult",
    "calibrate_cascade",
    "cosine_distance",
    "extract_embeddings",
    "generate_dataset",
    "obs",
    "sample_population",
    "train_extractor",
]
