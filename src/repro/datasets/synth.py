"""End-to-end synthetic dataset generation.

A :class:`DatasetSpec` fixes everything about a data collection
campaign -- population, trials per person, device, recording condition,
sampling, segment offsets, front end -- and :func:`generate_dataset`
runs the full acquisition + preprocessing chain, returning aligned
signal arrays, front-end feature arrays and labels.  Everything is
deterministic in the spec.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import (
    HIGHPASS_ORDER,
    SAMPLE_RATE_HZ,
    PreprocessConfig,
    SamplingConfig,
)
from repro.core.frontend import FRONTEND_KINDS, make_frontend
from repro.dsp.detection import detect_onset, segment_after_onset
from repro.dsp.filters import design_highpass, sosfilt
from repro.dsp.normalize import min_max_normalize
from repro.dsp.outliers import replace_outliers
from repro.errors import ConfigError, SignalError
from repro.imu.device import IMUDevice, MPU9250
from repro.imu.recorder import Recorder
from repro.physio.conditions import NOMINAL, RecordingCondition
from repro.physio.person import PersonProfile
from repro.physio.population import sample_population
from repro.types import NUM_AXES


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """Deterministic description of one data-collection campaign.

    Attributes:
        num_people / num_female: population composition (paper: 34 / 6).
        trials_per_person: recordings per person under this condition.
        population_seed: which synthetic humans to sample.  *Different
            seeds are different people*: the VSP's hired people and the
            evaluation users are disjoint populations.
        recorder_seed: acquisition randomness.
        condition: recording condition applied to every trial.
        device: IMU part.
        max_axes: keep only the first k axes (Fig. 11a); the remaining
            rows of every signal array are zeroed, preserving shapes.
        segment_offsets: cut one segment per offset (samples relative to
            the detected onset) from each recording.  Training campaigns
            use several offsets -- the paper's hired-people corpus chops
            continuous voicing into many arrays, which is naturally
            offset-diverse -- while evaluation campaigns keep ``(0,)``.
        frontend: which direction-splitting front end produces the
            feature arrays (see :mod:`repro.core.frontend`).
    """

    num_people: int = 34
    num_female: int = 6
    trials_per_person: int = 40
    population_seed: int = 0
    recorder_seed: int = 0
    condition: RecordingCondition = NOMINAL
    device: IMUDevice = MPU9250
    max_axes: int = 6
    segment_offsets: tuple[int, ...] = (0,)
    frontend: str = "spectral"

    def __post_init__(self) -> None:
        if self.trials_per_person <= 0:
            raise ConfigError("trials_per_person must be positive")
        if not 1 <= self.max_axes <= 6:
            raise ConfigError("max_axes must lie in 1..6")
        if not self.segment_offsets:
            raise ConfigError("segment_offsets must not be empty")
        if self.frontend not in FRONTEND_KINDS:
            raise ConfigError(f"frontend must be one of {FRONTEND_KINDS}")

    def cache_key(self) -> str:
        """Stable string identifying the generated arrays."""
        cond = self.condition.describe()
        offs = ",".join(str(o) for o in self.segment_offsets)
        return (
            f"p{self.num_people}f{self.num_female}t{self.trials_per_person}"
            f"ps{self.population_seed}rs{self.recorder_seed}"
            f"c{cond}d{self.device.name}a{self.max_axes}o{offs}fe{self.frontend}"
        )


@dataclasses.dataclass
class SynthDataset:
    """Aligned preprocessed arrays for one campaign.

    Attributes:
        signal_arrays: ``(B, 6, n)`` preprocessed signal arrays.
        features: ``(B, 2, 6, W)`` front-end outputs (extractor inputs).
        labels: ``(B,)`` dense person indices aligned with ``profiles``.
        trial_ids: ``(B,)`` recording index each segment was cut from
            (several segments may share a recording when the spec uses
            multiple offsets).
        profiles: the population (index = label).
        dropped: recordings rejected by preprocessing, per person.
    """

    signal_arrays: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    trial_ids: np.ndarray
    profiles: list[PersonProfile]
    dropped: dict[str, int]

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def subset_people(self, person_indices: list[int]) -> "SynthDataset":
        """Restrict to the given people, relabelling densely."""
        person_indices = list(person_indices)
        index_map = {old: new for new, old in enumerate(person_indices)}
        mask = np.isin(self.labels, person_indices)
        new_labels = np.array([index_map[l] for l in self.labels[mask]])
        return SynthDataset(
            signal_arrays=self.signal_arrays[mask],
            features=self.features[mask],
            labels=new_labels,
            trial_ids=self.trial_ids[mask],
            profiles=[self.profiles[i] for i in person_indices],
            dropped={
                p.person_id: self.dropped.get(p.person_id, 0)
                for p in (self.profiles[i] for i in person_indices)
            },
        )


def generate_recordings(
    spec: DatasetSpec,
    sampling: SamplingConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, list[PersonProfile]]:
    """Raw recordings ``(B, n, 6)`` with labels, before preprocessing."""
    profiles = sample_population(
        spec.num_people, spec.num_female, seed=spec.population_seed
    )
    recorder = Recorder(
        device=spec.device, sampling=sampling, seed=spec.recorder_seed
    )
    all_recordings = []
    labels = []
    for idx, person in enumerate(profiles):
        session = recorder.record_session(
            person, spec.trials_per_person, condition=spec.condition
        )
        all_recordings.append(session)
        labels.extend([idx] * spec.trials_per_person)
    return np.concatenate(all_recordings), np.array(labels), profiles


def _mask_axes(signal_arrays: np.ndarray, max_axes: int) -> np.ndarray:
    """Zero out axes beyond ``max_axes`` (the Fig. 11a ablation)."""
    if max_axes >= 6:
        return signal_arrays
    out = signal_arrays.copy()
    out[:, max_axes:, :] = 0.0
    return out


def preprocess_at_offsets(
    recording: np.ndarray,
    preprocess: PreprocessConfig,
    offsets: tuple[int, ...],
    sos: np.ndarray,
) -> list[np.ndarray]:
    """Cut one preprocessed signal array per in-range offset.

    Raises:
        repro.errors.SignalError: if no onset is found or no offset
            leaves room for a full segment.
    """
    onset = detect_onset(recording, preprocess)
    out = []
    for offset in offsets:
        start = onset + offset
        if start < 0 or start + preprocess.segment_length > recording.shape[0]:
            continue
        segments = segment_after_onset(recording, start, preprocess.segment_length)
        despiked = np.stack(
            [
                replace_outliers(segments[axis], threshold=preprocess.mad_threshold)
                for axis in range(NUM_AXES)
            ]
        )
        filtered = sosfilt(sos, despiked)
        out.append(min_max_normalize(filtered, axis=-1))
    if not out:
        from repro.errors import SegmentTooShortError

        raise SegmentTooShortError("no offset left room for a full segment")
    return out


def generate_dataset(
    spec: DatasetSpec,
    preprocess: PreprocessConfig | None = None,
    sampling: SamplingConfig | None = None,
) -> SynthDataset:
    """Full campaign: record, preprocess at offsets, apply the front end.

    Recordings whose vibration cannot be detected are dropped and
    counted in ``dropped`` (the paper's prototype simply re-prompts the
    user in that case).
    """
    preprocess = preprocess or PreprocessConfig()
    recordings, labels, profiles = generate_recordings(spec, sampling)
    sos = design_highpass(
        HIGHPASS_ORDER, preprocess.highpass_cutoff_hz, SAMPLE_RATE_HZ
    )
    frontend = make_frontend(spec.frontend)

    kept_signals: list[np.ndarray] = []
    kept_labels: list[int] = []
    kept_trials: list[int] = []
    dropped: dict[str, int] = {}
    for trial_id, (recording, label) in enumerate(zip(recordings, labels)):
        try:
            arrays = preprocess_at_offsets(
                recording, preprocess, spec.segment_offsets, sos
            )
        except SignalError:
            pid = profiles[label].person_id
            dropped[pid] = dropped.get(pid, 0) + 1
            continue
        kept_signals.extend(arrays)
        kept_labels.extend([label] * len(arrays))
        kept_trials.extend([trial_id] * len(arrays))

    if kept_signals:
        signal_arrays = _mask_axes(np.stack(kept_signals), spec.max_axes)
        features = frontend.transform_batch(signal_arrays)
    else:
        width = frontend.width(preprocess.segment_length)
        signal_arrays = np.empty((0, NUM_AXES, preprocess.segment_length))
        features = np.empty((0, 2, NUM_AXES, width))
    return SynthDataset(
        signal_arrays=signal_arrays,
        features=features,
        labels=np.array(kept_labels, dtype=np.int64),
        trial_ids=np.array(kept_trials, dtype=np.int64),
        profiles=profiles,
        dropped=dropped,
    )
