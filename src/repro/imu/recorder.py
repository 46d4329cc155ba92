"""Trial recorder: the experiment-facing acquisition API.

``Recorder`` wraps :class:`~repro.imu.sensor.IMUSensor` with the
bookkeeping every experiment needs: stable per-(person, condition)
random streams, single-trial and session capture, and Fig. 1-style
multi-location capture.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.config import SamplingConfig
from repro.errors import ConfigError
from repro.faults import runtime as faults
from repro.imu.device import IMUDevice, MPU9250
from repro.imu.sensor import IMUSensor
from repro.physio.conditions import NOMINAL, RecordingCondition
from repro.physio.person import PersonProfile
from repro.physio.propagation import BodyLocation, PropagationModel
from repro.types import RawRecording


class Recorder:
    """Records raw IMU trials for people under conditions.

    Args:
        device: IMU part to emulate; defaults to the paper's MPU-9250.
        sampling: acquisition configuration.
        propagation: body propagation model.
        seed: base seed; combined with person id and condition so that
            the same (seed, person, condition) always yields the same
            session, while different people get independent streams.
    """

    def __init__(
        self,
        device: IMUDevice = MPU9250,
        sampling: SamplingConfig | None = None,
        propagation: PropagationModel | None = None,
        seed: int = 0,
        amplitude_scale: float = 4.5,
    ) -> None:
        self.sampling = sampling or SamplingConfig()
        self.sensor = IMUSensor(
            device,
            propagation=propagation,
            sampling=self.sampling,
            amplitude_scale=amplitude_scale,
        )
        self.seed = seed

    @property
    def device(self) -> IMUDevice:
        return self.sensor.device

    def _rng(
        self, person: PersonProfile, condition: RecordingCondition, salt: int = 0
    ) -> np.random.Generator:
        """Deterministic stream per (seed, person, condition, salt).

        Uses a stable string hash: Python's built-in ``hash`` is
        randomised per process and would make recordings irreproducible
        across runs.
        """
        key = f"{self.seed}|{person.person_id}|{condition.describe()}|{salt}"
        digest = zlib.crc32(key.encode("utf-8"))
        seed_seq = np.random.SeedSequence([self.seed, digest, salt])
        return np.random.default_rng(seed_seq)

    def record(
        self,
        person: PersonProfile,
        condition: RecordingCondition = NOMINAL,
        trial_index: int = 0,
    ) -> RawRecording:
        """Record a single trial; ``trial_index`` varies the randomness.

        With a :class:`repro.faults.FaultPlan` installed, ``"imu"``
        corruption rules (dropout / NaN burst / clipping) apply to the
        captured recording exactly as they would to live sensor data.
        """
        rng = self._rng(person, condition, salt=trial_index)
        batch = self.sensor.capture_batch(person, condition, 1, rng)
        return faults.corrupt_recording(batch[0])

    def record_session(
        self,
        person: PersonProfile,
        num_trials: int,
        condition: RecordingCondition = NOMINAL,
        session_index: int = 0,
    ) -> np.ndarray:
        """Record ``num_trials`` trials, shape ``(num_trials, n, 6)``."""
        if num_trials <= 0:
            raise ConfigError("num_trials must be positive")
        rng = self._rng(person, condition, salt=10_000 + session_index)
        return self.sensor.capture_batch(person, condition, num_trials, rng)

    def record_at_location(
        self,
        person: PersonProfile,
        location: BodyLocation,
        trial_index: int = 0,
    ) -> RawRecording:
        """Record one trial with the IMU taped to a body location (Fig. 1)."""
        rng = self._rng(person, NOMINAL, salt=20_000 + trial_index)
        return self.sensor.capture_at_location(person, location, rng)
