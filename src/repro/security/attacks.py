"""Attacker models for the security assessment (Sections VI-A, VII-G).

Each attacker produces what it can actually obtain under the paper's
threat model:

* **Zero-effort** -- steals the earphone but does not know a vibration
  is required: submits silent wear (no 'EMM'), so no onset exists.
* **Vibration-aware** -- knows the principle and voices 'EMM' with their
  *own* mandible.  That is an ordinary impostor trial
  (:meth:`~repro.imu.recorder.Recorder.record` of the attacker), so it
  needs no class of its own.
* **Impersonation** -- additionally observed the victim and mimics the
  observable voicing manner (F0, rhythm, pulse shape) with bounded
  fidelity; the mandible biomechanics (m, c1, c2, k1, k2) are not
  observable and remain the attacker's own.
* **Replay** -- exfiltrated the sealed cancelable template and presents
  it directly, bypassing the sensor.
"""

from __future__ import annotations

import zlib

import dataclasses

import numpy as np

from repro.errors import ConfigError
from repro.imu.recorder import Recorder
from repro.physio.conditions import NOMINAL
from repro.physio.person import PersonProfile
from repro.types import RawRecording


class ZeroEffortAttacker:
    """Wears the stolen earphone without voicing anything.

    The recording contains sensor noise, gravity and (optionally) some
    head motion -- but no mandible vibration event.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def forge_recording(
        self, attacker: PersonProfile, trial_index: int = 0
    ) -> RawRecording:
        """A silent recording: the voice never starts."""
        sensor = self.recorder.sensor
        cfg = sensor.sampling
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [zlib.crc32(attacker.person_id.encode()), trial_index]
            )
        )
        # Gravity + device noise only: exactly what the IMU sees when a
        # silent wearer hopes the earphone unlocks by itself.
        counts = np.zeros((1, cfg.num_samples, 6))
        gravity = 9.80665 * np.array([0.25, -0.30, 0.92])
        gravity /= np.linalg.norm(gravity) / 9.80665
        counts[0, :, :3] = gravity * sensor.device.accel_sensitivity
        return sensor._apply_device_model(counts, rng)[0]


class ImpersonationAttacker:
    """Mimics the victim's observable voicing manner.

    The attacker can hear the victim's F0 and rhythm and adapt their
    voicing to it, with a residual error (an untrained speaker cannot
    match a pitch target exactly).  The mandible biomechanics stay the
    attacker's own -- they are intracorporal and unobservable, which is
    the paper's core security argument.

    Args:
        recorder: acquisition channel.
        mimicry_error: fractional std of the attacker's F0/habit error
            relative to the victim's values (0 = perfect voice mimicry).
            The default, ~6 %, is about one semitone -- the accuracy an
            untrained imitator reaches when matching a heard pitch.
    """

    def __init__(self, recorder: Recorder, mimicry_error: float = 0.06) -> None:
        if mimicry_error < 0:
            raise ConfigError("mimicry_error must be non-negative")
        self.recorder = recorder
        self.mimicry_error = mimicry_error

    def mimic_profile(
        self,
        attacker: PersonProfile,
        victim: PersonProfile,
        rng: np.random.Generator,
    ) -> PersonProfile:
        """Attacker's anatomy with the victim's (noisily copied) habits."""
        def noisy(value: float) -> float:
            return float(value * np.exp(rng.normal(0.0, self.mimicry_error)))

        return dataclasses.replace(
            attacker,
            f0_hz=float(np.clip(noisy(victim.f0_hz), 40.0, 400.0)),
            duty_cycle=float(np.clip(noisy(victim.duty_cycle), 0.2, 0.8)),
            open_quotient=float(np.clip(noisy(victim.open_quotient), 0.3, 0.9)),
            harmonic_tilt=victim.harmonic_tilt,
        )

    def forge_recording(
        self,
        attacker: PersonProfile,
        victim: PersonProfile,
        trial_index: int = 0,
    ) -> RawRecording:
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [
                    zlib.crc32(f"{attacker.person_id}>{victim.person_id}".encode()),
                    trial_index,
                ]
            )
        )
        mimic = self.mimic_profile(attacker, victim, rng)
        return self.recorder.record(mimic, NOMINAL, trial_index=trial_index)


class ReplayAttacker:
    """Presents a stolen cancelable template directly.

    ``steal`` models the exfiltration (outside the enclave's control);
    the stolen vector is whatever transform was in force at theft time.
    After the user renews their Gaussian matrix, the stolen vector no
    longer matches the re-enrolled template.
    """

    def __init__(self) -> None:
        self._stolen: dict[str, np.ndarray] = {}

    def steal(self, user_id: str, template: np.ndarray) -> None:
        self._stolen[user_id] = np.asarray(template, dtype=np.float64).copy()

    def stolen_template(self, user_id: str) -> np.ndarray:
        if user_id not in self._stolen:
            raise ConfigError(f"no stolen template for {user_id!r}")
        return self._stolen[user_id]

    def has_stolen(self, user_id: str) -> bool:
        return user_id in self._stolen
