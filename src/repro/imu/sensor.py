"""The sampling front-end: continuous body vibration to raw IMU counts.

``IMUSensor`` composes the physiological substrate (voice source,
mandible oscillator, propagation model) into the 6-axis waveform an
earphone IMU observes, then applies the device model (noise, bias,
spikes, quantisation, saturation) to produce raw counts.

Signal composition at the ear, per trial:

* **mandible-borne component** -- the oscillator's acceleration,
  attenuated by the bone path, projected through the person's
  ``accel_coupling`` vector;
* **tissue-borne component** -- the source (throat) acceleration,
  attenuated by the longer soft-tissue path and mechanically low-passed,
  projected through ``tissue_coupling``;
* **gyroscope response** -- mandible velocity divided by the lever arm
  to the ear, projected through ``gyro_coupling``;
* **gravity** -- projected onto the accelerometer axes with small
  per-trial head-tilt variation (this is why different axes start at
  different offsets, the paper's Fig. 5(b));
* **body motion** -- the condition's walk/run waveform;
* **mounting jitter** -- a small random rotation per trial (re-seating
  the earbud never reproduces the exact orientation).
"""

from __future__ import annotations

import numpy as np

from repro.config import INTERNAL_RATE_HZ, SAMPLE_RATE_HZ, SamplingConfig
from repro.errors import ConfigError
from repro.imu import noise as imu_noise
from repro.imu.device import IMUDevice
from repro.physio.conditions import (
    RecordingCondition,
    coupling_gain,
    motion_noise,
    perturb_person,
    sensor_frame_transform,
)
from repro.physio.person import PersonProfile
from repro.physio.propagation import BodyLocation, PropagationModel
from repro.physio.vibration import MandibleOscillator
from repro.physio.voice import VoiceSource

_G = 9.80665

# Whole-trial mandible acceleration RMS (m/s^2) that loudness
# self-regulation steers every speaker towards.
_REFERENCE_ACC_RMS = 1.0


def _small_rotation(rng: np.random.Generator, std_deg: float) -> np.ndarray:
    """Random rotation matrix with per-axis angles ~ N(0, std_deg)."""
    ax, ay, az = np.radians(rng.normal(0.0, std_deg, size=3))
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


def _one_pole_lowpass(signal: np.ndarray, cutoff_hz: float, rate_hz: float) -> np.ndarray:
    """First-order low-pass, matching soft tissue's mechanical filtering."""
    from scipy.signal import lfilter

    alpha = float(np.clip(2.0 * np.pi * cutoff_hz / rate_hz, 0.0, 1.0))
    return lfilter([alpha], [1.0, alpha - 1.0], signal)


def _peaking_biquad(
    f0_hz: float, q: float, gain_db: float, rate_hz: float
) -> tuple[np.ndarray, np.ndarray]:
    """Audio-EQ-cookbook peaking filter (negative gain_db cuts)."""
    amp = 10.0 ** (gain_db / 40.0)
    w0 = 2.0 * np.pi * f0_hz / rate_hz
    alpha = np.sin(w0) / (2.0 * q)
    b = np.array([1.0 + alpha * amp, -2.0 * np.cos(w0), 1.0 - alpha * amp])
    a = np.array([1.0 + alpha / amp, -2.0 * np.cos(w0), 1.0 - alpha / amp])
    return b / a[0], a / a[0]


def _ear_coupling_filter(
    signal: np.ndarray, person: PersonProfile, rate_hz: float
) -> np.ndarray:
    """The person's mechanical coupling response at the earbud.

    A cascade of three biquads: the ear-coupling resonance (concha /
    tragus tissue + seal -- the anatomy ear-canal biometrics like
    EarEcho exploit), the mandible's second vibration mode (real
    mandibles ring in several modes, not just the one-DOF fundamental),
    and an anti-resonance notch of the jaw/ear structure.  All centre
    frequencies, Qs and heights are stable per-person anatomy; together
    they give two people with coincidentally equal vocal F0 clearly
    different harmonic-amplitude envelopes.  Applied along the last
    axis.
    """
    from scipy.signal import lfilter

    stages = (
        _peaking_biquad(
            person.ear_resonance_hz,
            person.ear_resonance_q,
            person.ear_resonance_gain_db,
            rate_hz,
        ),
        _peaking_biquad(person.mode2_hz, person.mode2_q, person.mode2_gain_db, rate_hz),
        _peaking_biquad(person.notch_hz, person.notch_q, -person.notch_depth_db, rate_hz),
    )
    out = signal
    for b, a in stages:
        out = lfilter(b, a, out, axis=-1)
    return out


class IMUSensor:
    """Synthesises raw 6-axis recordings for one device profile.

    Args:
        device: the IMU part to emulate (MPU-9250 by default profiles).
        propagation: body propagation model.
        sampling: trial duration and utterance length.
        amplitude_scale: global physical-amplitude calibration mapping
            oscillator output to m/s^2 at the ear.  The default is tuned
            so the ear-mounted az standard deviation sits near the
            paper's Fig. 1(d) value (~760 raw counts).
        mounting_jitter_deg: std of the per-trial re-seating rotation.
        gyro_lever_arm_m: distance converting mandible linear velocity
            into an angular rate at the ear.
    """

    def __init__(
        self,
        device: IMUDevice,
        propagation: PropagationModel | None = None,
        sampling: SamplingConfig | None = None,
        amplitude_scale: float = 4.5,
        mounting_jitter_deg: float = 1.2,
        gyro_lever_arm_m: float = 0.10,
    ) -> None:
        if amplitude_scale <= 0:
            raise ConfigError("amplitude_scale must be positive")
        if gyro_lever_arm_m <= 0:
            raise ConfigError("gyro_lever_arm_m must be positive")
        self.device = device
        self.propagation = propagation or PropagationModel()
        self.sampling = sampling or SamplingConfig()
        self.amplitude_scale = amplitude_scale
        self.mounting_jitter_deg = mounting_jitter_deg
        self.gyro_lever_arm_m = gyro_lever_arm_m

    # ------------------------------------------------------------------
    # physiological synthesis
    # ------------------------------------------------------------------

    def _simulate_trials(
        self,
        person: PersonProfile,
        condition: RecordingCondition,
        num_trials: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run voice + oscillator for a batch of trials.

        Returns ``(source_acc, mandible_acc, mandible_vel)``, each of
        shape ``(num_trials, T_internal)`` in m/s^2 (or m/s).
        """
        cfg = self.sampling
        steps = int(round(cfg.duration_s * INTERNAL_RATE_HZ))
        effective = perturb_person(person, condition, rng)
        oscillator = MandibleOscillator(effective)
        voice = VoiceSource(effective, tone=condition.tone)

        forcing = np.empty((num_trials, steps))
        for trial in range(num_trials):
            onset = float(rng.uniform(0.10, 0.25))
            pulses, phase = voice.synthesize_with_phase(
                cfg.duration_s,
                INTERNAL_RATE_HZ,
                rng,
                onset_s=onset,
                voiced_s=cfg.utterance_s,
            )
            forcing[trial] = oscillator.signed_forcing(pulses, phase)
            # Trial-level effort variation: people do not voice at the
            # exact same loudness twice.
            forcing[trial] *= float(rng.uniform(0.92, 1.08))

        _, vel, acc = oscillator.simulate_batch(forcing, INTERNAL_RATE_HZ)
        source_acc = forcing / effective.mass

        # Loudness self-regulation: speakers regulate perceived effort,
        # so a person whose mandible resonates near their F0 does not
        # vibrate an order of magnitude harder than everyone else.  The
        # oscillator is positively homogeneous (scaling the force scales
        # the whole trajectory), so post-scaling is exact.  One factor
        # per batch preserves trial-level effort variation, and the
        # exponent < 1 keeps a residual amplitude biometric.
        # The ear-coupling resonance shapes everything arriving at the
        # earbud, whichever way the sensor is oriented.
        acc = _ear_coupling_filter(acc, effective, INTERNAL_RATE_HZ)
        vel = _ear_coupling_filter(vel, effective, INTERNAL_RATE_HZ)
        # Anchor on the *filtered* response: that is the vibration the
        # wearer's proprioception (and loudness feedback) senses.
        rms = float(np.sqrt(np.mean(acc**2)))
        compensation = (_REFERENCE_ACC_RMS / max(rms, 1e-12)) ** 0.85
        return source_acc * compensation, acc * compensation, vel * compensation

    def capture_batch(
        self,
        person: PersonProfile,
        condition: RecordingCondition,
        num_trials: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Record ``num_trials`` trials at the ear.

        Returns:
            Raw counts of shape ``(num_trials, num_samples, 6)`` with
            columns ``ax, ay, az, gx, gy, gz``.
        """
        if num_trials <= 0:
            raise ConfigError("num_trials must be positive")
        cfg = self.sampling
        source_acc, mand_acc, mand_vel = self._simulate_trials(
            person, condition, num_trials, rng
        )

        ear_gain = self.propagation.gain_to(BodyLocation.EAR)
        tissue_gain = self.propagation.direct_tissue_gain()
        frame = sensor_frame_transform(condition)
        side_gain = coupling_gain(person, condition)

        out = np.empty((num_trials, cfg.num_samples, 6))
        for trial in range(num_trials):
            tissue = _one_pole_lowpass(
                source_acc[trial], self.propagation.tissue_lowpass_hz, INTERNAL_RATE_HZ
            )
            accel = self.amplitude_scale * side_gain * (
                ear_gain * mand_acc[trial][:, None] * person.accel_coupling
                + person.tissue_gain * tissue_gain * tissue[:, None] * person.tissue_coupling
            )
            # Jaw rotation at the ear mixes the velocity response with a
            # rotational-acceleration component; the per-axis mix is a
            # stable anatomical signature independent of vocal F0.
            vel_part = mand_vel[trial][:, None] * person.gyro_coupling
            vel_rms = float(np.sqrt(np.mean(mand_vel[trial] ** 2))) or 1.0
            acc_rms = float(np.sqrt(np.mean(mand_acc[trial] ** 2))) or 1.0
            acc_part = (
                (vel_rms / acc_rms)
                * mand_acc[trial][:, None]
                * person.gyro_coupling2
            )
            gyro = (
                self.amplitude_scale
                * side_gain
                * person.gyro_gain
                / self.gyro_lever_arm_m
                * ear_gain
                * (vel_part + acc_part)
            )
            jitter = _small_rotation(rng, self.mounting_jitter_deg)
            transform = frame @ jitter
            accel = accel @ transform.T
            gyro = gyro @ transform.T

            # Gravity with small per-trial head tilt.
            tilt = _small_rotation(rng, 3.0)
            gravity_dir = transform @ tilt @ np.array([0.25, -0.30, 0.92])
            gravity_dir /= np.linalg.norm(gravity_dir)
            accel = accel + _G * gravity_dir

            accel_s = self._decimate(accel)
            gyro_s = self._decimate(gyro)
            motion = motion_noise(condition, cfg.num_samples, SAMPLE_RATE_HZ, rng)
            accel_s = accel_s + motion
            gyro_s = gyro_s + 0.05 * motion / self.gyro_lever_arm_m

            out[trial, :, :3] = accel_s * self.device.accel_sensitivity
            out[trial, :, 3:] = gyro_s * self.device.gyro_sensitivity

        return self._apply_device_model(out, rng)

    def capture_at_location(
        self,
        person: PersonProfile,
        location: BodyLocation,
        rng: np.random.Generator,
        condition: RecordingCondition | None = None,
    ) -> np.ndarray:
        """Record one trial with the IMU taped to ``location`` (Fig. 1).

        At the throat the IMU sees the source vibration directly; at the
        mandible and ear it sees the oscillator output attenuated by the
        propagation path.

        Returns:
            Raw counts of shape ``(num_samples, 6)``.
        """
        condition = condition or RecordingCondition()
        cfg = self.sampling
        source_acc, mand_acc, mand_vel = self._simulate_trials(
            person, condition, 1, rng
        )
        gain = self.propagation.gain_to(location)
        if location is BodyLocation.THROAT:
            # The throat IMU sits directly on the larynx; anchor the
            # source RMS to the same self-regulated reference so the
            # throat/mandible/ear ratios follow the path gains alone.
            # The anchor is computed on the *decimated* waveform: the
            # raw larynx source is rich above the IMU's Nyquist, and an
            # anchor at the internal rate would lose most of its energy
            # in the sampling front-end.
            src = source_acc[0]
            sampled = self._decimate(src[:, None])[:, 0]
            src_rms = float(np.sqrt(np.mean(sampled**2)))
            base_acc = src * (_REFERENCE_ACC_RMS / max(src_rms, 1e-12))
            base_vel = _one_pole_lowpass(base_acc, 50.0, INTERNAL_RATE_HZ)
        else:
            base_acc = mand_acc[0] * gain
            base_vel = mand_vel[0] * gain

        accel = self.amplitude_scale * base_acc[:, None] * person.accel_coupling
        gyro = (
            self.amplitude_scale
            * person.gyro_gain
            / self.gyro_lever_arm_m
            * base_vel[:, None]
            * person.gyro_coupling
        )
        jitter = _small_rotation(rng, self.mounting_jitter_deg)
        accel = accel @ jitter.T + _G * np.array([0.0, 0.0, 1.0])
        gyro = gyro @ jitter.T

        out = np.empty((1, cfg.num_samples, 6))
        out[0, :, :3] = self._decimate(accel) * self.device.accel_sensitivity
        out[0, :, 3:] = self._decimate(gyro) * self.device.gyro_sensitivity
        return self._apply_device_model(out, rng)[0]

    # ------------------------------------------------------------------
    # device model
    # ------------------------------------------------------------------

    def _decimate(self, signal: np.ndarray) -> np.ndarray:
        """Block-mean decimation from the internal rate to the ODR."""
        over = self.sampling.oversample
        num = self.sampling.num_samples
        trimmed = signal[: num * over]
        return trimmed.reshape(num, over, -1).mean(axis=1)

    def _apply_device_model(
        self, counts: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Add noise/bias/spikes, then quantise and saturate."""
        dev = self.device
        num_trials, num_samples, _ = counts.shape
        out = counts.copy()
        for trial in range(num_trials):
            accel = out[trial, :, :3]
            gyro = out[trial, :, 3:]
            accel += imu_noise.white_noise(accel.shape, dev.accel_noise_counts, rng)
            gyro += imu_noise.white_noise(gyro.shape, dev.gyro_noise_counts, rng)
            accel += imu_noise.static_bias(3, dev.accel_bias_counts, rng)
            gyro += imu_noise.static_bias(3, dev.gyro_bias_counts, rng)
            accel += imu_noise.bias_random_walk(
                num_samples, 3, dev.bias_walk_counts, rng
            )
            gyro += imu_noise.bias_random_walk(
                num_samples, 3, dev.bias_walk_counts, rng
            )
            merged = np.concatenate([accel, gyro], axis=1)
            merged = imu_noise.inject_spikes(
                merged, dev.spike_probability, dev.spike_magnitude_counts, rng
            )
            out[trial] = merged
        if dev.quantize:
            out = imu_noise.quantize(out)
        return imu_noise.saturate(out, dev.full_scale_counts)
