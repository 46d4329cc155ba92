"""Glottal 'EMM' voice source.

The forcing that drives the mandible oscillator comes from the larynx.
We model it as a Rosenberg-style glottal pulse train at the person's
fundamental frequency, with:

* the person's *open quotient* shaping each pulse (a speaking habit the
  paper argues is stable after puberty),
* spectral tilt applied through pulse smoothness,
* per-trial jitter (cycle-length perturbation) and shimmer (amplitude
  perturbation) representing natural trial-to-trial variation,
* an attack-sustain-release envelope for the short 'EMM' utterance,
* optional tone changes (Fig. 14): HIGH raises F0 by ~12 % (two
  semitones), LOW lowers it by ~10 % -- the range of unconscious tone
  drift during a short hum (people hum near their habitual pitch).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ConfigError
from repro.physio.person import PersonProfile
from repro.types import Tone

_TONE_FACTOR = {Tone.NORMAL: 1.0, Tone.HIGH: 1.12, Tone.LOW: 0.90}


def rosenberg_pulse(phase: np.ndarray, open_quotient: float) -> np.ndarray:
    """Evaluate a Rosenberg glottal pulse at phases in ``[0, 1)``.

    The pulse rises as ``0.5 * (1 - cos(pi * p / oq))`` during the
    opening two-thirds of the open phase, falls as a quarter cosine in
    the closing third, and is zero in the closed phase.  Output lies in
    ``[0, 1]``.
    """
    if not 0.0 < open_quotient < 1.0:
        raise ConfigError("open_quotient must lie in (0, 1)")
    phase = np.asarray(phase, dtype=np.float64)
    rise_end = open_quotient * (2.0 / 3.0)
    out = np.zeros_like(phase)
    rising = phase < rise_end
    out[rising] = 0.5 * (1.0 - np.cos(np.pi * phase[rising] / rise_end))
    falling = (phase >= rise_end) & (phase < open_quotient)
    fall_phase = (phase[falling] - rise_end) / (open_quotient - rise_end)
    out[falling] = np.cos(0.5 * np.pi * fall_phase)
    return out


@dataclasses.dataclass(frozen=True)
class VoiceSource:
    """Synthesises the forcing waveform for one 'EMM' utterance.

    Attributes:
        person: whose vocal habits to use.
        tone: deliberate tone change (Fig. 14), default NORMAL.
        jitter: cycle-to-cycle F0 perturbation (fractional std).
        shimmer: cycle-to-cycle amplitude perturbation (fractional std).
        attack_s: envelope attack time.
        release_s: envelope release time.
    """

    person: PersonProfile
    tone: Tone = Tone.NORMAL
    jitter: float = 0.006
    shimmer: float = 0.025
    attack_s: float = 0.04
    release_s: float = 0.05

    def __post_init__(self) -> None:
        if self.jitter < 0 or self.shimmer < 0:
            raise ConfigError("jitter and shimmer must be non-negative")
        if self.attack_s < 0 or self.release_s < 0:
            raise ConfigError("envelope times must be non-negative")

    def effective_f0(self) -> float:
        """Fundamental frequency after the tone change is applied."""
        return self.person.f0_hz * _TONE_FACTOR[self.tone]

    def synthesize(
        self,
        duration_s: float,
        rate_hz: float,
        rng: np.random.Generator,
        onset_s: float = 0.0,
        voiced_s: float | None = None,
    ) -> np.ndarray:
        """Generate the pulse waveform, silent before ``onset_s``.

        Returns an array of length ``round(duration_s * rate_hz)`` whose
        values lie in ``[0, ~1]`` before the person's force amplitudes
        are applied by the oscillator.
        """
        waveform, _ = self.synthesize_with_phase(
            duration_s, rate_hz, rng, onset_s, voiced_s
        )
        return waveform

    def synthesize_with_phase(
        self,
        duration_s: float,
        rate_hz: float,
        rng: np.random.Generator,
        onset_s: float = 0.0,
        voiced_s: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generate the pulse waveform and its vocal-cycle phase.

        The phase array (values in ``[0, 1)``) lets the oscillator split
        each cycle into positive- and negative-direction forcing by the
        person's duty cycle.

        ``voiced_s`` bounds how long voicing lasts after the onset;
        ``None`` (the historical behaviour, bit-for-bit) sustains it to
        the end of the trial.  A shorter utterance leaves a silent tail
        where only the cardiac channel remains (DESIGN.md §4l).

        Returns:
            ``(waveform, cycle_phase)``, both of length
            ``round(duration_s * rate_hz)``.
        """
        from scipy.signal import lfilter

        if duration_s <= 0 or rate_hz <= 0:
            raise ConfigError("duration and rate must be positive")
        if voiced_s is not None and voiced_s <= 0:
            raise ConfigError("voiced_s must be positive when given")
        num = int(round(duration_s * rate_hz))
        dt = 1.0 / rate_hz
        f0 = self.effective_f0()
        voiced_end_s = (
            duration_s
            if voiced_s is None
            else min(onset_s + voiced_s, duration_s)
        )

        # Integrate instantaneous frequency with per-cycle jitter: draw a
        # smooth jitter track by low-pass-filtering white noise at ~F0.
        jitter_track = rng.normal(0.0, self.jitter, size=num)
        # One-pole smoothing with a time constant of one vocal cycle.
        alpha = float(np.clip(dt * f0, 0.0, 1.0))
        smooth = lfilter([alpha], [1.0, alpha - 1.0], jitter_track)
        inst_freq = f0 * (1.0 + smooth)
        # Voicing *starts* at the onset: the first glottal pulse opens at
        # phase zero there.  (Integrating from the start of the recording
        # would randomise the cycle phase at the utterance, which no
        # larynx does.)
        onset_idx = min(int(round(onset_s / dt)), num)
        inst_freq[:onset_idx] = 0.0
        if voiced_end_s < duration_s:
            # The larynx stops cycling when the utterance ends; the
            # phase freezes and the envelope below silences the rest.
            end_idx = min(int(round(voiced_end_s / dt)), num)
            inst_freq[end_idx:] = 0.0
        phase = np.cumsum(inst_freq) * dt
        cycle_phase = np.mod(phase, 1.0)

        pulses = rosenberg_pulse(cycle_phase, self.person.open_quotient)

        # Spectral tilt: softened pulses for darker voices.  Implemented
        # as repeated two-point smoothing, stronger for larger |tilt|.
        smooth_passes = int(round(max(0.0, -self.person.harmonic_tilt) / 3.0))
        for _ in range(smooth_passes):
            pulses = 0.5 * pulses + 0.5 * np.concatenate(([pulses[0]], pulses[:-1]))

        # Glottal closure transient: the vocal folds snap shut once per
        # cycle, a broadband impulse that rings the mandible's resonant
        # modes (this is what makes the resonance visible in the received
        # spectrum, not just the harmonic comb).  The negative slope of
        # the pulse is concentrated at closure; its magnitude, scaled by
        # the person's closure sharpness, is the transient component.
        slope = np.gradient(pulses) / (dt * max(f0, 1.0))
        closure = np.maximum(-slope, 0.0)
        pulses = pulses + self.person.closure_sharpness * closure

        # Aspiration noise: turbulent airflow through the partially open
        # glottis adds a broadband component, gated by the open phase of
        # each cycle.  Unlike the periodic pulses (a line spectrum that
        # only *samples* the mandible's transfer function at harmonics),
        # this noise excites every frequency, so the received spectrum
        # carries the full resonance envelope -- the person's
        # biomechanics -- between the harmonics.
        open_gate = (cycle_phase < self.person.open_quotient).astype(np.float64)
        aspiration = (
            self.person.breathiness
            * open_gate
            * rng.normal(0.0, 1.0, size=num)
        )
        pulses = pulses + aspiration

        # Shimmer: per-cycle amplitude factor, indexed by cycle number.
        cycle_index = np.floor(phase).astype(int)
        num_cycles = int(cycle_index.max()) + 1 if num else 0
        cycle_amp = 1.0 + rng.normal(0.0, self.shimmer, size=max(num_cycles, 1))
        pulses = pulses * cycle_amp[np.clip(cycle_index, 0, num_cycles - 1)]

        envelope = self._envelope(num, dt, onset_s, voiced_end_s)
        return pulses * envelope, cycle_phase

    def _envelope(
        self, num: int, dt: float, onset_s: float, voiced_end_s: float
    ) -> np.ndarray:
        """Attack-sustain-release envelope over ``[onset_s, voiced_end_s]``."""
        t = np.arange(num) * dt
        env = np.zeros(num)
        voiced = t >= onset_s
        rel_t = t[voiced] - onset_s
        attack = np.clip(rel_t / max(self.attack_s, dt), 0.0, 1.0)
        tail = voiced_end_s - onset_s - rel_t
        release = np.clip(tail / max(self.release_s, dt), 0.0, 1.0)
        env[voiced] = np.minimum(attack, release)
        return env
