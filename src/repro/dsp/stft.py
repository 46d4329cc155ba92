"""Short-time Fourier analysis.

Used by the analysis examples and by researchers inspecting what the
front end sees; the authentication pipeline itself uses single-segment
spectra (:mod:`repro.core.frontend`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.dsp.spectral import hann_window


def window_function(name: str, length: int) -> np.ndarray:
    """Named analysis windows: hann, hamming, blackman, rectangular."""
    if length <= 0:
        raise ConfigError("length must be positive")
    n = np.arange(length)
    if name == "hann":
        return hann_window(length)
    if name == "hamming":
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / length)
    if name == "blackman":
        return (
            0.42
            - 0.5 * np.cos(2.0 * np.pi * n / length)
            + 0.08 * np.cos(4.0 * np.pi * n / length)
        )
    if name == "rectangular":
        return np.ones(length)
    raise ConfigError(f"unknown window {name!r}")


def stft(
    signal: np.ndarray,
    frame_length: int = 64,
    hop: int = 16,
    window: str = "hann",
) -> np.ndarray:
    """Complex short-time Fourier transform, ``(num_frames, bins)``.

    Frames that would run past the end of the signal are dropped
    (no padding): authentication segments are short and explicit.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ShapeError("stft expects a 1-D signal")
    if frame_length <= 0 or hop <= 0:
        raise ConfigError("frame_length and hop must be positive")
    if signal.size < frame_length:
        raise ShapeError("signal shorter than one frame")
    win = window_function(window, frame_length)
    num_frames = 1 + (signal.size - frame_length) // hop
    frames = np.stack(
        [signal[i * hop : i * hop + frame_length] * win for i in range(num_frames)]
    )
    return np.fft.rfft(frames, axis=1)


def spectrogram(
    signal: np.ndarray,
    sample_rate_hz: float,
    frame_length: int = 64,
    hop: int = 16,
    window: str = "hann",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Power spectrogram with axes.

    Returns:
        ``(times_s, freqs_hz, power)`` with ``power`` shaped
        ``(num_frames, bins)``.
    """
    if sample_rate_hz <= 0:
        raise ConfigError("sample_rate_hz must be positive")
    transform = stft(signal, frame_length, hop, window)
    power = np.abs(transform) ** 2
    times = (np.arange(power.shape[0]) * hop + frame_length / 2.0) / sample_rate_hz
    freqs = np.fft.rfftfreq(frame_length, d=1.0 / sample_rate_hz)
    return times, freqs, power
