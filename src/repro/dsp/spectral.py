"""Spectral analysis helpers.

Used by the feasibility experiments (vibration band content, the
tissue/bone path comparison).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, ShapeError


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window."""
    if length <= 0:
        raise ConfigError("length must be positive")
    if length == 1:
        return np.ones(1)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


def periodogram(
    signal: np.ndarray, sample_rate_hz: float, window: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided power spectral density estimate.

    Returns:
        ``(freqs_hz, psd)`` with PSD in signal-units^2 per Hz.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ShapeError("periodogram() expects a 1-D signal")
    if sample_rate_hz <= 0:
        raise ConfigError("sample_rate_hz must be positive")
    n = signal.size
    if n == 0:
        raise ShapeError("empty signal")
    if window:
        win = hann_window(n)
        scale = 1.0 / (sample_rate_hz * np.sum(win**2))
        spectrum = np.fft.rfft(signal * win)
    else:
        scale = 1.0 / (sample_rate_hz * n)
        spectrum = np.fft.rfft(signal)
    psd = scale * np.abs(spectrum) ** 2
    # One-sided correction (all bins except DC and Nyquist).
    if n % 2 == 0:
        psd[1:-1] *= 2.0
    else:
        psd[1:] *= 2.0
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)
    return freqs, psd


def dominant_frequency(signal: np.ndarray, sample_rate_hz: float) -> float:
    """Frequency of the strongest non-DC spectral peak."""
    freqs, psd = periodogram(signal, sample_rate_hz)
    if psd.size < 2:
        raise ShapeError("signal too short for a spectrum")
    idx = int(np.argmax(psd[1:])) + 1
    return float(freqs[idx])
