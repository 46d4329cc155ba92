"""Signal analysis: F0 estimation, autocorrelation, envelopes.

The autocorrelation F0 estimator powers the impersonation attacker's
'listening' step in extended experiments and the analysis examples.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, ShapeError


def autocorrelation(signal: np.ndarray, max_lag: int | None = None) -> np.ndarray:
    """Biased autocorrelation for lags ``0..max_lag`` (FFT-based)."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ShapeError("autocorrelation expects a 1-D signal")
    if signal.size == 0:
        raise ShapeError("empty signal")
    n = signal.size
    max_lag = n - 1 if max_lag is None else max_lag
    if not 0 <= max_lag < n:
        raise ConfigError("max_lag must lie in [0, n)")
    centered = signal - signal.mean()
    size = int(2 ** np.ceil(np.log2(2 * n)))
    spectrum = np.fft.rfft(centered, size)
    acf = np.fft.irfft(spectrum * np.conj(spectrum), size)[: max_lag + 1]
    return acf / n


def estimate_f0(
    signal: np.ndarray,
    sample_rate_hz: float,
    f0_min_hz: float = 60.0,
    f0_max_hz: float = 400.0,
) -> float | None:
    """Autocorrelation pitch estimate; None when no clear period exists.

    Searches the lag range corresponding to ``[f0_min, f0_max]`` for the
    autocorrelation peak and refines it by parabolic interpolation.
    A peak weaker than 30 % of the zero-lag energy is treated as
    unvoiced.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if sample_rate_hz <= 0:
        raise ConfigError("sample_rate_hz must be positive")
    if not 0 < f0_min_hz < f0_max_hz:
        raise ConfigError("need 0 < f0_min < f0_max")
    lag_min = max(int(np.floor(sample_rate_hz / f0_max_hz)), 1)
    lag_max = int(np.ceil(sample_rate_hz / f0_min_hz))
    if lag_max >= signal.size:
        raise ShapeError("signal too short for the requested f0 range")
    acf = autocorrelation(signal, max_lag=lag_max)
    if acf[0] <= 0.0:
        return None
    segment = acf[lag_min : lag_max + 1]
    best = float(segment.max())
    if best < 0.3 * acf[0]:
        return None
    # Subharmonic suppression: a true period of T also peaks at 2T, 3T
    # ... and bin quantisation can make a multiple edge out the
    # fundamental.  Among *local maxima* within 10 % of the global
    # maximum, take the smallest lag.
    interior = segment[1:-1]
    is_peak = (interior >= segment[:-2]) & (interior >= segment[2:])
    local_max = np.flatnonzero(is_peak & (interior >= 0.9 * best)) + 1
    if local_max.size:
        peak = int(local_max[0]) + lag_min
    else:
        peak = int(np.argmax(segment)) + lag_min
    # Parabolic refinement around the peak lag.
    if 1 <= peak < lag_max:
        left, mid, right = acf[peak - 1], acf[peak], acf[peak + 1]
        denom = left - 2.0 * mid + right
        delta = 0.5 * (left - right) / denom if abs(denom) > 1e-12 else 0.0
        delta = float(np.clip(delta, -0.5, 0.5))
    else:
        delta = 0.0
    return float(sample_rate_hz / (peak + delta))


def envelope(signal: np.ndarray, window: int = 10) -> np.ndarray:
    """Moving-RMS amplitude envelope (same length, edge-padded)."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ShapeError("envelope expects a 1-D signal")
    if window <= 0:
        raise ConfigError("window must be positive")
    padded = np.pad(signal**2, (window // 2, window - window // 2 - 1), mode="edge")
    kernel = np.ones(window) / window
    return np.sqrt(np.convolve(padded, kernel, mode="valid"))
