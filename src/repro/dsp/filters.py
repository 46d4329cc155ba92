"""Butterworth filter design and filtering, built from first principles.

The paper removes body-motion low-frequency components with a high-pass
four-order Butterworth filter cut off at 20 Hz (Section IV).  This
module implements the complete design chain rather than delegating to
scipy -- analog prototype poles, frequency transformation, bilinear
transform with prewarping, and second-order-section (biquad) assembly --
plus a direct-form-II-transposed ``sosfilt``.  The test suite
cross-validates both design and filtering against ``scipy.signal``.

Only even orders are supported (2..8); the paper uses order 4.

**The filtering kernel.**  :func:`cascade` runs the biquad recursion on
Python floats, one lane (one row of ``signal.reshape(-1, n)``) at a
time, two sections per pass: each sample goes through a pair of
sections with both sections' registers held in locals, and an odd last
section runs the single-section body.  Each update is the same IEEE
double arithmetic, in the same order, as an elementwise numpy step, so
the output is bitwise what a numpy loop over samples gives; it just
skips the per-sample numpy call overhead on 3-6 element arrays that
dominated a B=1 request.  The onset detector's pad priming and pushes
and every stream push run this one kernel: they carry registers across
chunks of any length, and their outputs must not depend on the
chunking.  On a 2-CPU Xeon with one BLAS thread the paper's order-4
filter (two sections) takes about 0.12 ms on a ``(3, 130)`` detection
block.  ``scipy.signal.sosfilt`` is as fast and also bitwise, but
importing ``scipy.signal`` costs a serving process 76 MB of resident
memory and 1.65 s of start-up, so the DSP stays scipy-free.

**The segment filter is a matmul.**  A cut segment always has the same
``n`` samples and is filtered from rest, so the cascade is one fixed
linear map: :func:`zero_state_response` builds its ``(n, n)`` matrix
once and the pipeline applies it as ``segments @ response``.
On the same machine (Python 3.11.7, numpy 2.4.6 with scipy-openblas
0.3.31; minimum of seven timing runs) a ``(1, 6, 60)`` stack takes
3.7 us instead of the recursion's 169 us, and a ``(64, 6, 60)`` stack
0.09 ms instead of 10.2 ms.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError, ShapeError


def butterworth_prototype_poles(order: int) -> np.ndarray:
    """Poles of the normalised (wc = 1) analog Butterworth low-pass.

    The poles sit on the left half of the unit circle at angles
    ``pi * (2k - 1) / (2n) + pi/2`` for ``k = 1..n``.
    """
    if order <= 0:
        raise ConfigError("order must be positive")
    k = np.arange(1, order + 1)
    theta = np.pi * (2.0 * k - 1.0) / (2.0 * order) + np.pi / 2.0
    return np.exp(1j * theta)


def _prewarp(cutoff_hz: float, sample_rate_hz: float) -> float:
    """Map the digital cutoff onto the analog axis for the bilinear step."""
    if not 0.0 < cutoff_hz < sample_rate_hz / 2.0:
        raise ConfigError("cutoff must lie strictly inside (0, Nyquist)")
    return 2.0 * sample_rate_hz * np.tan(np.pi * cutoff_hz / sample_rate_hz)


def _bilinear_zpk(
    zeros: np.ndarray,
    poles: np.ndarray,
    gain: float,
    sample_rate_hz: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Bilinear transform of an analog zpk system to the z-domain."""
    fs2 = 2.0 * sample_rate_hz
    digital_zeros = (fs2 + zeros) / (fs2 - zeros)
    digital_poles = (fs2 + poles) / (fs2 - poles)
    # Degree deficit: each missing analog zero maps to z = -1.
    deficit = len(poles) - len(zeros)
    if deficit < 0:
        raise ConfigError("more zeros than poles in analog prototype")
    digital_zeros = np.concatenate([digital_zeros, -np.ones(deficit)])
    num = np.prod(fs2 - zeros) if len(zeros) else 1.0
    den = np.prod(fs2 - poles)
    digital_gain = float(np.real(gain * num / den))
    return digital_zeros, digital_poles, digital_gain


def _pair_conjugates(roots: np.ndarray) -> list[tuple[complex, complex]]:
    """Group roots into conjugate (or real) pairs for biquad assembly."""
    if len(roots) % 2 != 0:
        raise ConfigError("only even orders are supported")
    remaining = list(roots)
    pairs: list[tuple[complex, complex]] = []
    while remaining:
        root = remaining.pop(0)
        if abs(root.imag) < 1e-12:
            # Real root: pair with the nearest remaining real root.
            reals = [r for r in remaining if abs(r.imag) < 1e-12]
            if not reals:
                raise ConfigError("unpaired real root in filter design")
            mate = min(reals, key=lambda r: abs(r - root))
            remaining.remove(mate)
        else:
            mate = min(remaining, key=lambda r: abs(r - np.conj(root)))
            remaining.remove(mate)
        pairs.append((root, mate))
    return pairs


def _zpk_to_sos(
    zeros: np.ndarray, poles: np.ndarray, gain: float
) -> np.ndarray:
    """Assemble second-order sections; the full gain rides on section 0."""
    zero_pairs = _pair_conjugates(np.asarray(zeros, dtype=complex))
    pole_pairs = _pair_conjugates(np.asarray(poles, dtype=complex))
    if len(zero_pairs) != len(pole_pairs):
        raise ConfigError("zero/pole pair count mismatch")
    sos = np.zeros((len(pole_pairs), 6))
    for idx, ((z1, z2), (p1, p2)) in enumerate(zip(zero_pairs, pole_pairs)):
        b = np.real(np.poly([z1, z2]))
        a = np.real(np.poly([p1, p2]))
        if idx == 0:
            b = b * gain
        sos[idx, :3] = b
        sos[idx, 3:] = a
    return sos


def design_highpass(
    order: int, cutoff_hz: float, sample_rate_hz: float
) -> np.ndarray:
    """Digital Butterworth high-pass as second-order sections ``(n/2, 6)``.

    The analog prototype low-pass is transformed with ``s -> wc / s``:
    poles become ``wc / p_k``, ``order`` zeros appear at the origin, and
    the gain becomes ``1 / prod(-p_k) = 1`` for Butterworth prototypes.
    """
    if order % 2 != 0 or not 2 <= order <= 8:
        raise ConfigError("order must be even, in 2..8")
    wc = _prewarp(cutoff_hz, sample_rate_hz)
    prototype = butterworth_prototype_poles(order)
    poles = wc / prototype
    zeros = np.zeros(order, dtype=complex)
    gain = float(np.real(1.0 / np.prod(-prototype)))
    dz, dp, dk = _bilinear_zpk(zeros, poles, gain, sample_rate_hz)
    return _zpk_to_sos(dz, dp, dk)


Section = tuple[float, float, float, float, float]


def normalized_sections(sos: np.ndarray) -> list[Section]:
    """Per-section ``(b0, b1, b2, a1, a2)`` with ``a0`` divided out.

    This is the one place the coefficient normalisation rule lives:
    divide by ``a0`` only when ``abs(a0 - 1.0) > 1e-12``, via the exact
    expression ``c / a0``.  Both :func:`sosfilt` and the streaming twin
    (:class:`repro.stream.StreamingSOSFilter`) consume this helper, so
    the two paths run on bitwise-identical coefficients by construction.
    The coefficients are returned as Python floats (an exact
    conversion) for the scalar kernel :func:`cascade`.
    """
    sos = np.asarray(sos, dtype=np.float64)
    if sos.ndim != 2 or sos.shape[1] != 6:
        raise ShapeError("sos must be (num_sections, 6)")
    sections = []
    for b0, b1, b2, a0, a1, a2 in sos.tolist():
        if abs(a0 - 1.0) > 1e-12:
            b0, b1, b2, a1, a2 = (c / a0 for c in (b0, b1, b2, a1, a2))
        sections.append((b0, b1, b2, a1, a2))
    return sections


def zero_state(sections: list[Section], lanes: int) -> list[list[float]]:
    """Rest state for :func:`cascade`: ``s1 = s2 = 0`` per lane and section."""
    return [[0.0] * (2 * len(sections)) for _ in range(lanes)]


def cascade(
    sections: list[Section], signal: np.ndarray, state: list[list[float]]
) -> np.ndarray:
    """Run ``signal`` through the biquads along its last axis, lane by lane.

    Lane ``i`` is row ``i`` of ``signal.reshape(-1, n)``, taken as Python
    floats; ``state[i]`` holds its ``[s1, s2]`` registers for each
    section in turn and is updated in place, so a caller that keeps it
    continues the recursion on the next chunk.  Per sample and section
    the update is

        y = b0*x + s1;  s1 = b1*x - a1*y + s2;  s2 = b2*x - a2*y

    which is the same IEEE double arithmetic, in the same order, as an
    elementwise numpy step over the lanes, so the output is bitwise
    what a per-sample numpy loop gives (NaN and inf included).  The
    sections run in pairs, one pass over the lane per pair, the second
    section consuming each ``y`` as soon as the first produces it; an
    odd last section gets a pass of its own.  Running a section (or a
    pair) over the whole lane before the next one gives the same values
    as interleaving them per sample, because section ``j`` at time ``t``
    depends only on section ``j - 1`` up to ``t``; the same argument
    makes any chunking of the time axis with carried ``state`` equal to
    one whole-signal call.
    """
    num = signal.shape[-1]
    if num == 0:
        return np.array(signal, dtype=np.float64)
    rows = signal.reshape(-1, num)
    out = np.empty(rows.shape)
    paired = len(sections) - len(sections) % 2
    for i, (lane, registers) in enumerate(zip(rows.tolist(), state)):
        for j in range(0, paired, 2):
            b0, b1, b2, a1, a2 = sections[j]
            c0, c1, c2, d1, d2 = sections[j + 1]
            s1, s2, t1, t2 = registers[2 * j : 2 * j + 4]
            filtered = []
            append = filtered.append
            for x in lane:
                y = b0 * x + s1
                s1 = b1 * x - a1 * y + s2
                s2 = b2 * x - a2 * y
                z = c0 * y + t1
                t1 = c1 * y - d1 * z + t2
                t2 = c2 * y - d2 * z
                append(z)
            registers[2 * j : 2 * j + 4] = s1, s2, t1, t2
            lane = filtered
        if paired < len(sections):
            b0, b1, b2, a1, a2 = sections[paired]
            s1, s2 = registers[2 * paired], registers[2 * paired + 1]
            filtered = []
            append = filtered.append
            for x in lane:
                y = b0 * x + s1
                s1 = b1 * x - a1 * y + s2
                s2 = b2 * x - a2 * y
                append(y)
            registers[2 * paired], registers[2 * paired + 1] = s1, s2
            lane = filtered
        out[i] = lane
    return out.reshape(signal.shape)


def sosfilt(sos: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Apply cascaded biquads along the last axis (direct form II transposed).

    Accepts any leading batch shape; state is kept per batch element, so
    a ``(6, n)`` signal array filters all six axes in one call.  The
    work is done by the scalar kernel :func:`cascade`; see the module
    docstring for why it is not ``scipy.signal.sosfilt``.

    **Zero-initial-condition contract.**  Every call starts each
    section's two delay registers at exactly ``0.0`` (``s1 = s2 = 0``):
    the filter behaves as if the signal were preceded by infinite
    silence, and the first output sample is ``b0 * x[0]`` through the
    cascade.  Callers that need the filter settled on a DC level (the
    onset detector's gravity-loaded accelerometer) must settle the
    registers themselves — :class:`repro.dsp.detection.OnsetDetector`
    runs a pad of the first sample through :func:`cascade` and keeps
    the registers — because this function never carries state across
    calls.  The streaming twin honours the same contract: a freshly
    constructed (or ``reset()``)
    :class:`repro.stream.StreamingSOSFilter` starts from the same zero
    state, so its first-chunk transient is bitwise identical to this
    function's output on the same samples, and chunked processing with
    carried state is bitwise identical to one whole-signal call (both
    run the same :func:`cascade`, whose section-outer / time-inner order
    commutes with any chunking of the time axis).
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim == 0:
        raise ShapeError("signal must have at least one dimension")
    sections = normalized_sections(sos)
    lanes = math.prod(signal.shape[:-1])
    return cascade(sections, signal, zero_state(sections, lanes))


def zero_state_response(sos: np.ndarray, n: int) -> np.ndarray:
    """The cascade from rest on ``n`` samples, as a read-only ``(n, n)`` matrix.

    Row ``i`` is the response to a unit impulse at sample ``i``, so
    ``signal @ response`` filters the last axis of any ``(..., n)``
    stack the way :func:`sosfilt` does, as one matmul.  A filter that
    starts at rest is time-invariant, so every row is the one impulse
    response shifted right: this builds it from a single :func:`sosfilt`
    call on a unit impulse, and the matrix is bitwise equal to
    ``sosfilt(sos, np.eye(n))`` (the zeros before an impulse leave every
    register at exactly ``0.0``).  The matmul sums each output in a
    different order from the recursion, so it agrees with
    :func:`sosfilt` to rounding, not bitwise; and since a sample
    reaches every output through a multiply (by ``0.0`` before it), a
    NaN or inf anywhere in a lane makes that lane's whole output NaN.
    """
    if n <= 0:
        raise ShapeError("n must be positive")
    impulse = np.zeros(n)
    impulse[0] = 1.0
    h = sosfilt(sos, impulse)
    lag = np.arange(n)[None, :] - np.arange(n)[:, None]
    response = np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0)
    response.flags.writeable = False
    return response


def frequency_response(
    sos: np.ndarray, freqs_hz: np.ndarray, sample_rate_hz: float
) -> np.ndarray:
    """Complex frequency response of a biquad cascade at ``freqs_hz``."""
    sos = np.asarray(sos, dtype=np.float64)
    freqs_hz = np.asarray(freqs_hz, dtype=np.float64)
    z = np.exp(-2j * np.pi * freqs_hz / sample_rate_hz)
    response = np.ones(freqs_hz.shape, dtype=complex)
    for b0, b1, b2, a0, a1, a2 in sos:
        num = b0 + b1 * z + b2 * z**2
        den = a0 + a1 * z + a2 * z**2
        response = response * num / den
    return response
