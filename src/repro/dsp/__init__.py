"""Signal-processing substrate implementing Section IV of the paper.

Modules:

* :mod:`repro.dsp.detection` -- vibration onset detection,
* :mod:`repro.dsp.outliers` -- MAD outlier detection and mean replacement,
* :mod:`repro.dsp.filters` -- from-scratch Butterworth design + filtering,
* :mod:`repro.dsp.normalize` -- min-max / z-score normalisation,
* :mod:`repro.dsp.gradients` -- gradients, sign split, interpolation,
* :mod:`repro.dsp.pipeline` -- the full preprocessing pipeline.

Analysis helpers used by examples, tests and benchmarks, not by the
pipeline, are imported from their modules: :mod:`repro.dsp.windows`
(sliding-window framing and statistics), :mod:`repro.dsp.spectral`
(FFT spectra), :mod:`repro.dsp.stft` (short-time transforms) and
:mod:`repro.dsp.analysis` (envelopes, pitch, resampling).
"""

from repro.dsp.detection import detect_onset
from repro.dsp.filters import (
    design_bandpass,
    design_highpass,
    design_lowpass,
    highpass,
    sosfilt,
)
from repro.dsp.gradients import gradient_array, signal_gradients
from repro.dsp.normalize import min_max_normalize, z_score_normalize
from repro.dsp.outliers import mad_outlier_mask, replace_outliers
from repro.dsp.pipeline import Preprocessor

__all__ = [
    "Preprocessor",
    "design_bandpass",
    "design_highpass",
    "design_lowpass",
    "detect_onset",
    "gradient_array",
    "highpass",
    "mad_outlier_mask",
    "min_max_normalize",
    "replace_outliers",
    "signal_gradients",
    "sosfilt",
    "z_score_normalize",
]
