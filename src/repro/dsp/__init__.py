"""Signal-processing substrate implementing Section IV of the paper.

Modules:

* :mod:`repro.dsp.detection` -- vibration onset detection,
* :mod:`repro.dsp.outliers` -- MAD outlier detection and mean replacement,
* :mod:`repro.dsp.filters` -- from-scratch Butterworth design + filtering,
* :mod:`repro.dsp.normalize` -- min-max normalisation,
* :mod:`repro.dsp.gradients` -- gradients, sign split, interpolation,
* :mod:`repro.dsp.pipeline` -- the full preprocessing pipeline.

Analysis helpers used by examples and benchmarks, not by the
pipeline, are imported from their modules: :mod:`repro.dsp.spectral`
(FFT spectra), :mod:`repro.dsp.stft` (short-time transforms) and
:mod:`repro.dsp.analysis` (envelopes, pitch).
"""

from repro.dsp.detection import detect_onset
from repro.dsp.filters import design_highpass, sosfilt
from repro.dsp.gradients import signal_gradients
from repro.dsp.normalize import min_max_normalize
from repro.dsp.outliers import mad_outlier_mask, replace_outliers
from repro.dsp.pipeline import Preprocessor

__all__ = [
    "Preprocessor",
    "design_highpass",
    "detect_onset",
    "mad_outlier_mask",
    "min_max_normalize",
    "replace_outliers",
    "signal_gradients",
    "sosfilt",
]
