"""Physiological substrate: mandible vibration synthesis.

This package substitutes for the paper's self-collected earphone IMU
data.  It implements the paper's own feasibility model (Section II):

* a per-person one-degree-of-freedom mandible oscillator with
  direction-dependent damping (:mod:`repro.physio.vibration`),
* a glottal pulse-train 'EMM' voice source (:mod:`repro.physio.voice`),
* throat -> mandible -> ear propagation with exponential attenuation
  (:mod:`repro.physio.propagation`),
* per-person anatomical parameters and reproducible population sampling
  (:mod:`repro.physio.person`, :mod:`repro.physio.population`),
* recording conditions: activities, food, tone, orientation, ear side,
  long-term drift (:mod:`repro.physio.conditions`).
"""

from repro.physio.conditions import RecordingCondition
from repro.physio.person import PersonProfile
from repro.physio.population import sample_population
from repro.physio.propagation import BodyLocation, PropagationModel
from repro.physio.vibration import MandibleOscillator
from repro.physio.voice import VoiceSource

__all__ = [
    "BodyLocation",
    "MandibleOscillator",
    "PersonProfile",
    "PropagationModel",
    "RecordingCondition",
    "VoiceSource",
    "sample_population",
]
