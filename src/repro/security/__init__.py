"""Security layer: cancelable templates, secure enclave, attack models.

Implements Section VI of the paper: the Gaussian-matrix cancelable
transform (:mod:`repro.security.cancelable`) and a functional stand-in
for the earphone's secure enclave (:mod:`repro.security.enclave`).  The
four attacker models of the security assessment
(:mod:`repro.security.attacks`) drive the recording simulator, so they
are not imported here; import them from their module.
"""

from repro.security.cancelable import CancelableTransform
from repro.security.enclave import SecureEnclave

__all__ = [
    "CancelableTransform",
    "SecureEnclave",
]
