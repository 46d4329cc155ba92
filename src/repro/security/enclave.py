"""Simulated secure enclave.

The paper stores the cancelable MandiblePrint template in the
earphone's secure enclave.  This stand-in provides the properties the
experiments rely on: sealed slots addressed by user id, explicit
authorisation for reads, revocation, and an audit log so tests can
assert that no unauthorised access happened.  (It is a *functional*
model -- the threat model where it matters is the replay experiment,
where the attacker is assumed to have somehow exfiltrated a template.)
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.errors import EnclaveSealedError, SecurityError, TemplateRevokedError


@dataclasses.dataclass(frozen=True)
class EnclaveRecord:
    """One sealed template slot."""

    user_id: str
    template: np.ndarray
    transform_seed: int
    revoked: bool = False


@dataclasses.dataclass(frozen=True)
class AuditEntry:
    """One access to the enclave, for the audit log."""

    timestamp: float
    operation: str
    user_id: str
    authorized: bool


class SecureEnclave:
    """Sealed template store with an audit trail."""

    def __init__(self) -> None:
        self._slots: dict[str, EnclaveRecord] = {}
        self._audit: list[AuditEntry] = []

    def _log(self, operation: str, user_id: str, authorized: bool) -> None:
        self._audit.append(
            AuditEntry(
                timestamp=time.monotonic(),
                operation=operation,
                user_id=user_id,
                authorized=authorized,
            )
        )

    def seal(
        self, user_id: str, template: np.ndarray, transform_seed: int
    ) -> None:
        """Store (or replace) a user's cancelable template.

        Raises:
            repro.errors.SecurityError: the template is not finite; a
                NaN template would score every probe as a match.
        """
        template = np.asarray(template, dtype=np.float64).copy()
        if not np.isfinite(template).all():
            raise SecurityError(
                f"refusing to seal a non-finite template for {user_id!r}"
            )
        template.setflags(write=False)
        self._slots[user_id] = EnclaveRecord(
            user_id=user_id, template=template, transform_seed=transform_seed
        )
        self._log("seal", user_id, authorized=True)

    def unseal(self, user_id: str, authorized: bool = True) -> EnclaveRecord:
        """Read a slot; unauthorised reads raise and are logged.

        Raises:
            repro.errors.EnclaveSealedError: unknown user or not authorised.
            repro.errors.TemplateRevokedError: slot was revoked.
        """
        self._log("unseal", user_id, authorized)
        if not authorized:
            raise EnclaveSealedError(
                f"unauthorised access to enclave slot {user_id!r}"
            )
        record = self._slots.get(user_id)
        if record is None:
            raise EnclaveSealedError(f"no template sealed for {user_id!r}")
        if record.revoked:
            raise TemplateRevokedError(f"template for {user_id!r} was revoked")
        return record

    def revoke(self, user_id: str) -> None:
        """Mark a slot revoked (stolen template response, Section VI)."""
        record = self._slots.get(user_id)
        if record is None:
            raise EnclaveSealedError(f"no template sealed for {user_id!r}")
        self._slots[user_id] = dataclasses.replace(record, revoked=True)
        self._log("revoke", user_id, authorized=True)

    def contains(self, user_id: str) -> bool:
        return user_id in self._slots

    def audit_log(self) -> list[AuditEntry]:
        return list(self._audit)

    def template_nbytes(self, user_id: str) -> int:
        """Storage of one sealed template (float32 on device)."""
        record = self.unseal(user_id)
        return record.template.size * 4
