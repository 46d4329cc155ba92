"""Deterministic fault injection for the serving stack.

The paper's deployment target — earphone IMUs feeding an on-device
authenticator — lives with sensor dropouts, saturated samples and
flaky compute as the *normal* operating regime.  This package makes
those conditions reproducible on demand:

* :class:`~repro.faults.plan.FaultPlan` /
  :class:`~repro.faults.plan.FaultRule` — seeded, budgeted fault
  schedules (data, not behaviour);
* :mod:`~repro.faults.runtime` — the process-wide hook layer the
  instrumented production modules call; inert by default (one global
  read + one branch per fault point, mirroring the obs null-registry
  pattern);
* :mod:`~repro.faults.chaos` — randomized seeded chaos schedules and
  the outcome-accounting report behind the chaos test suite and the
  soak benchmark (``FAULTS_QUICK=1 PYTHONPATH=src python -m pytest
  benchmarks/test_chaos_soak.py``; imported lazily, it drags in the
  serving substrate).

See DESIGN.md §4g for the fault-point table and the degraded-outcome
contract.
"""

from repro.faults.plan import CONTROL_KINDS, CORRUPTION_KINDS, FaultPlan, FaultRule
from repro.faults.runtime import (
    clear,
    corrupt_recording,
    corrupt_recordings,
    get_plan,
    install,
    maybe_delay,
    maybe_fail,
    should_reject,
)

__all__ = [
    "CONTROL_KINDS",
    "CORRUPTION_KINDS",
    "FaultPlan",
    "FaultRule",
    "clear",
    "corrupt_recording",
    "corrupt_recordings",
    "get_plan",
    "install",
    "maybe_delay",
    "maybe_fail",
    "should_reject",
]
