"""Early-exit cascaded inference (DESIGN.md §4k).

Clear-cut probes exit on a cheap stage-1 score; borderline probes pay
the full extractor.  The routing itself lives in
:func:`repro.core.verification.verify_batch`; this package holds its
parts:

* :mod:`repro.cascade.stage1` — the per-user gate producing scores
  from the Section V-A statistical features
  (:mod:`repro.cascade.features`);
* :mod:`repro.cascade.policy` — the ``(t_accept, t_reject)`` exit band
  plus deterministic audit sampling.

Outside the serving path, and so not imported here:

* :mod:`repro.cascade.calibrate` — held-out threshold sweeps with
  pinned FAR/FRR deltas versus the full pipeline;
* :mod:`repro.cascade.bench` — the speed-vs-quality benchmark behind
  ``python -m repro cascade-bench``.
"""

from repro.cascade.policy import (
    ROUTE_ACCEPT,
    ROUTE_BORDERLINE,
    ROUTE_FORCED,
    ROUTE_REJECT,
    ExitPolicy,
)
from repro.cascade.stage1 import Stage1Gate, Stage1Reference

__all__ = [
    "ExitPolicy",
    "ROUTE_ACCEPT",
    "ROUTE_BORDERLINE",
    "ROUTE_FORCED",
    "ROUTE_REJECT",
    "Stage1Gate",
    "Stage1Reference",
]
