"""Exit policy: route stage-1 scores into accept / reject / stage 2.

The policy is a pure band rule plus one piece of deliberate state, the
audit-sampling counter.  Scores are distance-like (lower = more
genuine), and the band ``(t_accept, t_reject)`` partitions them:

* ``score <= t_accept``  — clear genuine, exit as a stage-1 accept;
* ``score > t_reject``   — clear impostor, exit as a stage-1 reject;
* in between             — borderline, pay the full extractor.

:func:`band_routes` is that rule, shared by :meth:`ExitPolicy.route`
and the calibration sweep.  The reject edge is exclusive, so a
degenerate band (``t_accept == t_reject``) is a plain threshold.

Widening the band (lower ``t_accept``, higher ``t_reject``) is
*monotone*: it can only move probes out of the exit regions into the
borderline band, never flip a surviving exit or change what stage 2
decides about a probe that was already borderline — the property the
hypothesis suite pins.

``forced_full_fraction`` implements audit sampling deterministically:
a monotone probe counter forces every probe whose index crosses a
fractional stride boundary through stage 2 (route
:data:`ROUTE_FORCED`), so a deployment continuously measures stage-1
agreement on live traffic without any randomness (decisions stay a
pure function of arrival order).
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np

from repro.config import CascadeConfig

#: Route codes returned by :meth:`ExitPolicy.route`.
ROUTE_BORDERLINE = 0
ROUTE_ACCEPT = 1
ROUTE_REJECT = 2
ROUTE_FORCED = 3


def band_routes(
    scores: np.ndarray, t_accept: float, t_reject: float
) -> np.ndarray:
    """The exit band rule: ``(K,)`` accept / reject / borderline codes."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.where(
        scores <= t_accept,
        ROUTE_ACCEPT,
        np.where(scores > t_reject, ROUTE_REJECT, ROUTE_BORDERLINE),
    ).astype(np.int64)


class ExitPolicy:
    """CascadeConfig-driven router from stage-1 scores to exits.

    Thread-safe: scoring entry points run concurrently from serving
    workers, so the audit counter is advanced under a lock (one slab
    of indices per batch — the forced pattern is a pure function of
    the global probe order, independent of batch splits).
    """

    def __init__(self, config: CascadeConfig) -> None:
        self.config = config
        self._lock = threading.Lock()
        self._probes_seen = 0

    @property
    def t_accept(self) -> float:
        return self.config.t_accept

    @property
    def t_reject(self) -> float:
        return self.config.t_reject

    def retune(self, t_accept: float, t_reject: float) -> CascadeConfig:
        """Install a freshly calibrated exit band (validated).

        Threshold sweeps and recalibration against template drift
        should not force re-enrollment, so the band is the one mutable
        knob; ``dataclasses.replace`` re-runs the config validation,
        so an inverted band is rejected here exactly as at
        construction.  Callers serialize against in-flight scoring
        (the facade retunes under its write lock).
        """
        self.config = dataclasses.replace(
            self.config, t_accept=t_accept, t_reject=t_reject
        )
        return self.config

    def route(self, scores: np.ndarray) -> np.ndarray:
        """Route one batch of stage-1 scores; ``(K,)`` route codes.

        :func:`band_routes` under the installed band; forced-full audit
        sampling overrides it.
        """
        config = self.config
        routes = band_routes(scores, config.t_accept, config.t_reject)
        fraction = config.forced_full_fraction
        if fraction > 0.0 and routes.size:
            with self._lock:
                counts = self._probes_seen + np.arange(routes.size)
                self._probes_seen += routes.size
            forced = np.floor((counts + 1) * fraction) > np.floor(counts * fraction)
            routes[forced] = ROUTE_FORCED
        return routes
