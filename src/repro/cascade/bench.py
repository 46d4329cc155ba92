"""The cascade benchmark behind ``python -m repro cascade-bench``.

Measures, on one substrate, everything the cascade claims
(DESIGN.md §4k):

* **decision quality** — FAR/FRR of the cascade versus the full
  pipeline on held-out labelled probes, with the one-sided deltas
  pinned against the configured epsilons;
* **speed** — per-probe wall time of ``verify_many`` with the cascade
  enabled versus the ``full_pipeline=True`` bypass (best-of repeats on
  identical batches), plus the component costs that explain the ratio;
* **accounting** — the ``cascade_exits_total`` counters must cover
  100 % of the evaluated probes.

The substrate is a *server-class* extractor (wide channels at the
bit-compatible float64 default compute dtype) so stage 2 dominates the
per-probe budget — the regime the cascade targets; on a microcontroller
-class extractor the shared preprocessing floor caps the achievable
speedup, and the report carries the component costs so that reading is
honest.  The extractor is untrained (deterministically seeded):
decisions are meaningless biometrics but every measured code path is
the production one, and the synthetic population still separates under
the stage-1 features, which is all the sweep machinery needs.

The report lands in ``BENCH_cascade.json``.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.cascade.calibrate import CascadeCalibration, calibrate_cascade
from repro.config import (
    CascadeConfig,
    ExtractorConfig,
    MandiPassConfig,
    SecurityConfig,
)
from repro.obs import runtime as obs

#: Decision-quality bound the bench pins (one-sided FAR/FRR increase).
BENCH_EPSILON = 0.05


def _build_cascade_system(num_users: int = 4):
    """A cascade-enabled system on the server-class bench substrate."""
    from repro.core.extractor import TwoBranchExtractor
    from repro.core.system import MandiPass

    extractor_config = ExtractorConfig(channels=(64, 128, 256))
    config = MandiPassConfig(
        extractor=extractor_config,
        security=SecurityConfig(matrix_seed=1),
        cascade=CascadeConfig(
            enabled=True,
            epsilon_far=BENCH_EPSILON,
            epsilon_frr=BENCH_EPSILON,
        ),
    )
    model = TwoBranchExtractor(
        extractor_config, num_classes=num_users, seed=0
    ).eval()
    return MandiPass(model, config=config)


def _probe_sets(num_genuine: int, num_impostor: int, offset: int, num_users: int = 4):
    """Deterministic (enroll, genuine, impostor) recording pools."""
    from repro.imu import Recorder
    from repro.physio import sample_population

    population = sample_population(num_users, 1, seed=0)
    recorder = Recorder(seed=1)
    enroll = [recorder.record(population[0], trial_index=i) for i in range(4)]
    genuine = [
        recorder.record(population[0], trial_index=offset + i)
        for i in range(num_genuine)
    ]
    impostor = [
        recorder.record(
            population[1 + i % (num_users - 1)], trial_index=offset + i
        )
        for i in range(num_impostor)
    ]
    return enroll, genuine, impostor


def _error_rates(results, labels) -> tuple[float, float]:
    accepted = np.array([r.accepted for r in results])
    genuine = np.asarray(labels)
    impostors = ~genuine
    far = float(accepted[impostors].mean()) if impostors.any() else 0.0
    frr = float((~accepted[genuine]).mean()) if genuine.any() else 0.0
    return far, frr


def _time_verify(system, user_id, probes, repeats, full_pipeline) -> float:
    """Best-of-``repeats`` per-probe wall time of one verify batch."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        system.verify_many(user_id, probes, full_pipeline=full_pipeline)
        best = min(best, time.perf_counter() - start)
    return best / len(probes)


def _sweep_rows(calibration: CascadeCalibration, limit: int = 8) -> list[dict]:
    """The speed-vs-EER curve: best exit fraction per delta budget."""
    rows = []
    for point in sorted(calibration.points, key=lambda p: -p.exit_fraction):
        rows.append(dataclasses.asdict(point))
    return rows[:limit]


def run_cascade_bench(
    quick: bool = False, output: str | Path | None = None
) -> dict:
    """Run the full cascade benchmark suite; returns the report dict."""
    num_cal_genuine = 12 if quick else 24
    num_cal_impostor = 18 if quick else 36
    num_eval_genuine = 16 if quick else 32
    num_eval_impostor = 24 if quick else 48
    repeats = 2 if quick else 5
    grid_size = 6 if quick else 10

    enroll, cal_genuine, cal_impostor = _probe_sets(
        num_cal_genuine, num_cal_impostor, offset=10
    )
    _, eval_genuine, eval_impostor = _probe_sets(
        num_eval_genuine, num_eval_impostor, offset=200
    )
    eval_probes = eval_genuine + eval_impostor
    eval_labels = [True] * len(eval_genuine) + [False] * len(eval_impostor)

    system = _build_cascade_system()
    system.enroll("bench", enroll)
    calibration = calibrate_cascade(
        system, "bench", cal_genuine, cal_impostor, grid_size=grid_size
    )
    system.retune_cascade(calibration.t_accept, calibration.t_reject)

    # Warm both paths (im2col workspaces, eval caches, lazy state).
    system.verify_many("bench", eval_probes[:4])
    system.verify_many("bench", eval_probes[:4], full_pipeline=True)

    with obs.collecting() as registry:
        cascade_results = system.verify_many("bench", eval_probes)
        snapshot = registry.to_dict()
    full_results = system.verify_many("bench", eval_probes, full_pipeline=True)

    far, frr = _error_rates(cascade_results, eval_labels)
    full_far, full_frr = _error_rates(full_results, eval_labels)
    agreement = float(
        np.mean(
            [
                c.accepted == f.accepted
                for c, f in zip(cascade_results, full_results)
            ]
        )
    )
    exits = _exit_counters(snapshot)
    cascade_ms = 1e3 * _time_verify(
        system, "bench", eval_probes, repeats, full_pipeline=False
    )
    full_ms = 1e3 * _time_verify(
        system, "bench", eval_probes, repeats, full_pipeline=True
    )
    operating = {
        "calibration": {
            "t_accept": calibration.t_accept,
            "t_reject": calibration.t_reject,
            "feasible": calibration.feasible,
            "exit_fraction": calibration.exit_fraction,
            "full_far": calibration.full_far,
            "full_frr": calibration.full_frr,
            "sweep": _sweep_rows(calibration),
        },
        "eval": {
            "far": far,
            "frr": frr,
            "full_far": full_far,
            "full_frr": full_frr,
            "far_delta": max(0.0, far - full_far),
            "frr_delta": max(0.0, frr - full_frr),
            "decision_agreement": agreement,
            "exits": exits,
            "exits_accounted": sum(exits.values()) == len(eval_probes),
        },
        "timing": {
            "cascade_ms_per_probe": cascade_ms,
            "full_ms_per_probe": full_ms,
            "speedup": full_ms / cascade_ms if cascade_ms else float("nan"),
            "repeats": repeats,
        },
    }

    report = {
        "quick": quick,
        "machine": {"python": platform.python_version(), "platform": sys.platform},
        "substrate": {
            "channels": [64, 128, 256],
            "embedding_dim": 512,
            "compute_dtype": "float64",
            "eval_probes": len(eval_probes),
            "epsilon": BENCH_EPSILON,
        },
        "modes": {"features": operating},
        "claims": {
            "operating_mode": "features",
            "speedup": operating["timing"]["speedup"],
            "speedup_at_least_2x": operating["timing"]["speedup"] >= 2.0,
            "far_delta_within_epsilon": operating["eval"]["far_delta"]
            <= BENCH_EPSILON,
            "frr_delta_within_epsilon": operating["eval"]["frr_delta"]
            <= BENCH_EPSILON,
            "exits_accounted": operating["eval"]["exits_accounted"],
        },
    }
    if output is not None:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
    return report


def _exit_counters(snapshot: dict) -> dict[str, int]:
    """``stage -> count`` from the ``cascade_exits_total`` series."""
    exits: dict[str, int] = {}
    for key, value in snapshot.get("counters", {}).items():
        if key.startswith("cascade_exits_total{stage="):
            stage = key.split('stage="', 1)[1].rstrip('"}')
            exits[stage] = int(value)
    return exits
