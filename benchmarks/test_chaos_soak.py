"""Chaos soak: hundreds of randomized fault schedules against serving.

Drives :func:`repro.faults.chaos.run_campaign` — the same campaign
behind ``python -m repro chaos`` — over many seeded schedules and
asserts the resilience invariants on every one (DESIGN.md §4g):

* the server never deadlocks: every submitted request resolves;
* accounting is exactly-once: the per-status tallies partition the
  request count, no future settles twice;
* no wrong accept: a silent (all-zero) probe is never accepted, no
  matter which faults fired around it;
* full recovery: once the plan deactivates, verify decisions match the
  pre-chaos baseline bitwise.

``FAULTS_QUICK=1`` runs a 25-seed smoke (the CI job); the full soak
covers 200 seeds.  Results land in ``BENCH_chaos.json`` at the repo
root; quick mode writes ``BENCH_chaos.quick.json`` instead, so a smoke
never overwrites the full-mode file.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path

from repro.faults.chaos import run_campaign

from conftest import once

QUICK = os.environ.get("FAULTS_QUICK", "") == "1"
RESULTS_PATH = Path(__file__).resolve().parents[1] / (
    "BENCH_chaos.quick.json" if QUICK else "BENCH_chaos.json"
)
NUM_SEEDS = 25 if QUICK else 200


def test_chaos_soak(benchmark):
    reports = once(
        benchmark,
        lambda: run_campaign(range(NUM_SEEDS), num_requests=18),
    )
    assert len(reports) == NUM_SEEDS

    statuses: Counter = Counter()
    fires: Counter = Counter()
    unhealthy = []
    for report in reports:
        statuses.update(report.statuses)
        fires.update(report.fault_fires)
        if not report.healthy:
            unhealthy.append(report.seed)
        # Spell the invariants out per-schedule so a red run names the
        # seed and the broken property, not just "unhealthy".
        assert report.unresolved == 0, f"seed {report.seed} deadlocked"
        assert report.accounted, f"seed {report.seed} lost request accounting"
        assert report.false_accepts == 0, f"seed {report.seed} wrongly accepted"
        assert report.recovered_parity, f"seed {report.seed} did not recover"

    assert not unhealthy
    # The randomized plans must actually exercise the fault surface:
    # across this many seeds every rule template fires somewhere.
    assert fires, "no faults fired across the whole campaign"
    points_hit = {key.split("/")[0] for key in fires}
    assert {"imu", "serve.worker", "serve.queue"} <= points_hit

    payload = {
        "quick": QUICK,
        "num_seeds": NUM_SEEDS,
        "requests_per_schedule": 18,
        "statuses": dict(statuses),
        "fault_fires": dict(sorted(fires.items())),
        "unhealthy_seeds": unhealthy,
        "schedules": [report.to_dict() for report in reports],
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(
        f"chaos soak ({'quick' if QUICK else 'full'}): {NUM_SEEDS} seeds, "
        f"statuses {dict(statuses)}, "
        f"{sum(fires.values())} fault fires over {len(fires)} point/kinds, "
        f"0 deadlocks, 0 false accepts, all recovered"
    )
