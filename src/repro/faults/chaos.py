"""Randomized seeded chaos schedules over the full serving stack.

One *schedule* is: pick a seeded :class:`~repro.faults.plan.FaultPlan`
(:func:`random_plan`), activate it, drive a mixed verify/identify
workload through a live :class:`~repro.serve.server.AuthServer`, and
account for every single request.  The resulting
:class:`ChaosReport` carries the four invariants the chaos suite and
the ``FAULTS_QUICK`` soak benchmark assert:

* **no deadlock** — every future resolves within the watchdog budget;
* **no wrong accept** — a zero-effort (silent) probe is never
  accepted, no matter which faults fired;
* **exactly-once accounting** — terminal statuses partition the
  submitted requests;
* **recovery** — once the plan deactivates, direct verification is
  *bitwise* identical to the pre-chaos baseline (no fault leaves
  residue in the system).

Everything is a pure function of the seed, so a failing schedule
replays from one integer.  Used by ``tests/test_faults_chaos.py``,
``benchmarks/test_chaos_soak.py`` and ``python -m repro chaos``.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Sequence

import numpy as np

from repro.faults.plan import FaultPlan, FaultRule

#: The pool random plans draw from.  Probabilities and fire budgets are
#: tuned so a schedule exercises real failure handling (retries, worker
#: respawn, breaker arming) without degenerating into all-failed runs.
RULE_TEMPLATES: tuple[FaultRule, ...] = (
    FaultRule("imu", "dropout", probability=0.25, max_fires=6),
    FaultRule("imu", "nan", probability=0.25, max_fires=6, fraction=0.3),
    FaultRule("imu", "clip", probability=0.3, max_fires=8),
    FaultRule("engine.preprocess", "error", probability=0.35, max_fires=4),
    FaultRule("engine.frontend", "error", probability=0.35, max_fires=4),
    FaultRule("engine.extractor", "error", probability=0.35, max_fires=4),
    FaultRule(
        "engine.extractor", "delay", probability=0.3, max_fires=4, delay_s=0.002
    ),
    FaultRule("gallery.build", "error", probability=1.0, max_fires=2),
    FaultRule("gallery.shard_build", "error", probability=0.5, max_fires=3),
    FaultRule("gallery.compact", "error", probability=0.5, max_fires=2),
    FaultRule("serve.queue", "reject", probability=0.3, max_fires=5),
    FaultRule("serve.worker", "kill", probability=0.4, max_fires=2),
    FaultRule(
        "serve.worker", "delay", probability=0.3, max_fires=5, delay_s=0.004
    ),
    FaultRule("serve.worker", "error", probability=0.35, max_fires=4),
    FaultRule("stream.push", "error", probability=0.3, max_fires=5),
    FaultRule(
        "stream.push", "delay", probability=0.3, max_fires=5, delay_s=0.002
    ),
)


def random_plan(seed: int, min_rules: int = 2, max_rules: int = 5) -> FaultPlan:
    """A seeded plan with a random subset of :data:`RULE_TEMPLATES`.

    The subset choice and every fire decision downstream derive from
    ``seed`` alone, so two calls with the same seed build plans that
    behave identically call-for-call.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC4A05]))
    count = int(rng.integers(min_rules, max_rules + 1))
    picks = rng.choice(len(RULE_TEMPLATES), size=count, replace=False)
    return FaultPlan(
        [RULE_TEMPLATES[int(i)] for i in sorted(picks)], seed=int(seed)
    )


@dataclasses.dataclass(frozen=True)
class ChaosReport:
    """Outcome accounting for one chaos schedule.

    Attributes:
        seed: the plan seed the schedule derives from.
        num_requests: requests submitted to the server.
        statuses: terminal :class:`~repro.serve.server.RequestStatus`
            value → count, over the resolved futures.
        false_accepts: accepted results for zero-effort (silent)
            probes — must be zero, always.
        unresolved: futures that never resolved within the budget —
            a non-zero value means a stuck request (deadlock).
        fault_fires: ``"point/kind"`` → fire count from the plan.
        recovered_parity: post-chaos direct verification was bitwise
            identical to the pre-chaos baseline.
        wall_s: wall-clock spent inside the chaotic serving window.
    """

    seed: int
    num_requests: int
    statuses: dict[str, int]
    false_accepts: int
    unresolved: int
    fault_fires: dict[str, int]
    recovered_parity: bool
    wall_s: float

    @property
    def accounted(self) -> bool:
        """Every submitted request reached exactly one terminal state."""
        return (
            self.unresolved == 0
            and sum(self.statuses.values()) == self.num_requests
        )

    @property
    def healthy(self) -> bool:
        """All four chaos invariants held for this schedule."""
        return (
            self.accounted
            and self.false_accepts == 0
            and self.recovered_parity
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def run_schedule(
    system,
    user_id: str,
    probes: Sequence[np.ndarray],
    plan: FaultPlan,
    *,
    num_requests: int = 18,
    serving_config=None,
    resilience=None,
    result_timeout_s: float = 30.0,
    churn: bool = True,
) -> ChaosReport:
    """Drive one seeded chaos schedule through a live server.

    The workload mixes genuine verify probes, zero-effort silent probes
    (the only requests whose accept would be *wrong* — an untrained
    bench extractor makes real impostor decisions meaningless) and
    periodic identify requests (which exercise the gallery fault
    points), some carrying queueing deadlines.  The mix is a fixed
    function of the request index, so the schedule is reproducible.

    With ``churn`` on, two extra users are enrolled before the baseline
    and revoked / re-enrolled *inside* the fault window, concurrently
    with the in-flight server requests — so shard mutations, tombstone
    compaction and a full gallery reset all run under fire.  Churn
    failures (an injected fault can abort an enrollment) are
    tolerated: the invariants below hold regardless.

    The pre-chaos baseline and post-chaos recovery check both call
    ``verify_many`` directly (no server, no plan); recovery demands
    bitwise-equal distances.
    """
    from repro.errors import EnrollmentError, SignalError, TransientError
    from repro.serve.server import AuthServer, RequestStatus

    silent = np.zeros_like(np.asarray(probes[0], dtype=np.float64))
    requests: list[tuple[str, np.ndarray, bool, float | None]] = []
    for i in range(num_requests):
        if i % 3 == 2:
            recording, genuine = silent, False
        else:
            recording, genuine = probes[i % len(probes)], True
        kind = "identify" if i % 7 == 6 else "verify"
        timeout_ms = 75.0 if i % 5 == 4 else None
        requests.append((kind, recording, genuine, timeout_ms))
    recordings = [recording for _, recording, _, _ in requests]

    churn_users: list[str] = []
    churn_recordings = [probes[i % len(probes)] for i in range(3)]
    if churn:
        # Enrolled fault-free, *before* the baseline: their mid-window
        # revoke / re-enroll churn drives shard mutations and tombstone
        # compaction without touching ``user_id``'s template, so the
        # recovery-parity invariant is unaffected.
        for offset, name in enumerate(("chaos-churn-a", "chaos-churn-b")):
            system.enroll(name, churn_recordings, transform_seed=101 + offset)
            churn_users.append(name)

    baseline = system.verify_many(user_id, recordings)
    # Drop the derived 1:N state (it rebuilds lazily) so the
    # gallery.build fault point is reachable in every schedule, not
    # just the first one run against a shared system.
    system.reset_gallery()

    statuses: dict[str, int] = {}
    false_accepts = 0
    unresolved = 0
    start = time.perf_counter()
    with plan.active():
        server = AuthServer(
            system, config=serving_config, resilience=resilience
        )
        with server:
            futures = []
            for kind, recording, _, timeout_ms in requests:
                if kind == "identify":
                    futures.append(
                        server.identify(recording, timeout_ms=timeout_ms)
                    )
                else:
                    futures.append(
                        server.verify(user_id, recording, timeout_ms=timeout_ms)
                    )
            # Mutate the enrolled set while the submitted requests are
            # still in flight: tombstones (revoke), re-appends
            # (re-enroll) and one full reset race the workers' scoring
            # under the active fault plan.  Any injected fault may
            # abort an individual churn step; that is part of the
            # exercise.
            for index, name in enumerate(churn_users):
                try:
                    if system.is_enrolled(name):
                        system.revoke(name)
                    if index == 0:
                        system.reset_gallery()
                    system.enroll(
                        name, churn_recordings, transform_seed=201 + index
                    )
                except (EnrollmentError, SignalError, TransientError):
                    pass
            for future, (_, _, genuine, _) in zip(futures, requests):
                if not future.wait(result_timeout_s):
                    unresolved += 1
                    continue
                status = future.status.value
                statuses[status] = statuses.get(status, 0) + 1
                if future.status is RequestStatus.OK:
                    result = future.result(0)
                    if result is not None and result.accepted and not genuine:
                        false_accepts += 1
    wall_s = time.perf_counter() - start

    after = system.verify_many(user_id, recordings)
    recovered = all(
        a.accepted == b.accepted
        and a.distance == b.distance
        and a.degraded == b.degraded
        for a, b in zip(baseline, after)
    )
    return ChaosReport(
        seed=plan.seed,
        num_requests=num_requests,
        statuses=dict(sorted(statuses.items())),
        false_accepts=false_accepts,
        unresolved=unresolved,
        fault_fires=plan.stats(),
        recovered_parity=recovered,
        wall_s=wall_s,
    )


def run_campaign(
    seeds: Sequence[int],
    *,
    num_requests: int = 18,
    dtype: str = "float32",
    result_timeout_s: float = 30.0,
) -> list[ChaosReport]:
    """Run one chaos schedule per seed on a shared bench system.

    Builds the same untrained compact substrate as the serving
    benchmarks (:func:`repro.serve.loadgen.build_bench_system`) once,
    then replays a fresh random plan per seed against it — the recovery
    invariant doubles as the proof that schedules cannot contaminate
    each other.  Gallery shards are shrunk to two slots so the churn
    mutations actually cross the compaction threshold mid-schedule.
    """
    from repro.config import GalleryConfig
    from repro.serve.loadgen import build_bench_system

    system, user_id, probes = build_bench_system(
        dtype=dtype,
        num_probes=8,
        gallery=GalleryConfig(shard_size=2, compact_tombstone_ratio=0.4),
    )
    return [
        run_schedule(
            system,
            user_id,
            probes,
            random_plan(seed),
            num_requests=num_requests,
            result_timeout_s=result_timeout_s,
        )
        for seed in seeds
    ]
