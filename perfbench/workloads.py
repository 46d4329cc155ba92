"""The four workloads, their set-up, their timed run and their check.

Run one workload in this process and print its result::

    python3 perfbench/workloads.py --workload fleet_verify --seed 1 \\
        --seconds 10 --trace 0

``perfbench/run.py`` is the entry point that builds the substrate
first; this module assumes it exists.  Each workload drives the public
API from outside -- :class:`~repro.core.system.MandiPass`,
:class:`~repro.serve.server.AuthServer` and
:class:`~repro.stream.session.StreamSession` -- with cascade and fusion
at their disabled defaults, which is the deployed path:

* ``earbud_stream`` -- the wearer's device: a closed loop on one thread
  pushing a long seeded IMU feed through a sync-backend
  ``StreamSession`` in 35-sample chunks, as fast as it will run.  The
  B=1 pipeline and the streaming DSP do all the work; batcher, gallery
  and pool do none.
* ``fleet_verify`` -- many earphones hitting one service: open-loop
  Poisson verify traffic at ``FLEET_RPS`` (about half the capacity for
  this traffic on 2 CPUs) against a thread-mode ``AuthServer`` with
  default settings, each request claiming one of ``FLEET_USERS`` users.
  Per-user batch keys keep batches near size 1.
* ``gate_identify`` -- a shared door: open-loop Poisson identify
  traffic over ``GATE_USERS`` stable persons, while the generator
  thread interleaves enroll/renew/revoke churn every
  ``GATE_WRITE_INTERVAL_S``.  The only workload whose writes run beside
  reads (gallery mutation log, sync, compaction, the write lock).
* ``fleet_verify_pool`` -- the ``fleet_verify`` arrivals and mix plus a
  trickle of enrolls against ``AuthServer`` with one worker process:
  pool dispatch/IPC and epoch republish.

Every decision is checked after the timed window against a direct
``verify_many`` / ``identify_many`` reference.  BLAS and OpenMP run one
thread: at B=64 two BLAS threads cut verify p50 from 61 to 44 ms but
triple its spread.
"""

from __future__ import annotations

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import fixture
import loadgen
import tracing
from repro.config import ServingConfig, StreamConfig
from repro.core.system import MandiPass
from repro.core.verification import REJECTED_DISTANCE
from repro.obs import runtime as obs
from repro.serve.server import AuthServer, RequestStatus
from repro.stream.session import StreamSession

#: Set-ups per timed run; ``setup_s`` is their median, each taken to the
#: reference speed by the probes on either side of it.
SETUP_REPEATS = 3
#: Two executions of one probe may differ by float32 batch re-association;
#: the dtype parity suite bounds that at 1e-4 in cosine distance.
DISTANCE_EPS = 1e-4
#: Latency limits of ``slo_ok_ratio``: the paper's on-device budget for
#: a streamed decision, and service limits for verify and identify.
STREAM_SLO_MS = 10.0
VERIFY_SLO_MS = 100.0
IDENTIFY_SLO_MS = 250.0

SAMPLE_RATE_HZ = 350
STREAM_CHUNK = 35
STREAM_EVENTS = 1500
STREAM_ENROLL_TRIALS = 3
STREAM_MIX = {"genuine": 0.5, "impostor": 0.2, "silent": 0.1, "glitch": 0.1, "dead_axis": 0.1}

FLEET_USERS = 200
FLEET_RPS = 50.0
FLEET_MIX = {"genuine": 0.5, "impostor": 0.3, "silent": 0.1, "degraded": 0.1}
POOL_ENROLL_INTERVAL_S = 1.0

GATE_USERS = 1000
#: Churn persons enrolled at set-up; with the stable persons they fill
#: the first 1024-slot shard, so churn lands in a shard of its own
#: where revokes reach the compaction threshold.
GATE_INITIAL_CHURN = 24
GATE_CHURN_POOL = 100
GATE_RPS = 60.0
GATE_WRITE_INTERVAL_S = 0.5
GATE_MIX = {"genuine": 0.7, "impostor": 0.2, "silent": 0.1}

PROBE_TRIALS = range(fixture.ENROLL_TRIALS, fixture.TRIALS_PER_PERSON)
CALIBRATION_REPEATS = 30

#: Mean wall ms of :func:`_speed_job` on an uncontended core of a
#: 2-CPU Intel Xeon at 2.1 GHz.  On that box neighbouring load slows
#: each core on its own by about 1.55x, in stretches of a second to
#: minutes (the job reads 4.8 or 7.5 ms).  That swung the single-thread
#: earbud loop's raw latencies by up to 50% (IQR over median) between
#: runs, so the loop times the job on its own thread between segments
#: and reports its timings at this reference speed.  The served
#: workloads spread their work over both cores and a probe running
#: beside them would compete with it, so the open-loop generator pauses
#: between segments of ``loadgen.SEGMENT_S`` and probes every core in
#: turn (:func:`core_speed`).  Probes only before and after a whole run
#: were too far apart: their readings differed by up to 1.5x.
PROBE_REFERENCE_MS = 4.8
PROBE_REPEATS = 3
CORE_PROBES = 2
STREAM_SEGMENT_S = 0.5


# -- inputs -------------------------------------------------------------------


def _draw(rng: np.random.Generator, mix: dict, count: int) -> list[str]:
    kinds = list(mix)
    return list(rng.choice(kinds, size=count, p=[mix[k] for k in kinds]))


def _quiet(rng: np.random.Generator, samples: int) -> np.ndarray:
    """Sensor noise with no vibration in it: a refusal, never a decision."""
    return rng.normal(0.0, 8.0, size=(samples, 6))


def _glitch(rng: np.random.Generator, samples: int) -> np.ndarray:
    """Quiet noise with a few single-sample spikes on random axes."""
    out = _quiet(rng, samples)
    for _ in range(3):
        out[rng.integers(samples), rng.integers(6)] = rng.choice([-1, 1]) * 3000.0
    return out


def _dead_axes(rng: np.random.Generator, recording: np.ndarray) -> np.ndarray:
    """Two axes stuck at zero: degraded, still above the usable-axis floor."""
    out = recording.copy()
    out[:, rng.choice(6, size=2, replace=False)] = 0.0
    return out


def _enroll_recordings(people: np.ndarray, person: int) -> list[np.ndarray]:
    return list(people[person, : fixture.ENROLL_TRIALS])


def _user(person: int) -> str:
    return f"p{person:04d}"


def _transform_seed(person: int) -> int:
    return 1 + person


def _tally(kinds: list[str], results: list, genuine: tuple, impostor: tuple) -> dict:
    """FAR and FRR over labelled decisions (``None`` results skipped)."""
    gen = [r for k, r in zip(kinds, results) if k in genuine and r is not None]
    imp = [r for k, r in zip(kinds, results) if k in impostor and r is not None]
    return {
        "far": sum(r.accepted for r in imp) / len(imp) if imp else None,
        "frr": sum(not r.accepted for r in gen) / len(gen) if gen else None,
    }


def _same(served, reference, threshold: float) -> tuple[bool, bool]:
    """``(matches, near_threshold)`` for two verification results."""
    near = abs(reference.distance - threshold) <= DISTANCE_EPS
    if (served.distance == REJECTED_DISTANCE) != (reference.distance == REJECTED_DISTANCE):
        return False, near
    if abs(served.distance - reference.distance) > DISTANCE_EPS:
        return False, near
    return served.accepted == reference.accepted or near, near


# -- speed probe --------------------------------------------------------------


def _speed_job() -> float:
    """Fixed work mixing small numpy kernels and interpreter overhead."""
    rng = np.random.default_rng(0)
    signals = rng.normal(size=(8, 6, 210))
    weights = rng.normal(size=(64, 96))
    acc = 0.0
    for i in range(200):
        segment = signals[i % 8, :, 20:80]
        segment = segment - segment.mean(axis=1, keepdims=True)
        spectra = np.abs(np.fft.rfft(np.maximum(segment, 0.0), axis=1))
        acc += float((weights @ np.resize(spectra, 96)).sum())
        acc += sum(k * k for k in range(40))
    return acc


def speed_probe() -> float:
    """Mean wall ms of :func:`_speed_job` on this thread."""
    began = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        _speed_job()
    return (time.perf_counter() - began) * 1e3 / PROBE_REPEATS


def core_speed() -> float:
    """Median :func:`speed_probe` over every usable core, visited in turn."""
    cores = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for core in cores:
            os.sched_setaffinity(0, {core})
            times += [speed_probe() for _ in range(CORE_PROBES)]
    finally:
        os.sched_setaffinity(0, cores)
    return float(np.median(times))


def reference_scale(before, after):
    """Factor taking a time measured between two probe readings to the
    reference speed."""
    return 2 * PROBE_REFERENCE_MS / (before + after)


def _at_reference_speed(record: loadgen.OpenLoopRecord) -> dict:
    """An open-loop run's latencies and CPU, scaled segment by segment."""
    scales = reference_scale(record.speed_ms[:-1], record.speed_ms[1:])
    return {
        "latency_ms": record.latency_ms * scales[record.segment],
        "raw_latency_ms": record.latency_ms,
        "cpu_s": record.cpu_s,
        "scale": float(np.average(scales, weights=record.segment_s)),
    }


# -- workloads ----------------------------------------------------------------


class Workload:
    """Inputs drawn from the seed; set-up, a timed run and a check."""

    primary = ""

    def __init__(self, substrate: dict, model, seed: int, seconds: float) -> None:
        self.substrate = substrate
        self.model = model
        self.seed = seed
        self.seconds = seconds
        self.config = fixture.system_config()
        self.system: MandiPass | None = None
        self.server: AuthServer | None = None

    def rng(self, tag: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, sum(map(ord, tag))])

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()

    def worker_metrics(self) -> dict:
        return self.server.worker_metrics() if self.server is not None else {}

    def calibration_job(self):
        raise NotImplementedError


class EarbudStream(Workload):
    primary = "stream_decision"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        rng = self.rng("earbud_stream")
        wearer = self.substrate["wearer"]
        impostors = self.substrate["feed_impostors"]
        self.enrollment = list(wearer[:STREAM_ENROLL_TRIALS])
        genuine = wearer[STREAM_ENROLL_TRIALS:]
        samples = wearer.shape[1]
        events, kinds = [], _draw(rng, STREAM_MIX, STREAM_EVENTS)
        for kind in kinds:
            if kind == "genuine":
                events.append(genuine[rng.integers(len(genuine))])
            elif kind == "impostor":
                events.append(impostors[rng.integers(len(impostors))])
            elif kind == "silent":
                events.append(_quiet(rng, samples))
            elif kind == "glitch":
                events.append(_glitch(rng, samples))
            else:
                events.append(_dead_axes(rng, genuine[rng.integers(len(genuine))]))
        pad = -sum(len(e) for e in events) % STREAM_CHUNK
        events.append(_quiet(rng, pad))
        self.kinds = kinds + ["silent"]
        self.starts = np.cumsum([0] + [len(e) for e in events[:-1]])
        self.feed = np.concatenate(events)
        self.probe = genuine[0]

    def setup(self) -> None:
        self.system = MandiPass(self.model, config=self.config)
        self.system.enroll("wearer", self.enrollment, transform_seed=1)
        self.session = StreamSession(
            "wearer",
            system=self.system,
            config=StreamConfig(chunk_size=STREAM_CHUNK),
            session_id="earbud",
        )

    def calibration_job(self):
        return lambda: self.system.verify_many("wearer", [self.probe])

    def teardown(self) -> None:
        self.session.close()

    def run(self) -> dict:
        """Push the feed for ``seconds``, probing speed between segments."""
        chunks = self.feed.reshape(-1, STREAM_CHUNK, 6)
        decisions, push_ms, scales = [], [], []
        pushes, cpu_s, busy_s, weighted = 0, 0.0, 0.0, 0.0
        probe = speed_probe()
        deadline = time.perf_counter() + self.seconds
        while time.perf_counter() < deadline:
            first = len(push_ms)
            cpu = time.process_time()
            began_segment = time.perf_counter()
            segment_end = min(began_segment + STREAM_SEGMENT_S, deadline)
            while time.perf_counter() < segment_end:
                chunk = chunks[pushes % len(chunks)]
                began = time.perf_counter()
                out = self.session.push(chunk)
                took = (time.perf_counter() - began) * 1e3
                pushes += 1
                for decision in out:
                    decisions.append(decision)
                    push_ms.append(took)
            segment_s = time.perf_counter() - began_segment
            cpu_s += time.process_time() - cpu
            after = speed_probe()
            scale = reference_scale(probe, after)
            scales += [scale] * (len(push_ms) - first)
            busy_s += segment_s
            weighted += scale * segment_s
            probe = after
        decisions.extend(self.session.close())
        return {
            "decisions": decisions,
            "push_ms": np.asarray(push_ms),
            "scales": np.asarray(scales),
            "pushes": pushes,
            "busy_s": busy_s,
            "cpu_s": cpu_s,
            "scale": weighted / busy_s,
        }

    def check(self, record: dict) -> dict:
        decisions = record["decisions"]
        length = len(self.feed)
        windows = [
            self.feed[np.arange(d.window_start, d.window_end) % length]
            for d in decisions
        ]
        reference = []
        for first in range(0, len(windows), 64):
            reference += self.system.verify_many("wearer", windows[first : first + 64])
        threshold = self.config.decision.threshold
        ok, mismatched, near = [], 0, 0
        for decision, ref in zip(decisions, reference):
            same, close = (
                _same(decision.result, ref, threshold)
                if decision.status == "ok"
                else (False, False)
            )
            ok.append(same)
            mismatched += not same
            near += close
        kinds = [
            self.kinds[int(np.searchsorted(self.starts, d.onset % length, "right")) - 1]
            for d in decisions
        ]
        results = [d.result for d in decisions]
        latency = record["push_ms"]
        slo_ok = sum(
            good and ms <= STREAM_SLO_MS for good, ms in zip(ok, latency)
        )
        samples = record["pushes"] * STREAM_CHUNK
        return {
            "attempted": len(decisions),
            "failed": mismatched,
            "latency_ms": latency * record["scales"],
            "raw_latency_ms": latency,
            "cpu_s": record["cpu_s"],
            "scale": record["scale"],
            "slo_ok": slo_ok,
            "near_threshold": near,
            "report": {
                "stream_decision_p50_ms": loadgen.median(latency),
                "stream_decision_p99_ms": loadgen.tail(latency),
                "stream_xrt": samples / SAMPLE_RATE_HZ / record["busy_s"],
                **_tally(kinds, results, ("genuine", "dead_axis"), ("impostor",)),
            },
            "late_ms": np.zeros(0),
        }


class FleetVerify(Workload):
    primary = "verify"
    num_worker_processes = 0
    enroll_interval_s = None

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # Pool and thread mode see the same fleet, arrivals and mix.
        rng = self.rng("fleet_verify")
        people = self.substrate["people"]
        order = rng.permutation(len(people))
        self.enrolled = order[:FLEET_USERS]
        outsiders = order[FLEET_USERS : 2 * FLEET_USERS]
        self.newcomers = order[2 * FLEET_USERS :]
        arrivals = loadgen.poisson_offsets(FLEET_RPS, self.seconds, seed=self.seed)
        self.kinds = _draw(rng, FLEET_MIX, len(arrivals))
        self.claims, self.recordings = [], []
        for kind in self.kinds:
            person = int(rng.choice(self.enrolled))
            trial = int(rng.choice(PROBE_TRIALS))
            self.claims.append(_user(person))
            if kind == "genuine":
                self.recordings.append(people[person, trial])
            elif kind == "impostor":
                self.recordings.append(people[int(rng.choice(outsiders)), trial])
            elif kind == "silent":
                self.recordings.append(_quiet(rng, people.shape[2]))
            else:
                self.recordings.append(_dead_axes(rng, people[person, trial]))
        writes = (
            loadgen.fixed_offsets(self.enroll_interval_s, self.seconds, self.enroll_interval_s / 2)
            if self.enroll_interval_s
            else np.zeros(0)
        )
        self.schedule = loadgen.merge_schedule(arrivals, writes)

    def setup(self) -> None:
        people = self.substrate["people"]
        self.system = MandiPass(self.model, config=self.config)
        for person in self.enrolled:
            self.system.enroll(
                _user(person), _enroll_recordings(people, person), _transform_seed(person)
            )
        serving = ServingConfig(num_worker_processes=self.num_worker_processes)
        self.server = AuthServer(self.system, config=serving).start()

    def calibration_job(self):
        person = int(self.enrolled[0])
        probe = self.substrate["people"][person, PROBE_TRIALS[0]]
        return lambda: self.system.verify_many(_user(person), [probe])

    def write(self, index: int) -> None:
        person = int(self.newcomers[index])
        self.system.enroll(
            _user(person),
            _enroll_recordings(self.substrate["people"], person),
            _transform_seed(person),
        )

    def run(self) -> loadgen.OpenLoopRecord:
        return loadgen.run_open_loop(
            self.schedule,
            lambda i: self.server.verify(self.claims[i], self.recordings[i]),
            self.write,
            core_speed,
        )

    def check(self, record: loadgen.OpenLoopRecord) -> dict:
        served = [
            f.result() if f.status is RequestStatus.OK else None for f in record.futures
        ]
        by_user: dict[str, list[int]] = {}
        for index, claim in enumerate(self.claims):
            by_user.setdefault(claim, []).append(index)
        reference: list = [None] * len(served)
        for claim, indices in by_user.items():
            results = self.system.verify_many(claim, [self.recordings[i] for i in indices])
            for index, result in zip(indices, results):
                reference[index] = result
        threshold = self.config.decision.threshold
        ok, near = [], 0
        for result, ref in zip(served, reference):
            same, close = _same(result, ref, threshold) if result is not None else (False, False)
            ok.append(same)
            near += close
        latency = record.latency_ms
        enroll_ms = record.write_ms
        return {
            "attempted": len(served),
            "failed": len(served) - sum(ok),
            **_at_reference_speed(record),
            "slo_ok": sum(good and ms <= VERIFY_SLO_MS for good, ms in zip(ok, latency)),
            "near_threshold": near,
            "report": {
                "verify_p50_ms": loadgen.median(latency),
                "verify_p99_ms": loadgen.tail(latency),
                "enroll_p50_ms": loadgen.median(enroll_ms) if len(enroll_ms) else None,
                **_tally(self.kinds, served, ("genuine", "degraded"), ("impostor",)),
            },
            "late_ms": record.late_ms,
        }


class FleetVerifyPool(FleetVerify):
    num_worker_processes = 1
    enroll_interval_s = POOL_ENROLL_INTERVAL_S


class GateIdentify(Workload):
    primary = "identify"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        rng = self.rng("gate_identify")
        people = self.substrate["people"]
        order = rng.permutation(len(people))
        self.stable = order[:GATE_USERS]
        churn = [int(p) for p in order[GATE_USERS : GATE_USERS + GATE_CHURN_POOL]]
        outsiders = order[GATE_USERS + GATE_CHURN_POOL :]
        self.stable_users = {_user(p) for p in self.stable}
        arrivals = loadgen.poisson_offsets(GATE_RPS, self.seconds, seed=self.seed)
        self.kinds = _draw(rng, GATE_MIX, len(arrivals))
        self.truth, self.recordings = [], []
        for kind in self.kinds:
            trial = int(rng.choice(PROBE_TRIALS))
            if kind == "genuine":
                person = int(rng.choice(self.stable))
                self.truth.append(_user(person))
                self.recordings.append(people[person, trial])
            elif kind == "impostor":
                self.truth.append(None)
                self.recordings.append(people[int(rng.choice(outsiders)), trial])
            else:
                self.truth.append(None)
                self.recordings.append(_quiet(rng, people.shape[2]))
        # Churn is planned up front: a cycle of enroll (the longest
        # dormant person), renew and revoke (a random live person).
        self.initial_churn = churn[:GATE_INITIAL_CHURN]
        alive, dormant = list(self.initial_churn), churn[GATE_INITIAL_CHURN:]
        seeds = {p: _transform_seed(p) for p in churn}
        self.versions: dict[str, list[int]] = {_user(p): [seeds[p]] for p in alive}
        writes = loadgen.fixed_offsets(
            GATE_WRITE_INTERVAL_S, self.seconds, GATE_WRITE_INTERVAL_S / 2
        )
        self.writes: list[tuple[str, int, int]] = []
        for index in range(len(writes)):
            op = ("enroll", "renew", "revoke")[index % 3]
            if op == "enroll":
                person = dormant.pop(0)
                seeds[person] += 7919
                alive.append(person)
            else:
                person = alive[int(rng.integers(len(alive)))]
                if op == "renew":
                    seeds[person] += 104729  # CancelableTransform.renew()
                else:
                    alive.remove(person)
                    dormant.append(person)
            if op != "revoke":
                self.versions.setdefault(_user(person), []).append(seeds[person])
            self.writes.append((op, person, seeds[person]))
        self.final_churn = alive
        self.schedule = loadgen.merge_schedule(arrivals, writes)

    def setup(self) -> None:
        people = self.substrate["people"]
        self.system = MandiPass(self.model, config=self.config)
        for person in [*self.stable, *self.initial_churn]:
            self.system.enroll(
                _user(person), _enroll_recordings(people, person), _transform_seed(person)
            )
        self.server = AuthServer(self.system).start()

    def calibration_job(self):
        probe = self.substrate["people"][int(self.stable[0]), PROBE_TRIALS[0]]
        return lambda: self.system.verify_many(_user(int(self.stable[0])), [probe])

    def write(self, index: int) -> None:
        op, person, seed = self.writes[index]
        recordings = _enroll_recordings(self.substrate["people"], person)
        if op == "enroll":
            self.system.enroll(_user(person), recordings, transform_seed=seed)
        elif op == "renew":
            self.system.renew(_user(person), recordings)
        else:
            self.system.revoke(_user(person))

    def run(self) -> loadgen.OpenLoopRecord:
        return loadgen.run_open_loop(
            self.schedule,
            lambda i: self.server.identify(self.recordings[i]),
            self.write,
            core_speed,
        )

    def _churn_distance(self, user: str, probe: np.ndarray) -> list[float]:
        """The probe's distance to every template ``user`` ever held."""
        person = int(user[1:])
        reference = MandiPass(self.model, config=self.config)
        recordings = _enroll_recordings(self.substrate["people"], person)
        out = []
        for seed in self.versions.get(user, []):
            reference.enroll(user, recordings, transform_seed=seed)
            out.append(reference.verify_many(user, [probe])[0].distance)
        return out

    def check(self, record: loadgen.OpenLoopRecord) -> dict:
        """Served matches against the stable-only reference.

        Churn makes the enrolled set a function of time, so the check is
        one that holds at every moment: a served stable match must be
        the stable reference's match; a served churn match must beat
        every stable person and equal the probe's distance to one of the
        templates that churn person held.
        """
        served = [
            f.result() if f.status is RequestStatus.OK else "failed"
            for f in record.futures
        ]
        for person in self.final_churn:
            self.system.revoke(_user(person))
        reference: list = []
        for first in range(0, len(self.recordings), 64):
            reference += self.system.identify_many(self.recordings[first : first + 64])
        threshold = self.config.decision.threshold
        ok, near = [], 0
        for index, (result, ref) in enumerate(zip(served, reference)):
            if result == "failed" or result is None or ref is None:
                good = result is None and ref is None
            elif result.user_id in self.stable_users:
                same, close = _same(result, ref, threshold)
                good = same and result.user_id == ref.user_id
                near += close
            else:
                distances = self._churn_distance(result.user_id, self.recordings[index])
                good = result.distance <= ref.distance + DISTANCE_EPS and any(
                    abs(d - result.distance) <= DISTANCE_EPS for d in distances
                )
            ok.append(good)
        genuine = [
            (truth, result)
            for kind, truth, result in zip(self.kinds, self.truth, served)
            if kind == "genuine"
        ]
        misses = sum(
            not (result not in (None, "failed") and result.user_id == truth)
            for truth, result in genuine
        )
        latency = record.latency_ms
        enrolls = [
            ms for (op, _, _), ms in zip(self.writes, record.write_ms) if op == "enroll"
        ]
        return {
            "attempted": len(served),
            "failed": len(served) - sum(ok),
            **_at_reference_speed(record),
            "slo_ok": sum(good and ms <= IDENTIFY_SLO_MS for good, ms in zip(ok, latency)),
            "near_threshold": near,
            "report": {
                "identify_p50_ms": loadgen.median(latency),
                "identify_p99_ms": loadgen.tail(latency),
                "enroll_p50_ms": loadgen.median(enrolls) if enrolls else None,
                "identify_miss_ratio": misses / len(genuine) if genuine else None,
            },
            "late_ms": record.late_ms,
        }


WORKLOADS = {
    "earbud_stream": EarbudStream,
    "fleet_verify": FleetVerify,
    "gate_identify": GateIdentify,
    "fleet_verify_pool": FleetVerifyPool,
}

REPORT_KEYS = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verify_p50_ms", "ms"),
    ("verify_p99_ms", "ms"),
    ("identify_p50_ms", "ms"),
    ("identify_p99_ms", "ms"),
    ("enroll_p50_ms", "ms"),
    ("stream_decision_p50_ms", "ms"),
    ("stream_decision_p99_ms", "ms"),
    ("stream_xrt", "x"),
    ("slo_ok_ratio", "ratio"),
    ("error_ratio", "ratio"),
    ("far", "ratio"),
    ("frr", "ratio"),
    ("identify_miss_ratio", "ratio"),
)


# -- the run --------------------------------------------------------------------


def machine_facts() -> dict:
    from repro.serve.loadgen import machine_info

    facts = machine_info("spawn")
    facts["numpy"] = np.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        facts["blas"] = "unknown"
    facts["threads_env"] = {
        var: os.environ.get(var)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    facts["machine"] = platform.machine()
    return facts


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    substrate = fixture.load()
    model = fixture.model_from(substrate)
    workload = WORKLOADS[name](substrate, model, seed, seconds)
    if trace:
        obs.enable()
    setup_s, raw_setup_s = [], []
    for repeat in range(1 if trace else SETUP_REPEATS):
        if repeat:
            workload.teardown()
            gc.collect()
        before = core_speed()
        began = time.perf_counter()
        workload.setup()
        raw_setup_s.append(time.perf_counter() - began)
        setup_s.append(raw_setup_s[-1] * reference_scale(before, core_speed()))
    if trace:
        # A fresh registry, so set-up work stays out of the histograms.
        obs.disable()
        obs.enable()
    gc.collect()
    tracer = tracing.Tracer()
    overhead = 0.0
    try:
        if trace:
            overhead = tracing.overhead_ratio(
                tracer,
                lambda: tracing.install_layers(tracer),
                workload.calibration_job(),
                CALIBRATION_REPEATS,
            )
        record = workload.run()
    finally:
        tracer.restore()
    worker_snapshot = workload.worker_metrics()
    workload.teardown()
    outcome = workload.check(record)
    attempted, failed = outcome["attempted"], outcome["failed"]
    latency = outcome["latency_ms"]
    report = dict.fromkeys(key for key, _ in REPORT_KEYS)
    report.update(outcome["report"])
    report["setup_s"] = float(np.median(setup_s))
    report["peak_rss_mb"] = peak_rss_mb()
    report["slo_ok_ratio"] = outcome["slo_ok"] / attempted if attempted else 0.0
    report["error_ratio"] = failed / attempted if attempted else 1.0
    if trace:
        layer_metrics = tracing.per_layer_metrics(
            tracer,
            obs.get_registry().to_dict(),
            worker_snapshot,
            outcome["late_ms"],
            overhead,
        )
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
        raw = {}
    else:
        # Reported at the reference speed, segment by segment; the raw
        # values go to details.
        scale = outcome["scale"]
        cpu_ms_per_op = outcome["cpu_s"] * 1e3 / max(attempted, 1)
        raw_latency = outcome["raw_latency_ms"]
        raw = {
            "latency_p50_ms": loadgen.median(raw_latency),
            "latency_p75_ms": loadgen.tail(raw_latency, cap=0.75),
            "cpu_ms_per_op": cpu_ms_per_op,
            "setup_s": float(np.median(raw_setup_s)),
            "scale": scale,
        }
        metrics = {
            "setup_s": {"value": report["setup_s"], "unit": "s"},
            "latency_p50_ms": {"value": loadgen.median(latency), "unit": "ms"},
            "latency_p75_ms": {"value": loadgen.tail(latency, cap=0.75), "unit": "ms"},
            "cpu_ms_per_op": {"value": cpu_ms_per_op * scale, "unit": "ms"},
        }
        metrics["peak_rss_mb"] = {"value": report["peak_rss_mb"], "unit": "MB"}
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "primary": workload.primary,
        "machine": machine_facts(),
        "setup_runs_s": raw_setup_s,
        "raw": raw,
        "near_threshold": outcome["near_threshold"],
        "samples": len(latency),
        "report": {
            key: {"value": report[key], "unit": unit} for key, unit in REPORT_KEYS
        },
    }
    if trace:
        details["layers"] = tracer.layers()
        details["batches_traced"] = len(tracer.batches)
        spans = fixture.CACHE_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.dump(spans)
        details["spans"] = str(spans.relative_to(fixture.CACHE_DIR.parent.parent))
    return {
        "details": details,
        "result": {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["details"]), flush=True)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
