"""Adversarial scenario matrix: hostile conditions x modalities.

The paper evaluates robustness one condition at a time (Sections
VII-B/C/D); this module crosses *motion artifacts* (static / walking /
driving -- driving's engine hum sits inside the 20-170 Hz pass band,
unlike gait) with *progressive sensor degradation* (coarse
re-quantisation, sampling-clock jitter, gyroscope axis dropout) and
replays + synthesized mimicry attacks at population scale, and scores
every cell for three modalities:

* ``imu`` -- the MandiblePrint pipeline (``MandiPass.verify_many``),
* ``heartbeat`` -- the cardiac channel alone
  (:class:`repro.physio.heartbeat.HeartbeatVerifier`),
* ``fused`` -- score-level fusion of the two with weights calibrated
  from the clean cell (:func:`repro.core.fusion.calibrated_fusion_weights`).

The point of the matrix (DESIGN.md §4l): the modalities fail in
*different* cells.  Gyro dropout blinds the IMU pipeline (fewer than
``min_usable_axes`` usable axes -> refusal) but not the accel-only
cardiac verifier; coarse quantisation crushes the tens-of-counts
heartbeat while the thousands-of-counts EMM survives; the fused score
buys back accuracy precisely where one channel collapses.

``python -m repro scenario-bench`` runs the matrix and writes
``BENCH_scenarios.json``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import SAMPLE_RATE_HZ
from repro.errors import ConfigError, SignalError
from repro.eval.metrics import equal_error_rate
from repro.obs import runtime as obs
from repro.physio.conditions import RecordingCondition
from repro.types import Activity, RawRecording

#: Distance assigned to refusals, mirrors ``core.verification``.
_REJECTED = 2.0

MODALITIES = ("imu", "heartbeat", "fused")


@dataclasses.dataclass(frozen=True)
class DegradationSpec:
    """Sensor-level degradation applied to an already-captured recording.

    Attributes:
        name: row label in the matrix.
        quant_bits: re-quantise counts to this many bits over the
            device's full scale (``None`` = keep native resolution).
            The paper's MPU-9250 is 16-bit; 8-10 bits emulate cheap or
            power-throttled parts.
        clock_jitter_s: std of per-sample timing error; the waveform is
            resampled at the jittered instants (ADC clock wander).
        drop_axes: axes flatlined to zero (loose solder joint, gyro
            powered down to save battery).  The preprocessing pipeline
            refuses recordings with fewer than ``min_usable_axes``
            usable axes.
    """

    name: str = "clean"
    quant_bits: int | None = None
    clock_jitter_s: float = 0.0
    drop_axes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("degradation name must be non-empty")
        if self.quant_bits is not None and not 2 <= self.quant_bits <= 16:
            raise ConfigError("quant_bits must lie in [2, 16]")
        if self.clock_jitter_s < 0:
            raise ConfigError("clock_jitter_s must be non-negative")
        if any(not 0 <= a <= 5 for a in self.drop_axes):
            raise ConfigError("drop_axes entries must lie in [0, 5]")

    @property
    def is_clean(self) -> bool:
        return (
            self.quant_bits is None
            and self.clock_jitter_s == 0.0
            and not self.drop_axes
        )


def degrade_recording(
    recording: RawRecording,
    spec: DegradationSpec,
    rate_hz: float,
    full_scale_counts: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Apply a degradation spec to one recording (new array).

    Order matters and mirrors physics: timing error perturbs the
    analog-side waveform first, the coarse ADC quantises what it sees,
    and a dead axis reads zero regardless.
    """
    out = np.asarray(recording, dtype=np.float64).copy()
    num = out.shape[0]
    if spec.clock_jitter_s > 0.0 and num > 1:
        t = np.arange(num) / rate_hz
        jittered = np.clip(
            t + rng.normal(0.0, spec.clock_jitter_s, size=num), t[0], t[-1]
        )
        for axis in range(out.shape[1]):
            out[:, axis] = np.interp(jittered, t, out[:, axis])
    if spec.quant_bits is not None:
        step = (2.0 * full_scale_counts) / (2.0**spec.quant_bits)
        out = np.round(out / step) * step
    for axis in spec.drop_axes:
        out[:, axis] = 0.0
    return out


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One cell of the matrix: a motion condition x a degradation."""

    motion: str
    condition: RecordingCondition
    degradation: DegradationSpec

    @property
    def name(self) -> str:
        return f"{self.motion}+{self.degradation.name}"


def default_motions() -> dict[str, RecordingCondition]:
    return {
        "static": RecordingCondition(),
        "walk": RecordingCondition(activity=Activity.WALK),
        "drive": RecordingCondition(activity=Activity.DRIVE),
    }


def default_degradations() -> list[DegradationSpec]:
    return [
        DegradationSpec("clean"),
        DegradationSpec("quant8", quant_bits=8),
        DegradationSpec("jitter2ms", clock_jitter_s=0.002),
        DegradationSpec("gyro-drop", drop_axes=(3, 4, 5)),
    ]


def scenario_grid(
    motions: dict[str, RecordingCondition] | None = None,
    degradations: list[DegradationSpec] | None = None,
) -> list[Scenario]:
    """The full cross product, clean cell first."""
    motions = motions if motions is not None else default_motions()
    degradations = (
        degradations if degradations is not None else default_degradations()
    )
    grid = [
        Scenario(motion, condition, spec)
        for motion, condition in motions.items()
        for spec in degradations
    ]
    grid.sort(key=lambda s: not (s.motion == "static" and s.degradation.is_clean))
    return grid


# ----------------------------------------------------------------------
# matrix runner
# ----------------------------------------------------------------------


def _distance_sets(scores: dict) -> tuple[np.ndarray, np.ndarray]:
    """Split a ``(template_user, probe_user) -> [(d, refused)]`` map
    into genuine/impostor distance arrays, dropping refused probes.

    A refusal is a failure to acquire, not a decision: scoring it as a
    distance would poison *both* sides of the EER (a refused genuine
    probe reads as a rejection, a refused impostor as a win).  Standard
    biometric practice reports the refusal (FTA) rate separately --
    which each cell does -- and computes error rates over acquired
    samples only.
    """
    genuine, impostor = [], []
    for (template_user, probe_user), values in scores.items():
        side = genuine if template_user == probe_user else impostor
        side.extend(d for d, refused in values if not refused)
    return np.asarray(genuine, dtype=np.float64), np.asarray(impostor)


def _cell_metrics(
    scores: dict, threshold: float, refusal_count: int, total: int
) -> dict:
    """EER + FAR/FRR at the calibrated threshold for one modality."""
    genuine, impostor = _distance_sets(scores)
    if genuine.size and impostor.size:
        eer = float(equal_error_rate(genuine, impostor).eer)
    else:
        # Nothing acquired on one side: the modality is useless in this
        # cell; chance-level EER plus the refusal rate tell that story.
        eer = 0.5
    return {
        "eer": eer,
        "far": float((impostor <= threshold).mean()) if impostor.size else 0.0,
        "frr": float((genuine > threshold).mean()) if genuine.size else 1.0,
        "refusal_rate": refusal_count / total if total else 0.0,
    }


def _fused_score(
    imu_d: float,
    imu_refused: bool,
    heart_d: float,
    heart_refused: bool,
    imu_threshold: float,
    heart_threshold: float,
    weights: tuple[float, float],
) -> float:
    """Normalised fused score: the one fused-decision rule (DESIGN.md §4l).

    Each modality's distance is divided by its own threshold, so the
    fused score accepts iff it is at most 1.0.  A refused modality is
    absent, not impostor evidence: the other modality's normalised
    score stands alone.  Both refused -> maximal.
    """
    imu_norm = imu_d / imu_threshold
    heart_norm = heart_d / heart_threshold
    if imu_refused and heart_refused:
        return _REJECTED / min(imu_threshold, heart_threshold)
    if imu_refused:
        return heart_norm
    if heart_refused:
        return imu_norm
    w_imu, w_heart = weights
    return (w_imu * imu_norm + w_heart * heart_norm) / (w_imu + w_heart)


def run_scenario_matrix(
    system,
    heartbeat_verifier,
    recorder,
    population,
    probe_trials: int = 6,
    probe_offset: int = 100,
    scenarios: list[Scenario] | None = None,
    imu_threshold: float | None = None,
    heartbeat_threshold: float | None = None,
    fusion_weights: tuple[float, float] | None = None,
    seed: int = 0,
) -> dict:
    """Score every scenario cell for every modality.

    Args:
        system: a :class:`~repro.core.system.MandiPass` with every
            member of ``population`` enrolled.
        heartbeat_verifier: a fitted
            :class:`~repro.physio.heartbeat.HeartbeatVerifier` with a
            template per member.
        recorder: a heartbeat-carrying
            :class:`~repro.imu.Recorder` used to capture probes.
        population: the enrolled :class:`PersonProfile` list.
        probe_trials: probes per person per cell.
        probe_offset: trial-index offset separating probes from
            enrollment captures.
        scenarios: cells to run; the default grid when ``None``.  The
            first clean cell calibrates thresholds/weights when they
            are not supplied.
        imu_threshold / heartbeat_threshold: operating thresholds; when
            ``None`` they are calibrated at the clean cell's EER point.
        fusion_weights: ``(imu, heartbeat)`` score weights; calibrated
            from clean-cell error rates when ``None``.
        seed: degradation randomness.

    Returns:
        The report dict (see module docstring); also emits
        ``scenario_*`` metrics into :mod:`repro.obs`.
    """
    from repro.core.fusion import calibrated_fusion_weights

    scenarios = scenarios if scenarios is not None else scenario_grid()
    if not scenarios:
        raise ConfigError("need at least one scenario cell")
    full_scale = recorder.device.full_scale_counts

    rows = []
    clean_metrics: dict[str, dict] | None = None
    for cell_index, scenario in enumerate(scenarios):
        cell_rng = np.random.default_rng(
            np.random.SeedSequence([seed, cell_index])
        )
        # -- capture + degrade the probe pool ---------------------------
        probes, owners = [], []
        for person in population:
            for trial in range(probe_trials):
                raw = recorder.record(
                    person, scenario.condition, trial_index=probe_offset + trial
                )
                probes.append(
                    degrade_recording(
                        raw, scenario.degradation, SAMPLE_RATE_HZ, full_scale, cell_rng
                    )
                )
                owners.append(person.person_id)

        # -- per-modality distances -------------------------------------
        imu_scores: dict = {}
        heart_scores: dict = {}
        fused_scores: dict = {}
        imu_refusals = heart_refusals = fused_refusals = 0
        per_template = {}
        for person in population:
            per_template[person.person_id] = system.verify_many(
                person.person_id, probes
            )
        # Extract cardiac features once per probe; a SignalError is the
        # verifier's refusal and applies against every template.
        probe_features = []
        for probe in probes:
            try:
                probe_features.append(heartbeat_verifier.beat_features(probe))
            except SignalError:
                probe_features.append(None)
        heart_results = {}
        for person in population:
            heart_results[person.person_id] = [
                (_REJECTED, True)
                if features is None
                else (
                    heartbeat_verifier.score_features(person.person_id, features),
                    False,
                )
                for features in probe_features
            ]

        if imu_threshold is None or heartbeat_threshold is None:
            if not scenario.degradation.is_clean or scenario.motion != "static":
                raise ConfigError(
                    "thresholds not given and the first cell is not "
                    "static+clean; pass thresholds or reorder scenarios"
                )

        for person in population:
            imu_results = per_template[person.person_id]
            hb_results = heart_results[person.person_id]
            for probe_index, owner in enumerate(owners):
                key = (person.person_id, owner)
                imu_r = imu_results[probe_index]
                hb_d, hb_refused = hb_results[probe_index]
                imu_refused = imu_r.exit_stage == "refused"
                imu_scores.setdefault(key, []).append(
                    (imu_r.distance, imu_refused)
                )
                heart_scores.setdefault(key, []).append((hb_d, hb_refused))
                if person is population[0]:
                    imu_refusals += imu_refused
                    heart_refusals += hb_refused
                    fused_refusals += imu_refused and hb_refused
                fused_scores.setdefault(key, []).append(
                    (imu_r.distance, imu_refused, hb_d, hb_refused)
                )

        # -- calibration from the clean cell ----------------------------
        if imu_threshold is None:
            genuine, impostor = _distance_sets(imu_scores)
            imu_threshold = float(equal_error_rate(genuine, impostor).threshold)
        if heartbeat_threshold is None:
            genuine, impostor = _distance_sets(heart_scores)
            heartbeat_threshold = float(
                equal_error_rate(genuine, impostor).threshold
            )
        if fusion_weights is None:
            rates = []
            for scores, threshold in (
                (imu_scores, imu_threshold),
                (heart_scores, heartbeat_threshold),
            ):
                genuine, impostor = _distance_sets(scores)
                rates.append(
                    (
                        float((impostor <= threshold).mean()),
                        float((genuine > threshold).mean()),
                    )
                )
            w = calibrated_fusion_weights(rates)
            fusion_weights = (w[0], w[1])

        # A fused probe is refused only when *both* channels refused.
        fused_numeric = {
            key: [
                (
                    _fused_score(
                        imu_d,
                        imu_ref,
                        hb_d,
                        hb_ref,
                        imu_threshold,
                        heartbeat_threshold,
                        fusion_weights,
                    ),
                    imu_ref and hb_ref,
                )
                for imu_d, imu_ref, hb_d, hb_ref in values
            ]
            for key, values in fused_scores.items()
        }

        total = len(probes)
        modalities = {
            "imu": _cell_metrics(imu_scores, imu_threshold, imu_refusals, total),
            "heartbeat": _cell_metrics(
                heart_scores, heartbeat_threshold, heart_refusals, total
            ),
            "fused": _cell_metrics(fused_numeric, 1.0, fused_refusals, total),
        }
        if clean_metrics is None:
            clean_metrics = modalities
        row = {
            "scenario": scenario.name,
            "motion": scenario.motion,
            "degradation": scenario.degradation.name,
            "modalities": modalities,
            "deltas_vs_clean": {
                m: modalities[m]["eer"] - clean_metrics[m]["eer"]
                for m in MODALITIES
            },
        }
        rows.append(row)
        obs.inc("scenario_cells_total")
        for modality in MODALITIES:
            obs.set_gauge(
                "scenario_eer",
                modalities[modality]["eer"],
                scenario=scenario.name,
                modality=modality,
            )
            obs.set_gauge(
                "scenario_far",
                modalities[modality]["far"],
                scenario=scenario.name,
                modality=modality,
            )
            obs.set_gauge(
                "scenario_frr",
                modalities[modality]["frr"],
                scenario=scenario.name,
                modality=modality,
            )

    return {
        "calibration": {
            "imu_threshold": imu_threshold,
            "heartbeat_threshold": heartbeat_threshold,
            "fusion_weights": {
                "imu": fusion_weights[0],
                "heartbeat": fusion_weights[1],
            },
        },
        "matrix": rows,
    }


def run_attacks(
    system,
    heartbeat_verifier,
    recorder,
    population,
    attack_trials: int = 4,
    imu_threshold: float = 0.48,
    heartbeat_threshold: float = 0.32,
    fusion_weights: tuple[float, float] = (1.0, 1.0),
    seed: int = 0,
) -> list[dict]:
    """Population-scale attack FAR per modality.

    * ``replay`` -- the attacker steals the sealed template vector and
      presents it directly (:class:`repro.security.attacks.ReplayAttacker`).
      This surface only exists for the IMU pipeline: a presented vector
      carries no waveform, so the cardiac channel has nothing to score
      and the fused decision refuses it outright.
    * ``mimicry`` -- the attacker records *their own* mandible while
      imitating the victim's vocal habits
      (:class:`repro.security.attacks.ImpersonationAttacker`).  The
      recording carries the attacker's heartbeat, so even a fooled IMU
      match fails the cardiac check.
    """
    from repro.security.attacks import ImpersonationAttacker, ReplayAttacker

    rows = []

    # -- replay of the stolen template vector ---------------------------
    replay = ReplayAttacker()
    replay_hits = 0
    for person in population:
        stolen = system.enclave.unseal(person.person_id).template
        replay.steal(person.person_id, stolen)
        result = system.verify_presented(
            person.person_id, replay.stolen_template(person.person_id)
        )
        replay_hits += bool(result.accepted)
    replay_far = replay_hits / len(population)
    rows.append(
        {
            "attack": "replay",
            "trials": len(population),
            "far": {
                "imu": replay_far,
                # A bare vector has no cardiac channel: the fused
                # pipeline rejects vector presentations structurally.
                "heartbeat": 0.0,
                "fused": 0.0,
            },
            "notes": "fused path requires a live recording; presented "
            "vectors carry no heartbeat",
        }
    )

    # -- synthesized mimicry at population scale ------------------------
    mimic = ImpersonationAttacker(recorder)
    mimic_trials = 0
    hits = {m: 0 for m in MODALITIES}
    for victim_index, victim in enumerate(population):
        attacker_profile = population[(victim_index + 1) % len(population)]
        for trial in range(attack_trials):
            forged = recorder.record(
                mimic.mimic_profile(
                    attacker_profile,
                    victim,
                    np.random.default_rng(
                        np.random.SeedSequence([seed, victim_index, trial])
                    ),
                ),
                trial_index=900 + trial,
            )
            mimic_trials += 1
            imu_r = system.verify(victim.person_id, forged)
            hb_r = heartbeat_verifier.verify(victim.person_id, forged)
            imu_refused = imu_r.exit_stage == "refused"
            hb_refused = hb_r.exit_stage == "refused"
            fused = _fused_score(
                imu_r.distance,
                imu_refused,
                hb_r.distance,
                hb_refused,
                imu_threshold,
                heartbeat_threshold,
                fusion_weights,
            )
            hits["imu"] += imu_r.distance <= imu_threshold and not imu_refused
            hits["heartbeat"] += (
                hb_r.distance <= heartbeat_threshold and not hb_refused
            )
            hits["fused"] += fused <= 1.0 and not (imu_refused and hb_refused)
    rows.append(
        {
            "attack": "mimicry",
            "trials": mimic_trials,
            "far": {m: hits[m] / mimic_trials for m in MODALITIES},
            "notes": "attacker mimics vocal habits; the forged recording "
            "carries the attacker's own heartbeat",
        }
    )

    for row in rows:
        for modality in MODALITIES:
            obs.set_gauge(
                "scenario_attack_far",
                row["far"][modality],
                attack=row["attack"],
                modality=modality,
            )
    return rows


# ----------------------------------------------------------------------
# the bench behind ``python -m repro scenario-bench``
# ----------------------------------------------------------------------


def _scenario_metrics(snapshot: dict) -> dict:
    """The ``scenario_*`` series from a registry snapshot."""
    out: dict = {}
    for section in ("counters", "gauges"):
        for key, value in snapshot.get(section, {}).items():
            if key.startswith("scenario_"):
                out[key] = value
    return out


def run_scenario_bench(
    quick: bool = False, output=None, seed: int = 0
) -> dict:
    """Build the full rig and run the adversarial scenario matrix.

    Trains a small extractor on a condition-diverse hired corpus,
    enrolls a disjoint user population (IMU templates + heartbeat
    templates from the same enrollment captures), then scores the
    motion x degradation grid and the attack families.  The report
    lands in ``BENCH_scenarios.json`` when ``output`` is given.
    """
    import json
    import platform
    import sys
    from pathlib import Path

    from repro.config import (
        ExtractorConfig,
        MandiPassConfig,
        SamplingConfig,
        SecurityConfig,
        TrainingConfig,
    )
    from repro.core.system import MandiPass
    from repro.core.training import train_extractor
    from repro.datasets.cache import DatasetCache
    from repro.datasets.standard import generate_hired_corpus
    from repro.imu import Recorder
    from repro.physio import sample_population
    from repro.physio.heartbeat import HeartbeatVerifier

    num_people = 4 if quick else 6
    probe_trials = 2 if quick else 4
    enroll_trials = 4 if quick else 5
    attack_trials = 2 if quick else 4
    hired_people = 16 if quick else 24
    epochs = 10 if quick else 12

    # Long trials: the cardiac channel needs several beats (3.6 s keeps
    # the failure-to-acquire rate reasonable), the 'EMM' onset detector
    # finds the 0.45 s voiced burst regardless of trial length.
    sampling = SamplingConfig(duration_s=3.6, utterance_s=0.45)

    hired = generate_hired_corpus(
        num_people=hired_people,
        nominal_trials=6 if quick else 8,
        condition_trials=2 if quick else 3,
        cache=DatasetCache(),
    )
    extractor_config = ExtractorConfig(embedding_dim=64, channels=(4, 8, 16))
    model, history = train_extractor(
        hired.features,
        hired.labels,
        extractor_config=extractor_config,
        training_config=TrainingConfig(epochs=epochs, batch_size=64),
    )

    config = MandiPassConfig(
        sampling=sampling,
        extractor=model.config,
        security=SecurityConfig(
            template_dim=model.config.embedding_dim,
            projected_dim=model.config.embedding_dim,
            matrix_seed=7,
        ),
    )
    system = MandiPass(model, config=config)
    verifier = HeartbeatVerifier(rate_hz=SAMPLE_RATE_HZ)
    recorder = Recorder(sampling=sampling, seed=3, heartbeat=True)
    population = sample_population(num_people, num_people // 2, seed=7)

    for person in population:
        enrollment = [
            recorder.record(person, trial_index=i) for i in range(enroll_trials)
        ]
        system.enroll(person.person_id, enrollment)
        verifier.fit(person.person_id, enrollment)

    with obs.collecting() as registry:
        matrix = run_scenario_matrix(
            system,
            verifier,
            recorder,
            population,
            probe_trials=probe_trials,
            seed=seed,
        )
        calibration = matrix["calibration"]
        weights = calibration["fusion_weights"]
        attacks = run_attacks(
            system,
            verifier,
            recorder,
            population,
            attack_trials=attack_trials,
            imu_threshold=calibration["imu_threshold"],
            heartbeat_threshold=calibration["heartbeat_threshold"],
            fusion_weights=(weights["imu"], weights["heartbeat"]),
            seed=seed,
        )
        snapshot = registry.to_dict()

    rows = matrix["matrix"]
    clean_row = rows[0]
    hostile = max(
        rows[1:],
        key=lambda r: r["modalities"]["imu"]["eer"]
        - r["modalities"]["fused"]["eer"],
    )
    hostile_imu = hostile["modalities"]["imu"]["eer"]
    hostile_fused = hostile["modalities"]["fused"]["eer"]
    attack_far = {row["attack"]: row["far"] for row in attacks}

    report = {
        "quick": quick,
        "machine": {"python": platform.python_version(), "platform": sys.platform},
        "substrate": {
            "num_people": num_people,
            "probe_trials": probe_trials,
            "duration_s": sampling.duration_s,
            "training_accuracy": float(history.final_accuracy),
            "motions": sorted({r["motion"] for r in rows}),
            "degradations": sorted({r["degradation"] for r in rows}),
        },
        "calibration": calibration,
        "matrix": rows,
        "attacks": attacks,
        "metrics": _scenario_metrics(snapshot),
        "claims": {
            "matrix_full": (
                len({r["motion"] for r in rows}) >= 3
                and len({r["degradation"] for r in rows}) >= 3
                and len(attacks) >= 2
            ),
            "hostile_cell": hostile["scenario"],
            "hostile_imu_eer": hostile_imu,
            "hostile_fused_eer": hostile_fused,
            "fused_beats_imu_in_hostile_cell": hostile_fused
            < hostile_imu - 0.05,
            "fused_no_worse_in_clean": clean_row["modalities"]["fused"]["eer"]
            <= clean_row["modalities"]["imu"]["eer"] + 0.05,
            "replay_blocked_by_fusion": (
                attack_far["replay"]["fused"] == 0.0
                and attack_far["replay"]["imu"] > 0.0
            ),
            "mimicry_no_worse_fused": attack_far["mimicry"]["fused"]
            <= attack_far["mimicry"]["imu"],
        },
    }
    if output is not None:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
    return report
