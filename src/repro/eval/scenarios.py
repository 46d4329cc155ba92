"""Adversarial scenario matrix: hostile conditions for the IMU pipeline.

The paper evaluates robustness one condition at a time (Sections
VII-B/C/D); this module crosses *motion artifacts* (static / walking /
driving -- driving's engine hum sits inside the 20-170 Hz pass band,
unlike gait) with *progressive sensor degradation* (coarse
re-quantisation, sampling-clock jitter, gyroscope axis dropout) and
replays + synthesized mimicry attacks at population scale, and scores
every cell through the MandiblePrint pipeline
(``MandiPass.verify_many``).

Each cell reports the EER, FAR/FRR at the threshold calibrated on the
clean cell, and the refusal (failure-to-acquire) rate separately
(DESIGN.md §4l): gyro dropout leaves fewer than ``min_usable_axes``
usable axes, so the pipeline refuses every probe rather than deciding
on half a sensor.

``benchmarks/test_scenario_matrix.py`` runs the matrix through
:func:`run_scenario_bench` and writes ``BENCH_scenarios.json``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import SAMPLE_RATE_HZ
from repro.errors import ConfigError
from repro.eval.metrics import equal_error_rate
from repro.obs import runtime as obs
from repro.physio.conditions import RecordingCondition
from repro.types import NUM_AXES, Activity, RawRecording


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
        if any(not 0 <= a < NUM_AXES for a in self.drop_axes):
            raise ConfigError(f"drop_axes entries must lie in [0, {NUM_AXES})")

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
        t = np.arange(num) / SAMPLE_RATE_HZ
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
    """EER + FAR/FRR at the calibrated threshold for one cell."""
    genuine, impostor = _distance_sets(scores)
    if genuine.size and impostor.size:
        eer = float(equal_error_rate(genuine, impostor).eer)
    else:
        # Nothing acquired on one side: the pipeline is useless in this
        # cell; chance-level EER plus the refusal rate tell that story.
        eer = 0.5
    return {
        "eer": eer,
        "far": float((impostor <= threshold).mean()) if impostor.size else 0.0,
        "frr": float((genuine > threshold).mean()) if genuine.size else 1.0,
        "refusal_rate": refusal_count / total if total else 0.0,
    }


def run_scenario_matrix(
    system,
    recorder,
    population,
    probe_trials: int = 6,
    probe_offset: int = 100,
    scenarios: list[Scenario] | None = None,
    threshold: float | None = None,
    seed: int = 0,
) -> dict:
    """Score every scenario cell.

    Args:
        system: a :class:`~repro.core.system.MandiPass` with every
            member of ``population`` enrolled.
        recorder: the :class:`~repro.imu.Recorder` used to capture
            probes.
        population: the enrolled :class:`PersonProfile` list.
        probe_trials: probes per person per cell.
        probe_offset: trial-index offset separating probes from
            enrollment captures.
        scenarios: cells to run; the default grid when ``None``.  The
            first clean cell calibrates the threshold when it is not
            supplied.
        threshold: operating threshold; when ``None`` it is calibrated
            at the clean cell's EER point.
        seed: degradation randomness.

    Returns:
        ``{"calibration": {"threshold": ...}, "matrix": [row, ...]}``,
        one row per cell with its ``eer``/``far``/``frr``/
        ``refusal_rate`` and ``eer_delta_vs_clean``; also emits
        ``scenario_*`` metrics into :mod:`repro.obs`.
    """
    scenarios = scenarios if scenarios is not None else scenario_grid()
    if not scenarios:
        raise ConfigError("need at least one scenario cell")
    if threshold is None and (
        scenarios[0].motion != "static" or not scenarios[0].degradation.is_clean
    ):
        raise ConfigError(
            "threshold not given and the first cell is not "
            "static+clean; pass a threshold or reorder scenarios"
        )
    full_scale = recorder.device.full_scale_counts

    rows = []
    clean_eer: float | None = None
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
                        raw, scenario.degradation, full_scale, cell_rng
                    )
                )
                owners.append(person.person_id)

        # -- distances against every template ---------------------------
        scores: dict = {}
        refusals = 0
        for person in population:
            results = system.verify_many(person.person_id, probes)
            for owner, result in zip(owners, results):
                refused = result.exit_stage == "refused"
                scores.setdefault((person.person_id, owner), []).append(
                    (result.distance, refused)
                )
                # A refusal is the probe's, not the template's: count
                # each probe once.
                if person is population[0]:
                    refusals += refused

        # -- calibration from the clean cell ----------------------------
        if threshold is None:
            genuine, impostor = _distance_sets(scores)
            threshold = float(equal_error_rate(genuine, impostor).threshold)

        metrics = _cell_metrics(scores, threshold, refusals, len(probes))
        if clean_eer is None:
            clean_eer = metrics["eer"]
        rows.append(
            {
                "scenario": scenario.name,
                "motion": scenario.motion,
                "degradation": scenario.degradation.name,
                **metrics,
                "eer_delta_vs_clean": metrics["eer"] - clean_eer,
            }
        )
        obs.inc("scenario_cells_total")
        for name in ("eer", "far", "frr"):
            obs.set_gauge(
                f"scenario_{name}", metrics[name], scenario=scenario.name
            )

    return {"calibration": {"threshold": threshold}, "matrix": rows}


def run_attacks(
    system,
    recorder,
    population,
    attack_trials: int = 4,
    threshold: float = 0.48,
    seed: int = 0,
) -> list[dict]:
    """Population-scale attack FAR.

    * ``replay`` -- the attacker steals the sealed template vector and
      presents it directly (:class:`repro.security.attacks.ReplayAttacker`),
      decided at the system's own threshold.
    * ``mimicry`` -- the attacker records *their own* mandible while
      imitating the victim's vocal habits
      (:class:`repro.security.attacks.ImpersonationAttacker`), decided
      at ``threshold``.
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
    rows.append(
        {
            "attack": "replay",
            "trials": len(population),
            "far": replay_hits / len(population),
            "notes": "the stolen template vector presented directly",
        }
    )

    # -- synthesized mimicry at population scale ------------------------
    mimic = ImpersonationAttacker(recorder)
    mimic_trials = mimic_hits = 0
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
            result = system.verify(victim.person_id, forged)
            mimic_hits += (
                result.distance <= threshold and result.exit_stage != "refused"
            )
    rows.append(
        {
            "attack": "mimicry",
            "trials": mimic_trials,
            "far": mimic_hits / mimic_trials,
            "notes": "attacker mimics vocal habits on their own mandible",
        }
    )

    for row in rows:
        obs.set_gauge("scenario_attack_far", row["far"], attack=row["attack"])
    return rows


# ----------------------------------------------------------------------
# the bench behind ``benchmarks/test_scenario_matrix.py``
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
    enrolls a disjoint user population, then scores the motion x
    degradation grid and the attack families.  The report lands in
    ``BENCH_scenarios.json`` when ``output`` is given.
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

    num_people = 4 if quick else 6
    probe_trials = 2 if quick else 4
    enroll_trials = 4 if quick else 5
    attack_trials = 2 if quick else 4
    hired_people = 16 if quick else 24
    epochs = 10 if quick else 12

    # Long trials with a short utterance: the tracked report was measured
    # at these settings, and the 'EMM' onset detector finds the 0.45 s
    # voiced burst regardless of trial length.  The default 0.6 s trials
    # give different figures (static+clean EER 0.042, drive+clean 0.338).
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
    recorder = Recorder(sampling=sampling, seed=3)
    population = sample_population(num_people, num_people // 2, seed=7)

    for person in population:
        enrollment = [
            recorder.record(person, trial_index=i) for i in range(enroll_trials)
        ]
        system.enroll(person.person_id, enrollment)

    with obs.collecting() as registry:
        matrix = run_scenario_matrix(
            system, recorder, population, probe_trials=probe_trials, seed=seed
        )
        calibration = matrix["calibration"]
        attacks = run_attacks(
            system,
            recorder,
            population,
            attack_trials=attack_trials,
            threshold=calibration["threshold"],
            seed=seed,
        )
        snapshot = registry.to_dict()

    rows = matrix["matrix"]
    hostile = max(rows[1:], key=lambda r: r["eer"])

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
            "hostile_eer": hostile["eer"],
        },
    }
    if output is not None:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
    return report
