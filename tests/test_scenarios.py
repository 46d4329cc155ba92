"""Unit tests for the adversarial scenario matrix building blocks.

The full-matrix integration (training a system, running every cell)
lives in ``benchmarks/test_scenario_matrix.py``; here we pin the
declarative pieces: degradation specs, the degradation operator itself,
grid ordering, and the refusal-aware scoring helpers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.eval.scenarios import (
    DegradationSpec,
    Scenario,
    _cell_metrics,
    _distance_sets,
    default_degradations,
    default_motions,
    degrade_recording,
    run_scenario_matrix,
    scenario_grid,
)

FULL_SCALE = 32767.0
#: Distance a refused probe carries, mirrors ``core.verification``.
REJECTED = 2.0


@pytest.fixture()
def recording(rng):
    return rng.normal(0.0, 500.0, (128, 6))


class TestDegradationSpec:
    def test_clean_default(self):
        spec = DegradationSpec()
        assert spec.is_clean
        assert spec.name == "clean"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"quant_bits": 1},
            {"quant_bits": 17},
            {"clock_jitter_s": -0.001},
            {"drop_axes": (6,)},
            {"drop_axes": (-1,)},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            DegradationSpec(**{"name": "x", **kwargs})

    def test_any_knob_clears_is_clean(self):
        assert not DegradationSpec("q", quant_bits=8).is_clean
        assert not DegradationSpec("j", clock_jitter_s=0.001).is_clean
        assert not DegradationSpec("d", drop_axes=(0,)).is_clean


class TestDegradeRecording:
    def test_clean_spec_is_identity(self, recording, rng):
        out = degrade_recording(
            recording, DegradationSpec(), FULL_SCALE, rng
        )
        np.testing.assert_array_equal(out, recording)
        assert out is not recording  # always a new array

    def test_quantization_lands_on_grid(self, recording, rng):
        spec = DegradationSpec("q8", quant_bits=8)
        out = degrade_recording(recording, spec, FULL_SCALE, rng)
        step = 2.0 * FULL_SCALE / 2.0**8
        np.testing.assert_allclose(out, np.round(out / step) * step)
        # 256-count resolution really is coarser than the input.
        assert np.unique(out).size < np.unique(recording).size

    def test_dropped_axes_read_zero(self, recording, rng):
        spec = DegradationSpec("gyro", drop_axes=(3, 4, 5))
        out = degrade_recording(recording, spec, FULL_SCALE, rng)
        assert not out[:, 3:].any()
        np.testing.assert_array_equal(out[:, :3], recording[:, :3])

    def test_jitter_preserves_shape_and_range(self, recording, rng):
        spec = DegradationSpec("jit", clock_jitter_s=0.002)
        out = degrade_recording(recording, spec, FULL_SCALE, rng)
        assert out.shape == recording.shape
        assert not np.array_equal(out, recording)
        for axis in range(6):  # interpolation cannot extrapolate
            assert out[:, axis].min() >= recording[:, axis].min()
            assert out[:, axis].max() <= recording[:, axis].max()

    def test_same_rng_bitwise_identical(self, recording):
        spec = DegradationSpec("jit", clock_jitter_s=0.002, quant_bits=10)
        a = degrade_recording(
            recording, spec, FULL_SCALE, np.random.default_rng(5)
        )
        b = degrade_recording(
            recording, spec, FULL_SCALE, np.random.default_rng(5)
        )
        np.testing.assert_array_equal(a, b)


class TestScenarioGrid:
    def test_full_cross_product_clean_first(self):
        grid = scenario_grid()
        assert len(grid) == len(default_motions()) * len(default_degradations())
        first = grid[0]
        assert first.motion == "static" and first.degradation.is_clean
        assert first.name == "static+clean"
        assert len({s.name for s in grid}) == len(grid)

    def test_custom_axes(self):
        motions = {"static": default_motions()["static"]}
        degradations = [DegradationSpec(), DegradationSpec("q", quant_bits=4)]
        grid = scenario_grid(motions, degradations)
        assert [s.name for s in grid] == ["static+clean", "static+q"]

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ConfigError):
            run_scenario_matrix(None, None, [], scenarios=[])


class TestRefusalAwareScoring:
    def test_distance_sets_drop_refused(self):
        scores = {
            ("u", "u"): [(0.1, False), (REJECTED, True)],
            ("u", "v"): [(0.9, False), (REJECTED, True), (0.8, False)],
        }
        genuine, impostor = _distance_sets(scores)
        np.testing.assert_array_equal(genuine, [0.1])
        np.testing.assert_array_equal(impostor, [0.9, 0.8])

    def test_cell_metrics_separates_fta(self):
        scores = {
            ("u", "u"): [(0.1, False), (0.2, False)],
            ("u", "v"): [(0.9, False), (0.8, False)],
        }
        metrics = _cell_metrics(scores, threshold=0.5, refusal_count=3, total=10)
        assert metrics["eer"] == 0.0
        assert metrics["far"] == 0.0
        assert metrics["frr"] == 0.0
        assert metrics["refusal_rate"] == pytest.approx(0.3)

    def test_cell_metrics_with_nothing_acquired(self):
        scores = {("u", "u"): [(REJECTED, True)], ("u", "v"): [(0.9, False)]}
        metrics = _cell_metrics(scores, threshold=0.5, refusal_count=1, total=1)
        assert metrics["eer"] == 0.5  # chance level, story told by FTA
        assert metrics["frr"] == 1.0


class TestScenarioDataclass:
    def test_name_concatenates(self):
        scenario = Scenario(
            "walk", default_motions()["walk"], DegradationSpec("q8", quant_bits=8)
        )
        assert scenario.name == "walk+q8"


class TestMatrixIntegration:
    """A tiny two-person, two-cell matrix through the real system.

    The full grid lives in ``benchmarks/test_scenario_matrix.py``; this
    keeps the matrix/attack runners exercised by tier-1 (calibration,
    refusal accounting, the clean-first guard) at a few seconds' cost.
    """

    @pytest.fixture(scope="class")
    def rig(self, trained_model):
        from repro import Recorder, sample_population
        from repro.config import MandiPassConfig, SamplingConfig, SecurityConfig
        from repro.core.system import MandiPass

        sampling = SamplingConfig(duration_s=3.6, utterance_s=0.45)
        system = MandiPass(
            trained_model,
            config=MandiPassConfig(
                sampling=sampling,
                extractor=trained_model.config,
                security=SecurityConfig(
                    template_dim=trained_model.config.embedding_dim,
                    projected_dim=trained_model.config.embedding_dim,
                    matrix_seed=7,
                ),
            ),
        )
        recorder = Recorder(sampling=sampling, seed=3)
        population = sample_population(2, 1, seed=7)
        for person in population:
            system.enroll(
                person.person_id,
                [recorder.record(person, trial_index=i) for i in range(4)],
            )
        return system, recorder, population

    @pytest.fixture(scope="class")
    def small_report(self, rig):
        system, recorder, population = rig
        scenarios = scenario_grid(
            {"static": default_motions()["static"]},
            [DegradationSpec(), DegradationSpec("gyro-drop", drop_axes=(3, 4, 5))],
        )
        return run_scenario_matrix(
            system, recorder, population, probe_trials=2, scenarios=scenarios
        )

    def test_calibrates_from_clean_cell(self, small_report):
        assert 0.0 < small_report["calibration"]["threshold"] < 2.0

    def test_clean_cell_deltas_are_zero(self, small_report):
        rows = small_report["matrix"]
        assert [r["scenario"] for r in rows] == [
            "static+clean", "static+gyro-drop",
        ]
        assert rows[0]["eer_delta_vs_clean"] == 0.0

    def test_gyro_drop_refuses_every_probe(self, small_report):
        """Three dead axes leave too few usable axes: every probe is a
        refusal, reported as such rather than folded into the EER."""
        cell = small_report["matrix"][1]
        assert cell["refusal_rate"] == 1.0
        assert cell["eer"] == 0.5
        assert cell["frr"] == 1.0

    def test_non_clean_first_cell_without_thresholds_raises(self, rig):
        system, recorder, population = rig
        hostile_only = [
            scenario_grid(
                {"static": default_motions()["static"]},
                [DegradationSpec("gyro-drop", drop_axes=(3, 4, 5))],
            )[0]
        ]
        with pytest.raises(ConfigError, match="static\\+clean"):
            run_scenario_matrix(
                system, recorder, population,
                probe_trials=1, scenarios=hostile_only,
            )

    def test_attacks_report_far(self, rig):
        from repro.eval.scenarios import run_attacks

        system, recorder, population = rig
        rows = run_attacks(system, recorder, population, attack_trials=1)
        by_name = {r["attack"]: r for r in rows}
        assert set(by_name) == {"replay", "mimicry"}
        assert by_name["replay"]["far"] == 1.0
        assert 0.0 <= by_name["mimicry"]["far"] <= 1.0
