"""Property-based hardening of every fusion rule (hypothesis).

Covers both halves of :mod:`repro.core.fusion`: the multi-probe rules
(``fuse_mean_distance`` / ``fuse_min_distance`` / ``fuse_majority``)
and the multi-modal rules (``fuse_score_level`` /
``fuse_decision_level`` / ``calibrated_fusion_weights``), plus the
analytical :func:`fused_error_rates` helper against a brute-force
empirical simulation.

The invariants here are the contracts the scenario matrix leans on:
permutation invariance (no rule may care about probe order),
monotonicity (worsening any component score must never improve the
fused score), idempotence (fusing N copies of one result changes
nothing), and bounds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.fusion import (
    calibrated_fusion_weights,
    fuse_decision_level,
    fuse_majority,
    fuse_mean_distance,
    fuse_min_distance,
    fuse_score_level,
    fused_error_rates,
)
from repro.types import VerificationResult

MULTI_PROBE_RULES = (fuse_mean_distance, fuse_min_distance, fuse_majority)
DECISION_RULES = ("and", "or", "vote")

distances = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
thresholds = st.floats(min_value=0.05, max_value=1.9, allow_nan=False)
weights_st = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)


def _result(distance: float, threshold: float = 0.5) -> VerificationResult:
    return VerificationResult(
        accepted=distance <= threshold,
        distance=float(distance),
        threshold=float(threshold),
        user_id="u",
    )


def _modal_results(ds, ts) -> list[VerificationResult]:
    return [_result(d, t) for d, t in zip(ds, ts)]


class TestMultiProbeProperties:
    @given(st.lists(distances, min_size=1, max_size=7), st.randoms())
    def test_permutation_invariance(self, ds, rand):
        results = [_result(d) for d in ds]
        shuffled = list(results)
        rand.shuffle(shuffled)
        for rule in MULTI_PROBE_RULES:
            a, b = rule(results), rule(shuffled)
            assert a.accepted == b.accepted
            assert a.distance == pytest.approx(b.distance, abs=1e-12)

    @given(distances, thresholds, st.integers(1, 7))
    def test_idempotence(self, d, t, n):
        # Averaging N copies reintroduces float roundoff (~1 ulp), which
        # can flip acceptance exactly at the boundary d == t.
        assume(abs(d - t) > 1e-9)
        single = _result(d, t)
        for rule in MULTI_PROBE_RULES:
            fused = rule([single] * n)
            assert fused.accepted == single.accepted
            assert fused.distance == pytest.approx(single.distance)
            assert fused.threshold == single.threshold

    @given(
        st.lists(distances, min_size=2, max_size=6),
        st.data(),
    )
    def test_monotone_in_each_probe(self, ds, data):
        """Raising one probe's distance never lowers the fused score."""
        index = data.draw(st.integers(0, len(ds) - 1))
        bump = data.draw(st.floats(1e-6, 0.5))
        worse = list(ds)
        worse[index] = min(2.0, worse[index] + bump)
        for rule in (fuse_mean_distance, fuse_min_distance):
            before = rule([_result(d) for d in ds]).distance
            after = rule([_result(d) for d in worse]).distance
            assert after >= before - 1e-12

    @given(st.lists(distances, min_size=1, max_size=7))
    def test_majority_votes_match_count(self, ds):
        fused = fuse_majority([_result(d) for d in ds])
        votes = sum(d <= 0.5 for d in ds)
        assert fused.accepted == (votes * 2 > len(ds))


class TestMultiModalProperties:
    @given(
        st.lists(st.tuples(distances, thresholds), min_size=1, max_size=4),
        st.randoms(),
    )
    def test_score_level_permutation_invariance(self, pairs, rand):
        results = _modal_results(*zip(*pairs))
        ws = [1.0 + i for i in range(len(results))]
        order = list(range(len(results)))
        rand.shuffle(order)
        a = fuse_score_level(results, weights=ws)
        b = fuse_score_level(
            [results[i] for i in order], weights=[ws[i] for i in order]
        )
        assert a.accepted == b.accepted
        assert a.distance == pytest.approx(b.distance, abs=1e-12)

    @given(
        st.lists(st.tuples(distances, thresholds), min_size=1, max_size=4),
        st.randoms(),
    )
    def test_decision_level_permutation_invariance(self, pairs, rand):
        results = _modal_results(*zip(*pairs))
        ws = [1.0 + i for i in range(len(results))]
        order = list(range(len(results)))
        rand.shuffle(order)
        for rule in DECISION_RULES:
            a = fuse_decision_level(results, rule=rule, weights=ws)
            b = fuse_decision_level(
                [results[i] for i in order],
                rule=rule,
                weights=[ws[i] for i in order],
            )
            assert a.accepted == b.accepted
            assert a.distance == pytest.approx(b.distance, abs=1e-12)

    @given(distances, thresholds, st.integers(1, 4))
    def test_idempotence_across_modal_rules(self, d, t, n):
        assume(abs(d - t) > 1e-9)  # roundoff can flip the exact boundary
        single = _result(d, t)
        copies = [single] * n
        score = fuse_score_level(copies)
        assert score.accepted == single.accepted
        assert score.distance == pytest.approx(d / t)
        for rule in DECISION_RULES:
            fused = fuse_decision_level(copies, rule=rule)
            assert fused.accepted == single.accepted
            assert fused.distance == pytest.approx(d / t)

    @given(
        st.lists(st.tuples(distances, thresholds), min_size=2, max_size=4),
        st.data(),
    )
    def test_score_level_strictly_monotone(self, pairs, data):
        """The weighted mean must move when any one distance moves."""
        index = data.draw(st.integers(0, len(pairs) - 1))
        bump = data.draw(st.floats(1e-3, 0.5))
        ds, ts = map(list, zip(*pairs))
        before = fuse_score_level(_modal_results(ds, ts)).distance
        ds[index] = ds[index] + bump
        after = fuse_score_level(_modal_results(ds, ts)).distance
        assert after > before

    @given(st.lists(st.tuples(distances, thresholds), min_size=1, max_size=4))
    def test_and_at_most_or_accepts(self, pairs):
        """AND acceptance implies OR acceptance; fused distances order."""
        results = _modal_results(*zip(*pairs))
        fused_and = fuse_decision_level(results, rule="and")
        fused_or = fuse_decision_level(results, rule="or")
        if fused_and.accepted:
            assert fused_or.accepted
        assert fused_or.distance <= fused_and.distance + 1e-12

    @given(
        st.lists(st.tuples(distances, thresholds), min_size=1, max_size=4),
        st.lists(weights_st, min_size=1, max_size=4),
    )
    def test_score_level_bounded_by_components(self, pairs, ws):
        if len(ws) != len(pairs):
            ws = (ws * len(pairs))[: len(pairs)]
        results = _modal_results(*zip(*pairs))
        fused = fuse_score_level(results, weights=ws)
        norms = [r.distance / r.threshold for r in results]
        assert min(norms) - 1e-9 <= fused.distance <= max(norms) + 1e-9

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0, allow_nan=False),
                st.floats(0.0, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_calibrated_weights_positive_and_ordered(self, rates):
        ws = calibrated_fusion_weights(rates)
        assert len(ws) == len(rates)
        assert all(w > 0.0 for w in ws)
        errs = [(far + frr) / 2.0 for far, frr in rates]
        # A strictly better modality never gets a smaller weight.
        for i in range(len(rates)):
            for j in range(len(rates)):
                if errs[i] < errs[j]:
                    assert ws[i] >= ws[j] - 1e-12


class TestAnalyticalVsEmpirical:
    """``fused_error_rates`` against brute-force Bernoulli simulation."""

    @pytest.mark.parametrize("rule", ["all", "any", "majority"])
    @pytest.mark.parametrize("num_probes", [1, 2, 3, 5])
    def test_matches_simulation(self, rule, num_probes):
        frr, far = 0.12, 0.07
        rng = np.random.default_rng(20260808)
        trials = 40_000
        genuine_rejects = (
            rng.random((trials, num_probes)) < frr
        )  # True = probe rejects a genuine user
        impostor_accepts = rng.random((trials, num_probes)) < far
        genuine_accepts = ~genuine_rejects
        if rule == "all":
            fused_acc_genuine = genuine_accepts.all(axis=1)
            fused_acc_impostor = impostor_accepts.all(axis=1)
        elif rule == "any":
            fused_acc_genuine = genuine_accepts.any(axis=1)
            fused_acc_impostor = impostor_accepts.any(axis=1)
        else:
            fused_acc_genuine = genuine_accepts.sum(axis=1) * 2 > num_probes
            fused_acc_impostor = impostor_accepts.sum(axis=1) * 2 > num_probes
        expected_frr, expected_far = fused_error_rates(
            frr, far, num_probes, rule=rule
        )
        assert float((~fused_acc_genuine).mean()) == pytest.approx(
            expected_frr, abs=0.01
        )
        assert float(fused_acc_impostor.mean()) == pytest.approx(
            expected_far, abs=0.01
        )

    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(1, 9),
        st.sampled_from(["all", "any", "majority"]),
    )
    def test_rates_stay_probabilities(self, frr, far, n, rule):
        fused_frr, fused_far = fused_error_rates(frr, far, n, rule=rule)
        assert 0.0 <= fused_frr <= 1.0
        assert 0.0 <= fused_far <= 1.0

    @given(st.floats(0.01, 0.49), st.floats(0.01, 0.49), st.integers(1, 4))
    def test_all_and_any_are_duals(self, frr, far, n):
        """Swapping the rule swaps the roles of the two error rates."""
        frr_all, far_all = fused_error_rates(frr, far, n, rule="all")
        frr_any, far_any = fused_error_rates(far, frr, n, rule="any")
        assert frr_all == pytest.approx(far_any, abs=1e-12)
        assert far_all == pytest.approx(frr_any, abs=1e-12)
