"""Section VII-G: the four attack models.

Paper results (attacker VSR): zero-effort 0 %, vibration-aware 1.28 %
(= the EER), impersonation 1.30 %, replay 0.6 % after matrix renewal.
"""

import numpy as np

from repro.core.mandibleprint import extract_embeddings
from repro.core.similarity import center_embedding, cosine_distance
from repro.core.verification import verify_presented_vector
from repro.dsp.pipeline import Preprocessor
from repro.core.frontend import make_frontend
from repro.errors import SignalError
from repro.eval.reporting import render_table
from repro.imu import Recorder
from repro.physio import sample_population
from repro.security import CancelableTransform
from repro.security.attacks import (
    ImpersonationAttacker,
    ReplayAttacker,
    ZeroEffortAttacker,
)

from conftest import once

PAPER = {
    "zero_effort": 0.0,
    "vibration_aware": 0.0128,
    "impersonation": 0.0130,
    "replay": 0.006,
}


def test_security_four_attacks(
    benchmark, production_model, users, enrolled, operating_threshold, baseline_eer
):
    templates, _, _ = enrolled
    preprocessor = Preprocessor()
    frontend = make_frontend("spectral")
    recorder = Recorder(seed=55)
    # Five attackers drawn from a population MandiPass has never seen.
    attackers = sample_population(5, 1, seed=777)
    victims = users.profiles[:5]

    def embed_recording(recording):
        signal_array = preprocessor.process(recording)
        features = frontend.transform(signal_array)
        return center_embedding(
            extract_embeddings(production_model, features[None])
        )[0]

    def run():
        results = {}

        # Zero-effort: 20 silent attempts per attacker (paper: 5 x 20).
        zero = ZeroEffortAttacker(recorder)
        accepted = 0
        total = 0
        for attacker in attackers:
            for trial in range(20):
                forged = zero.forge_recording(attacker, trial_index=trial)
                try:
                    emb = embed_recording(forged)
                except SignalError:
                    total += 1
                    continue  # rejected: no vibration
                distances = [
                    cosine_distance(emb, template) for template in templates[:5]
                ]
                accepted += int(min(distances) <= operating_threshold)
                total += 1
        results["zero_effort"] = accepted / total

        # Vibration-aware: the attacker's own voicing = impostor trials;
        # the paper equates the attacker VSR with the EER.
        results["vibration_aware"] = baseline_eer[0].eer

        # Impersonation: each attacker mimics each victim's voicing.
        imp = ImpersonationAttacker(recorder)
        accepted = 0
        total = 0
        for attacker in attackers:
            for v_idx, victim in enumerate(victims):
                for trial in range(4):
                    forged = imp.forge_recording(attacker, victim, trial_index=trial)
                    try:
                        emb = embed_recording(forged)
                    except SignalError:
                        total += 1
                        continue
                    d = cosine_distance(emb, templates[v_idx])
                    accepted += int(d <= operating_threshold)
                    total += 1
        results["impersonation"] = accepted / total

        # Replay: steal projected templates, user renews the matrix.
        replay = ReplayAttacker()
        accepted = 0
        total = 0
        for v_idx in range(len(templates)):
            old = CancelableTransform(templates.shape[1], seed=1000 + v_idx)
            stolen = old.apply(templates[v_idx])
            replay.steal(f"u{v_idx}", stolen)
            renewed = old.renew()
            new_template = renewed.apply(templates[v_idx])
            result = verify_presented_vector(
                f"u{v_idx}", replay.stolen_template(f"u{v_idx}"),
                new_template, operating_threshold,
            )
            accepted += int(result.accepted)
            total += 1
        results["replay"] = accepted / total
        return results

    results = once(benchmark, run)

    print()
    rows = [
        [name, PAPER[name], round(value, 4)]
        for name, value in results.items()
    ]
    print(render_table(
        ["attack", "paper attacker-VSR", "measured attacker-VSR"], rows,
        title="Section VII-G - security assessment",
    ))

    # Shape: zero-effort fails completely; impersonation is barely
    # better than blind imposture; replay dies after renewal.
    assert results["zero_effort"] <= 0.01
    # Our synthetic biometric leans more on F0 than real mandibles
    # (DESIGN.md 4b), so pitch mimicry gains more than the paper's
    # 1.30 %; it must still fail the vast majority of attempts.
    assert results["impersonation"] < 0.25
    assert results["replay"] < 0.1
