"""Security scenario: template theft and revocation (Section VI).

An attacker exfiltrates the cancelable MandiblePrint template from the
earphone's secure enclave and replays it.  The user responds by
revoking and re-enrolling with a freshly drawn Gaussian matrix: the
stolen vector becomes useless while the user keeps verifying normally.

Run:  python examples/template_theft_response.py
"""

from repro import MandiPass, Recorder, TrainingConfig, sample_population, train_extractor
from repro.config import ExtractorConfig, MandiPassConfig, SecurityConfig
from repro.core.similarity import cosine_distance
from repro.datasets.cache import DatasetCache
from repro.datasets.standard import generate_hired_corpus
from repro.security.attacks import ReplayAttacker


def main() -> None:
    print("Preparing the device ...")
    corpus = generate_hired_corpus(
        num_people=24, nominal_trials=8, condition_trials=3, cache=DatasetCache()
    )
    extractor_config = ExtractorConfig(embedding_dim=128, channels=(8, 16, 32))
    model, _ = train_extractor(
        corpus.features,
        corpus.labels,
        extractor_config=extractor_config,
        training_config=TrainingConfig(epochs=12, batch_size=64, weight_decay=1e-4),
    )
    config = MandiPassConfig(
        extractor=extractor_config,
        security=SecurityConfig(
            template_dim=extractor_config.embedding_dim,
            projected_dim=extractor_config.embedding_dim,
            matrix_seed=99,
        ),
    )
    device = MandiPass(model, config=config)

    user = sample_population(8, 2, seed=0)[3]
    recorder = Recorder(seed=17)
    enrollment = [recorder.record(user, trial_index=i) for i in range(6)]
    device.enroll("bob", enrollment)
    print("bob enrolled; cancelable template sealed in the enclave")

    # ------------------------------------------------------------------
    # The attack: exfiltrate the sealed vector and replay it.
    # ------------------------------------------------------------------
    attacker = ReplayAttacker()
    attacker.steal("bob", device.stored_template("bob"))
    replay = device.verify_presented("bob", attacker.stolen_template("bob"))
    print(f"\nreplay BEFORE renewal: accepted={replay.accepted} "
          f"(distance {replay.distance:.4f}) -- the theft works")

    # ------------------------------------------------------------------
    # The response: revoke + re-enroll with a new Gaussian matrix.
    # ------------------------------------------------------------------
    print("\nbob renews: revoke the template, redraw the Gaussian matrix, "
          "re-enroll from fresh recordings")
    device.renew("bob", enrollment)

    replay_after = device.verify_presented("bob", attacker.stolen_template("bob"))
    print(f"replay AFTER renewal:  accepted={replay_after.accepted} "
          f"(distance {replay_after.distance:.4f}) -- the stolen vector is dead")

    genuine = device.verify("bob", recorder.record(user, trial_index=40))
    print(f"bob himself:           accepted={genuine.accepted} "
          f"(distance {genuine.distance:.4f}) -- legitimate use unharmed")

    # Why it works: the same MandiblePrint projected by two independent
    # Gaussian matrices is nearly orthogonal.
    old_new = cosine_distance(
        attacker.stolen_template("bob"), device.stored_template("bob")
    )
    print(f"\ncosine distance between old and new cancelable templates: "
          f"{old_new:.3f} (near-orthogonal)")

    assert replay.accepted and not replay_after.accepted and genuine.accepted


if __name__ == "__main__":
    main()
