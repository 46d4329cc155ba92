"""Fig. 10(a): the biometric extractor vs classical classifiers.

Paper: with 80 %/20 % splits over the 34 users, the extractor (BE)
reaches 90.54 % classification accuracy, ahead of SVM, NB, DT, KNN and
a plain NN.

On the synthetic substrate, closed-set classification of enrolled users
is easy for *any* strong classifier (simulated trials are more regular
than real ones), so the classification table alone cannot separate the
approaches the way the paper's data does.  This bench therefore reports
both views:

* the paper's classification protocol (BE must be in the leading pack
  and beat the paper's 90.54 % bar), and
* the verification comparison that motivates the deep pipeline: EER of
  each feature family on unseen-user pairs (BE clearly best; the
  paper's own gradient features, fed to classical metrics, collapse).
"""

from repro.config import TrainingConfig
from repro.core.training import evaluate_classification, train_extractor
from repro.datasets.splits import per_person_split
from repro.eval.metrics import equal_error_rate
from repro.eval.pairs import genuine_impostor_distances
from repro.eval.reporting import render_table
from repro.ml import (
    DecisionTreeClassifier,
    GaussianNBClassifier,
    KNNClassifier,
    LinearSVMClassifier,
    MLPClassifier,
)

from conftest import once

PAPER_BE_ACCURACY = 0.9054


def test_fig10a_classifier_comparison(benchmark, cache, users, baseline_eer):
    import dataclasses

    from repro.datasets.standard import user_spec

    train_mask, test_mask = per_person_split(users.labels, 0.2, seed=0)
    flat = users.features.reshape(len(users), -1)
    be_eer = baseline_eer[0].eer

    def run():
        accuracies = {}
        classifiers = {
            "SVM": LinearSVMClassifier(epochs=15),
            "NB": GaussianNBClassifier(),
            "DT": DecisionTreeClassifier(max_depth=10),
            "KNN": KNNClassifier(k=5),
            "NN": MLPClassifier(epochs=40),
        }
        for name, clf in classifiers.items():
            clf.fit(flat[train_mask], users.labels[train_mask])
            accuracies[name] = clf.score(flat[test_mask], users.labels[test_mask])

        model, _ = train_extractor(
            users.features[train_mask],
            users.labels[train_mask],
            training_config=TrainingConfig(epochs=20, batch_size=64, weight_decay=1e-4),
        )
        accuracies["BE"] = evaluate_classification(
            model, users.features[test_mask], users.labels[test_mask]
        )

        # Verification view: EER per feature family on unseen-user pairs.
        gradient_users = cache.get(
            dataclasses.replace(
                user_spec(num_people=34, trials_per_person=30),
                frontend="gradient",
            )
        )
        grad_flat = gradient_users.features.reshape(len(gradient_users), -1)
        g, i = genuine_impostor_distances(grad_flat, gradient_users.labels)
        gradient_eer = equal_error_rate(g, i).eer
        return accuracies, gradient_eer

    accuracies, gradient_eer = once(benchmark, run)

    print()
    rows = [[name, f"{acc:.4f}"] for name, acc in accuracies.items()]
    rows.append(["BE (paper)", f"{PAPER_BE_ACCURACY:.4f}"])
    print(render_table(
        ["classifier", "accuracy"], rows,
        title="Fig. 10(a) - classification accuracy, 34 users, 80/20 split",
    ))
    print(render_table(
        ["feature family", "verification EER"],
        [
            ["paper gradient features + cosine", f"{gradient_eer:.4f}"],
            ["deep MandiblePrint (BE)", f"{be_eer:.4f}"],
        ],
        title="Fig. 10(a) companion - unseen-user verification",
    ))

    # Shape: the BE clears the paper's accuracy bar and sits in the
    # leading pack on the (substrate-easy) classification task ...
    best_classical = max(v for k, v in accuracies.items() if k != "BE")
    assert accuracies["BE"] > PAPER_BE_ACCURACY
    assert accuracies["BE"] > best_classical - 0.05
    # ... and is the only representation that survives the verification
    # task the system actually performs.
    assert be_eer < 0.3 * gradient_eer
