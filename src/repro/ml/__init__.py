"""Classical-ML substrate: the paper's baseline classifiers.

Fig. 7(b) and Fig. 10(a) compare the biometric extractor against SVM,
KNN, decision tree, naive Bayes and a plain neural network.  This
package implements each from scratch on numpy, behind a common
fit/predict protocol (:mod:`repro.ml.base`).  The 36 statistical
features of Section V-A they classify are in :mod:`repro.ml.features`.
"""

from repro.ml.base import Estimator, accuracy, train_test_split
from repro.ml.knn import KNNClassifier
from repro.ml.mlp import MLPClassifier
from repro.ml.naive_bayes import GaussianNBClassifier
from repro.ml.svm import LinearSVMClassifier
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "DecisionTreeClassifier",
    "Estimator",
    "GaussianNBClassifier",
    "KNNClassifier",
    "LinearSVMClassifier",
    "MLPClassifier",
    "accuracy",
    "train_test_split",
]
