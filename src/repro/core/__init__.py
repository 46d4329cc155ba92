"""The paper's primary contribution: MandiblePrint extraction and the
MandiPass authentication system.

* :mod:`repro.core.extractor` -- the two-branch CNN of Fig. 8 and its
  frozen serving forward,
* :mod:`repro.core.mandibleprint` -- embedding extraction,
* :mod:`repro.core.similarity` -- cosine distance and decisions,
* :mod:`repro.core.enrollment` / :mod:`repro.core.verification` -- the
  two phases of Fig. 3,
* :mod:`repro.core.engine` -- the batch-first inference engine,
* :mod:`repro.core.gallery` -- the sharded 1:N identification gallery,
* :mod:`repro.core.system` -- the ``MandiPass`` facade.

One module sits outside the serving path and is not imported here:
:mod:`repro.core.training` (VSP-side training, Section V-C).
"""

from repro.core.engine import BatchItemFailure, BatchOutcome, InferenceEngine
from repro.core.extractor import FrozenExtractor, TwoBranchExtractor
from repro.core.frontend import (
    FrontEnd,
    GradientFrontEnd,
    RectifiedSpectralFrontEnd,
    make_frontend,
)
from repro.core.mandibleprint import extract_embeddings
from repro.core.similarity import cosine_distance, pairwise_cosine_distance
from repro.core.system import MandiPass

__all__ = [
    "BatchItemFailure",
    "BatchOutcome",
    "FrontEnd",
    "FrozenExtractor",
    "GradientFrontEnd",
    "InferenceEngine",
    "MandiPass",
    "RectifiedSpectralFrontEnd",
    "make_frontend",
    "TwoBranchExtractor",
    "cosine_distance",
    "extract_embeddings",
    "pairwise_cosine_distance",
]
