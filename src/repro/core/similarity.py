"""Cosine distance and decision logic (Section III-B / VII-A).

See DESIGN.md: the paper's "similarity" numbers (same-user 0.4884 <
different-user 0.7032, threshold 0.5485) are only consistent when read
as a cosine *distance*, lower = more alike.  We implement
``d(u, v) = 1 - cos(u, v)`` (range [0, 2]) and **accept** a probe when
``d <= threshold``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ShapeError


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """``1 - cos(u, v)``; zero vectors are maximally distant (1.0).

    The clip takes ``max`` before ``min``, so a NaN cosine (a
    non-finite vector) clips to ``-1`` and scores the maximal distance
    2.0, which no threshold accepts.  Finite cosines clip as either
    order would.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if u.shape != v.shape:
        raise ShapeError(f"vector shapes differ: {u.shape} vs {v.shape}")
    norm_u = float(np.linalg.norm(u))
    norm_v = float(np.linalg.norm(v))
    if norm_u == 0.0 or norm_v == 0.0:
        return 1.0
    cos = float(np.dot(u, v) / (norm_u * norm_v))
    return 1.0 - min(1.0, max(-1.0, cos))


def _unit_cosine_distance(u: np.ndarray, v: np.ndarray, norm_v: float) -> float:
    """:func:`cosine_distance`'s arithmetic on trusted float64 1-D vectors.

    It repeats that function operation for operation — ``sqrt(u . u)``
    (what ``np.linalg.norm`` computes for a 1-D vector), the dot
    product and the same clip — but skips the conversions and shape
    checks, and takes ``norm_v`` precomputed, exactly
    ``float(np.linalg.norm(v))``.  The lean scorers below share it, so
    they return ``cosine_distance``'s value bitwise.
    """
    norm_u = math.sqrt(u.dot(u))
    if norm_u == 0.0 or norm_v == 0.0:
        return 1.0
    cos = float(u.dot(v)) / (norm_u * norm_v)
    return 1.0 - min(1.0, max(-1.0, cos))


def projected_cosine_distance(
    probe: np.ndarray,
    matrix: np.ndarray,
    template: np.ndarray,
    template_norm: float,
) -> float:
    """``cosine_distance(probe @ matrix, template)``, bitwise, without wrappers.

    The 1:N exact stage's scorer.  ``probe`` must be float64 1-D,
    ``matrix`` float64 ``(len(probe), len(template))``, ``template``
    float64 1-D and ``template_norm`` exactly
    ``float(np.linalg.norm(template))``.
    """
    return _unit_cosine_distance(probe @ matrix, template, template_norm)


def pairwise_cosine_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All distances between rows of ``a`` (n, d) and ``b`` (m, d)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise ShapeError("dimension mismatch between the two batches")
    norm_a = np.linalg.norm(a, axis=1, keepdims=True)
    norm_b = np.linalg.norm(b, axis=1, keepdims=True)
    safe_a = np.where(norm_a == 0.0, 1.0, norm_a)
    safe_b = np.where(norm_b == 0.0, 1.0, norm_b)
    cos = (a / safe_a) @ (b / safe_b).T
    cos = np.clip(cos, -1.0, 1.0)
    cos = np.where((norm_a == 0.0) | (norm_b.T == 0.0), 0.0, cos)
    return 1.0 - cos


def distances_to_template(probes: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Cosine distance of every probe row to one template, ``(B,)``.

    The verify engine's scorer: row ``b`` is bitwise
    ``cosine_distance(probes[b], template)``, the rule replayed vectors
    and the 1:N exact stage decide by.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    template = np.asarray(template, dtype=np.float64).reshape(-1)
    if probes.shape[1] != template.shape[0]:
        raise ShapeError(
            f"probes must be (B, {template.shape[0]}), got {probes.shape}"
        )
    norm = math.sqrt(template.dot(template))
    return np.array(
        [_unit_cosine_distance(probe, template, norm) for probe in probes]
    )


def accept(distance: float, threshold: float) -> bool:
    """The verification decision: accept iff ``distance <= threshold``."""
    return bool(distance <= threshold)


SIGMOID_MIDPOINT = 0.5


def center_embedding(embedding: np.ndarray) -> np.ndarray:
    """Centre sigmoid-range MandiblePrints at the sigmoid midpoint.

    Raw MandiblePrints live in ``(0, 1)`` (sigmoid outputs), so all
    vectors crowd one orthant and cosine distances compress near zero.
    Subtracting the midpoint restores a signed space where cosine
    distances spread over a range comparable to the paper's reported
    values (genuine ~0.49, impostor ~0.70, threshold 0.5485).
    """
    return np.asarray(embedding, dtype=np.float64) - SIGMOID_MIDPOINT


def mandibleprint_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine distance between two centred MandiblePrint vectors."""
    return cosine_distance(center_embedding(u), center_embedding(v))
