"""The gallery scale benchmark: U-sweep for the incremental cascade.

Proves the two claims the sharded gallery was built for, with synthetic
populations large enough to show the asymptotics (the physiological
substrate cannot enroll 100 000 users in benchmark time):

* **updates are O(1) in U** — post-warm enroll / renew / revoke
  latency stays flat (within 2x) from U=1 000 to U=100 000, versus the
  O(U) full rebuild an invalidation-based design pays per mutation;
* **the cascade is sub-linear and exact** — identification through
  prescreen + rerank beats one-gemm full scoring (every user's matrix
  stacked into one ``(in, U * out)`` projection, the baseline
  :func:`_dense_scorer` builds) from U=10 000 up, while every decision
  (user *and* distance) stays bitwise identical to per-user loop
  scoring.  The two are timed in alternation and compared by their
  medians over ``repeats`` rounds.

Synthetic users mirror :class:`~repro.security.cancelable.CancelableTransform`
exactly: matrix ``default_rng(seed).normal(0, 1/sqrt(in), (in, out))``.
The sweep feeds the sharded gallery the same resident matrices the
one-gemm baseline stacks and the loop oracle scans, mirroring the
facade, where ``transform.matrix`` is resident too.

Results land in ``BENCH_gallery.json`` at the repo root (see
``benchmarks/test_gallery_scale.py`` and ``python -m repro
gallery-bench``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.config import GalleryConfig
from repro.core.gallery.sharded import ShardedGallery
from repro.core.similarity import cosine_distance
from repro.obs import runtime as obs
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS

RESULTS_PATH = Path(__file__).resolve().parents[4] / "BENCH_gallery.json"

QUICK_SIZES = (1_000, 10_000)
FULL_SIZES = (1_000, 10_000, 100_000)

IN_DIM = 64
OUT_DIM = 64
_SEED_BASE = 0x6A11E47


def user_seed(index: int) -> int:
    return _SEED_BASE + index


def user_matrix(index: int) -> np.ndarray:
    """The synthetic Gaussian matrix for user ``index`` (deterministic)."""
    rng = np.random.default_rng(user_seed(index))
    return rng.normal(0.0, 1.0 / np.sqrt(IN_DIM), size=(IN_DIM, OUT_DIM))


def user_template(index: int) -> np.ndarray:
    rng = np.random.default_rng(user_seed(index) ^ 0x7E3)
    return rng.normal(0.0, 1.0, size=OUT_DIM)


def _median_of(repeats: int, func) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _interleaved_medians(repeats: int, first, second) -> tuple[float, float]:
    """Median wall times of two jobs timed in alternation.

    Alternating the two per repeat exposes both to the same drift of a
    shared machine, so their ratio compares like with like; timing one
    block of repeats after the other lets a load spike land on one side
    only and flip a speed bar either way.
    """
    times: tuple[list[float], list[float]] = ([], [])
    for _ in range(repeats):
        for func, samples in zip((first, second), times):
            start = time.perf_counter()
            func()
            samples.append(time.perf_counter() - start)
    return float(np.median(times[0])), float(np.median(times[1]))


def _build_sharded(
    num_users: int,
    config: GalleryConfig,
    matrices: list[np.ndarray],
    templates: list[np.ndarray],
) -> tuple:
    """(gallery, build_seconds): fresh gallery, all users, one sync."""
    gallery = ShardedGallery(config)
    start = time.perf_counter()
    for index in range(num_users):
        gallery.upsert(f"u{index}", matrices[index], templates[index])
    gallery.sync()
    return gallery, time.perf_counter() - start


def _dense_scorer(matrices: list[np.ndarray], templates: list[np.ndarray]):
    """The one-gemm full-scoring baseline: ``probes -> (B, U)`` distances.

    Stacks every user's matrix into one ``(in, U * out)`` projection and
    pre-normalises the templates (a zero template stays zero and scores
    the neutral 1.0), so a ``(B, in)`` probe batch costs one matmul and
    one einsum of cosine numerators.  The stacking happens here, outside
    the timed scoring call.
    """
    stacked = np.stack(matrices)
    num_users, in_dim, out_dim = stacked.shape
    projection = (
        stacked.transpose(1, 0, 2).reshape(in_dim, num_users * out_dim).copy()
    )
    temps = np.stack(templates)
    norms = np.linalg.norm(temps, axis=1, keepdims=True)
    templates_unit = temps / np.where(norms == 0.0, 1.0, norms)

    def score(probes: np.ndarray) -> np.ndarray:
        projected = (probes @ projection).reshape(
            probes.shape[0], num_users, out_dim
        )
        numerators = np.einsum("buo,uo->bu", projected, templates_unit)
        norms = np.sqrt(np.einsum("buo,buo->bu", projected, projected))
        cosines = np.where(
            norms == 0.0, 0.0, numerators / np.where(norms == 0.0, 1.0, norms)
        )
        return 1.0 - np.clip(cosines, -1.0, 1.0)

    return score


def _loop_best(
    probe: np.ndarray, matrices: list[np.ndarray], templates: list[np.ndarray]
) -> tuple[int, float]:
    """The per-user loop oracle: strict-min, first enrolled wins ties."""
    best_index, best_distance = -1, np.inf
    for index, (matrix, template) in enumerate(zip(matrices, templates)):
        distance = cosine_distance(probe @ matrix, template)
        if distance < best_distance:
            best_index, best_distance = index, distance
    return best_index, best_distance


def gallery_benchmark(
    quick: bool = True,
    sizes: tuple[int, ...] | None = None,
    config: GalleryConfig | None = None,
    num_timing_probes: int = 8,
    num_parity_probes: int = 4,
    repeats: int = 7,
    update_repeats: int = 15,
    seed: int = 7,
) -> dict:
    """Run the U-sweep and return the results document (pure dict)."""
    sizes = sizes if sizes is not None else (QUICK_SIZES if quick else FULL_SIZES)
    config = config if config is not None else GalleryConfig()
    rng = np.random.default_rng(seed)
    timing_probes = rng.normal(size=(num_timing_probes, IN_DIM))
    # Parity probes include the zero probe (the all-ties edge case).
    parity_probes = np.concatenate(
        [rng.normal(size=(num_parity_probes, IN_DIM)), np.zeros((1, IN_DIM))]
    )

    max_users = max(sizes)
    matrices = [user_matrix(index) for index in range(max_users)]
    templates = [user_template(index) for index in range(max_users)]

    sweep = []
    for num_users in sizes:
        gallery, build_s = _build_sharded(num_users, config, matrices, templates)

        # -- identification: cascade vs one gemm vs per-user loop ------
        dense = _dense_scorer(matrices[:num_users], templates[:num_users])
        gallery.best_match(timing_probes)  # warm caches
        dense(timing_probes)
        with obs.collecting() as registry:
            cascade_s, dense_s = _interleaved_medians(
                repeats,
                lambda: gallery.best_match(timing_probes),
                lambda: dense(timing_probes),
            )
        pool = registry.histogram(
            "gallery_rerank_pool", buckets=DEFAULT_SIZE_BUCKETS
        )
        loop_start = time.perf_counter()
        oracle = [
            _loop_best(probe, matrices[:num_users], templates[:num_users])
            for probe in parity_probes
        ]
        loop_s = (time.perf_counter() - loop_start) / len(parity_probes)

        # -- exactness: bitwise decision parity with the loop ----------
        matches = gallery.best_match(parity_probes)
        users_equal = all(
            match.user_id == f"u{best_index}"
            for match, (best_index, _) in zip(matches, oracle)
        )
        distances_equal = all(
            match.distance == best_distance
            for match, (_, best_distance) in zip(matches, oracle)
        )

        # -- post-warm update latency (the O(1)-in-U claim) ------------
        # Each op includes drawing the new user's matrix, exactly as an
        # enrollment through the facade would.
        extra = num_users

        def enroll_once():
            nonlocal extra
            gallery.upsert(f"u{extra}", user_matrix(extra), user_template(extra))
            gallery.sync()
            extra += 1

        enroll_s = _median_of(update_repeats, enroll_once)
        renew_s = _median_of(
            update_repeats,
            lambda: (
                gallery.upsert(
                    f"u{extra - 1}",
                    user_matrix(extra - 1),
                    user_template(extra - 1),
                ),
                gallery.sync(),
            ),
        )

        def revoke_once():
            # Revoke then restore, so the sweep point's population and
            # tombstone ratio stay stable across repeats.
            gallery.remove(f"u{extra - 1}")
            gallery.sync()
            gallery.upsert(
                f"u{extra - 1}",
                user_matrix(extra - 1),
                user_template(extra - 1),
            )
            gallery.sync()

        revoke_s = _median_of(update_repeats, revoke_once) / 2.0

        sweep.append(
            {
                "num_users": num_users,
                "build_s": build_s,
                "identify": {
                    "cascade_per_probe_s": cascade_s / num_timing_probes,
                    "dense_per_probe_s": dense_s / num_timing_probes,
                    "loop_per_probe_s": loop_s,
                    "speedup_vs_dense": dense_s / cascade_s,
                    "rerank_pool_mean": (
                        pool.sum / pool.count if pool.count else 0.0
                    ),
                },
                "parity": {
                    "probes": int(parity_probes.shape[0]),
                    "users_equal": bool(users_equal),
                    "distances_bitwise_equal": bool(distances_equal),
                },
                "updates": {
                    "enroll_s": enroll_s,
                    "renew_s": renew_s,
                    "revoke_s": revoke_s,
                    "rebuild_s": build_s,
                    "rebuild_over_enroll": build_s / enroll_s,
                },
                "gallery": gallery.stats(),
            }
        )
        del gallery, dense

    first, last = sweep[0], sweep[-1]
    flatness = {
        kind: last["updates"][f"{kind}_s"] / first["updates"][f"{kind}_s"]
        for kind in ("enroll", "renew", "revoke")
    }
    claims = {
        "update_latency_flat_2x": all(ratio <= 2.0 for ratio in flatness.values()),
        "parity_bitwise_at_every_u": all(
            point["parity"]["users_equal"]
            and point["parity"]["distances_bitwise_equal"]
            for point in sweep
        ),
        "cascade_beats_dense_from_10k": all(
            point["identify"]["speedup_vs_dense"] > 1.0
            for point in sweep
            if point["num_users"] >= 10_000
        ),
    }
    return {
        "quick": quick,
        "in_dim": IN_DIM,
        "out_dim": OUT_DIM,
        "config": {
            "shard_size": config.shard_size,
            "prescreen_rank": config.prescreen_rank,
            "compact_tombstone_ratio": config.compact_tombstone_ratio,
        },
        "sweep": sweep,
        "update_flatness_ratio": flatness,
        "claims": claims,
    }


def write_results(data: dict, path: Path | None = None) -> Path:
    target = path if path is not None else RESULTS_PATH
    target.write_text(json.dumps(data, indent=2) + "\n")
    return target
