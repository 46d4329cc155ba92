"""Gallery scale: O(1) updates and the sub-linear exact cascade.

The U-sweep behind the "identification at scale" claim
(``README.md``, DESIGN.md §4h), on synthetic populations large enough
to show the asymptotics (the physiological substrate cannot enroll
100 000 users in benchmark time).  Three bars, each asserted per swept
population size:

* **updates are flat** — post-warm enroll / renew / revoke latency
  stays within 2x from the smallest to the largest U (the dense
  design's invalidate-and-rebuild alternative is O(U) and is reported
  alongside as ``rebuild_s``);
* **decisions are exact** — the prescreen + rerank cascade returns
  bitwise the same user and distance as per-user loop scoring at every
  U, including the zero-probe all-ties edge case;
* **the cascade wins at scale** — identify through the cascade beats
  one-gemm full scoring (every user's matrix stacked into one
  ``(in, U * out)`` projection, the baseline :func:`_dense_scorer`
  builds) from U=10 000 up.  The two are timed in alternation and
  compared by their medians over ``REPEATS`` rounds.

Synthetic users mirror :class:`~repro.security.cancelable.CancelableTransform`
exactly: matrix ``default_rng(seed).normal(0, 1/sqrt(in), (in, out))``.
The sweep feeds the sharded gallery the same resident matrices the
one-gemm baseline stacks and the loop oracle scans, mirroring the
facade, where ``transform.matrix`` is resident too.

Results land in ``BENCH_gallery.json`` at the repo root; quick mode
writes ``BENCH_gallery.quick.json`` instead, so a smoke never
overwrites the full-mode file.  Set ``GALLERY_QUICK=1`` (CI smoke) to
sweep U=1k/10k; the full run adds U=100k.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import GalleryConfig
from repro.core.gallery.sharded import ShardedGallery
from repro.core.similarity import cosine_distance
from repro.obs import runtime as obs
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS

QUICK = os.environ.get("GALLERY_QUICK", "") == "1"
RESULTS_PATH = Path(__file__).resolve().parents[1] / (
    "BENCH_gallery.quick.json" if QUICK else "BENCH_gallery.json"
)
SIZES = (1_000, 10_000) if QUICK else (1_000, 10_000, 100_000)
NUM_TIMING_PROBES = 8
NUM_PARITY_PROBES = 4
REPEATS = 7
UPDATE_REPEATS = 15
SEED = 7
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


def gallery_benchmark() -> dict:
    """Run the U-sweep and return the results document (pure dict)."""
    config = GalleryConfig()
    rng = np.random.default_rng(SEED)
    timing_probes = rng.normal(size=(NUM_TIMING_PROBES, IN_DIM))
    # Parity probes include the zero probe (the all-ties edge case).
    parity_probes = np.concatenate(
        [rng.normal(size=(NUM_PARITY_PROBES, IN_DIM)), np.zeros((1, IN_DIM))]
    )

    max_users = max(SIZES)
    matrices = [user_matrix(index) for index in range(max_users)]
    templates = [user_template(index) for index in range(max_users)]

    sweep = []
    for num_users in SIZES:
        gallery, build_s = _build_sharded(num_users, config, matrices, templates)

        # -- identification: cascade vs one gemm vs per-user loop ------
        dense = _dense_scorer(matrices[:num_users], templates[:num_users])
        gallery.best_match(timing_probes)  # warm caches
        dense(timing_probes)
        with obs.collecting() as registry:
            cascade_s, dense_s = _interleaved_medians(
                REPEATS,
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

        enroll_s = _median_of(UPDATE_REPEATS, enroll_once)
        renew_s = _median_of(
            UPDATE_REPEATS,
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

        revoke_s = _median_of(UPDATE_REPEATS, revoke_once) / 2.0

        sweep.append(
            {
                "num_users": num_users,
                "build_s": build_s,
                "identify": {
                    "cascade_per_probe_s": cascade_s / NUM_TIMING_PROBES,
                    "dense_per_probe_s": dense_s / NUM_TIMING_PROBES,
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
        "quick": QUICK,
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


@pytest.fixture(scope="module")
def sweep() -> dict:
    data = gallery_benchmark()
    RESULTS_PATH.write_text(json.dumps(data, indent=2) + "\n")
    cascade = " | ".join(
        f"U={point['num_users']}: "
        f"{point['identify']['cascade_per_probe_s'] * 1e3:.2f} ms vs dense "
        f"{point['identify']['dense_per_probe_s'] * 1e3:.2f} ms "
        f"(pool {point['identify']['rerank_pool_mean']:.0f})"
        for point in data["sweep"]
    )
    print(f"\ngallery sweep: {cascade}")
    return data


def test_update_latency_flat_across_u(sweep):
    """Enroll/renew/revoke cost must not grow with the enrolled count."""
    for kind, ratio in sweep["update_flatness_ratio"].items():
        assert ratio <= 2.0, (
            f"{kind} latency grew {ratio:.2f}x from U={sweep['sweep'][0]['num_users']} "
            f"to U={sweep['sweep'][-1]['num_users']} — updates must be O(1) in U"
        )


def test_updates_beat_full_rebuild(sweep):
    """One incremental update must be far cheaper than an O(U) rebuild."""
    for point in sweep["sweep"]:
        assert point["updates"]["rebuild_over_enroll"] >= 10.0, (
            f"U={point['num_users']}: rebuild only "
            f"{point['updates']['rebuild_over_enroll']:.1f}x slower than one "
            f"incremental enroll"
        )


def test_decisions_bitwise_identical_to_loop(sweep):
    """The cascade may change identify cost, never an identify decision."""
    for point in sweep["sweep"]:
        parity = point["parity"]
        assert parity["users_equal"], (
            f"U={point['num_users']}: cascade returned a different user "
            f"than per-user loop scoring"
        )
        assert parity["distances_bitwise_equal"], (
            f"U={point['num_users']}: cascade distance not bitwise equal "
            f"to per-user loop scoring"
        )


def test_cascade_beats_dense_gemm_at_scale(sweep):
    """Prescreen + rerank must outrun the full-gallery gemm at U>=10k."""
    at_scale = [p for p in sweep["sweep"] if p["num_users"] >= 10_000]
    assert at_scale, "sweep must include at least one U >= 10k point"
    for point in at_scale:
        speedup = point["identify"]["speedup_vs_dense"]
        assert speedup > 1.0, (
            f"U={point['num_users']}: cascade is {1 / speedup:.2f}x slower "
            f"than the dense gemm"
        )


def test_rerank_pool_is_sublinear(sweep):
    """The exact stage must touch a vanishing fraction of the gallery."""
    for point in sweep["sweep"]:
        pool = point["identify"]["rerank_pool_mean"]
        assert pool < 0.05 * point["num_users"], (
            f"U={point['num_users']}: mean rerank pool {pool:.0f} is not "
            f"sub-linear"
        )
