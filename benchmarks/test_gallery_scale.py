"""Gallery scale: O(1) updates and the sub-linear exact cascade.

The U-sweep behind the "identification at scale" claim
(``README.md``, DESIGN.md §4h).  Three bars, each asserted per swept
population size:

* **updates are flat** — post-warm enroll / renew / revoke latency
  stays within 2x from the smallest to the largest U (the dense
  design's invalidate-and-rebuild alternative is O(U) and is reported
  alongside as ``rebuild_s``);
* **decisions are exact** — the prescreen + rerank cascade returns
  bitwise the same user and distance as per-user loop scoring at every
  U, including the zero-probe all-ties edge case;
* **the cascade wins at scale** — identify through the cascade beats
  the dense full-gallery gemm from U=10 000 up.

Results land in ``BENCH_gallery.json`` at the repo root; quick mode
writes ``BENCH_gallery.quick.json`` instead, so a smoke never
overwrites the full-mode file.  Set ``GALLERY_QUICK=1`` (CI smoke) to
sweep U=1k/10k; the full run adds U=100k.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.gallery.bench import gallery_benchmark, write_results

QUICK = os.environ.get("GALLERY_QUICK", "") == "1"
RESULTS_PATH = Path(__file__).resolve().parents[1] / (
    "BENCH_gallery.quick.json" if QUICK else "BENCH_gallery.json"
)


@pytest.fixture(scope="module")
def sweep() -> dict:
    data = gallery_benchmark(quick=QUICK)
    write_results(data, RESULTS_PATH)
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
