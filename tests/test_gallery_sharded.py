"""The sharded gallery subsystem: shards, log, cascade, concurrency.

Five layers of coverage:

* **units** — the gallery's mutation log (FIFO, pop-after-apply,
  concurrent appends), :class:`GalleryShard` row mutations (append, overwrite-in-place,
  tombstone, build-then-swap compaction that copies stored rows) and
  shape validation, the subspace basis and its residual clamp, and the
  lean exact scorer (bitwise ``cosine_distance``);
* **bound soundness** — at both prescreen levels, every coarse lower
  distance is at most the rank-r one and that at most the loop-exact
  distance, at ranks 1, the coarse rank, out/2 and out, for float64
  and float32 matrices, probes orthogonal to a user's stored subspace
  (coarse and full) and zero templates;
* **cascade exactness** — identify through the prescreen + rerank
  cascade is *bitwise* identical to per-user loop scoring: random
  galleries, adversarially loose bounds (rank=1), a clustered
  population the coarse level prunes (the fine level's gather
  branch) and random probes most users survive (its contiguous
  branch), distance ties, the zero-probe all-ties edge case,
  decisions across revoke / renew / compaction and through an
  exported epoch;
* **facade integration** — the system facade's mutation helper feeds
  enroll / revoke / renew / adapt through the mutation log (no O(U)
  invalidation), and identify results track the surviving set;
* **concurrency** — interleaved enroll / revoke / identify threads:
  every decision stays bitwise-loop-exact for the stable population,
  and tombstoned users are never returned once their revocation
  synced.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import obs
from repro.config import GalleryConfig
from repro.core.gallery import GalleryShard, ShardedGallery
from repro.core.gallery import shard as shard_module
from repro.core.gallery.shard import COARSE_RANK, subspace_basis
from repro.core.similarity import cosine_distance, projected_cosine_distance
from repro.errors import ShapeError

IN, OUT = 12, 10


def _matrix(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / np.sqrt(IN), size=(IN, OUT))


def _template(seed: int) -> np.ndarray:
    return np.random.default_rng(seed ^ 0x5EED).normal(size=OUT)


def _loop_best(probe, users):
    """The per-user dict-loop oracle: strict min, first enrolled wins."""
    probe = np.asarray(probe, dtype=np.float64)
    best = None
    for user_id, (matrix, template) in users.items():
        distance = cosine_distance(
            probe @ np.asarray(matrix, dtype=np.float64),
            np.asarray(template, dtype=np.float64).reshape(-1),
        )
        if best is None or distance < best[1]:
            best = (user_id, distance)
    return best


def _populated(num_users: int, config: GalleryConfig):
    """(gallery, oracle dict) with ``num_users`` synthetic users."""
    gallery = ShardedGallery(config)
    users: dict[str, tuple] = {}
    for index in range(num_users):
        matrix, template = _matrix(index), _template(index)
        gallery.upsert(f"u{index}", matrix, template)
        users[f"u{index}"] = (matrix, template)
    gallery.sync()
    return gallery, users


def _assert_parity(gallery, users, probes):
    matches = gallery.best_match(probes)
    for probe, match in zip(np.atleast_2d(probes), matches):
        expected = _loop_best(probe, users)
        assert match.user_id == expected[0]
        assert match.distance == expected[1]  # bitwise, not approx


# -- mutation log ----------------------------------------------------------


class TestMutationLog:
    def test_fifo_and_pop_after_apply(self):
        gallery = ShardedGallery(GalleryConfig(shard_size=4))
        gallery.upsert("a", _matrix(0), _template(0))
        gallery.remove("a")  # applied after the upsert: "a" ends revoked
        gallery.upsert("b", _matrix(1), _template(1))
        gallery.upsert("c", np.zeros((IN, OUT + 1)), _template(2))
        gallery.upsert("d", _matrix(3), _template(3))
        assert gallery.pending == 5
        with pytest.raises(ShapeError):
            gallery.sync()
        # Entries pop only once applied: the failed one and the one
        # behind it stay queued, in order.
        assert gallery.pending == 2
        assert gallery.users() == ["b"]

    def test_concurrent_appends_all_land(self):
        # The log has no lock of its own: deque appends are atomic.
        gallery = ShardedGallery()
        threads = [
            threading.Thread(
                target=lambda: [gallery.remove("x") for _ in range(100)]
            )
            for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert gallery.pending == 400
        gallery.sync()
        assert gallery.pending == 0


# -- shard rows ------------------------------------------------------------


class TestGalleryShard:
    def test_append_overwrite_kill_compact(self):
        shard = GalleryShard(capacity=3, in_dim=IN, out_dim=OUT, rank=4)
        for index in range(3):
            assert shard.append(
                f"u{index}", _matrix(index), _template(index), seq=index
            ) == index
        assert not shard.has_space
        with pytest.raises(ShapeError):
            shard.append("u3", _matrix(3), _template(3), seq=3)
        # Overwrite in place keeps occupancy and identity.
        shard.write_slot(1, "u1", _matrix(7), _template(7), seq=1)
        assert shard.count == 3 and shard.num_alive == 3
        shard.kill_slot(1)
        assert shard.num_alive == 2 and shard.tombstones == 1
        assert shard.tombstone_ratio() == pytest.approx(1 / 3)
        # Tombstoned scoring state is zeroed so it cannot leak into gemms.
        assert not shard.numer_block()[:, 1].any()
        assert not shard.coarse_block()[:, 4:8].any()
        assert shard.fine_block().shape == (0, IN)  # rank 4 is all coarse
        assert shard.coarse_tail_block()[1] == shard.tail_block()[1] == 0.0
        with pytest.raises(ShapeError):
            shard.matrix_for(1)
        compacted = shard.compacted()
        assert compacted.count == 2 and compacted.tombstones == 0
        assert compacted.user_ids[:2] == ["u0", "u2"]
        assert list(compacted.seq[:2]) == [0, 2]  # seq survives the move
        # Build-then-swap: the original is untouched.
        assert shard.count == 3 and shard.tombstones == 1

    def test_shape_validation(self):
        shard = GalleryShard(capacity=2, in_dim=IN, out_dim=OUT, rank=4)
        with pytest.raises(ShapeError):
            shard.append("u", np.zeros((IN, OUT + 1)), _template(0), seq=0)
        with pytest.raises(ShapeError):
            shard.append("u", _matrix(0), np.zeros(OUT + 2), seq=0)
        with pytest.raises(ShapeError):
            GalleryShard(capacity=0, in_dim=IN, out_dim=OUT, rank=4)

    def test_rank_capped_at_out_dim(self):
        shard = GalleryShard(capacity=2, in_dim=IN, out_dim=OUT, rank=99)
        assert shard.rank == OUT
        assert shard.coarse_rank == min(COARSE_RANK, OUT)
        assert shard.fine_rank == OUT - shard.coarse_rank

    def test_nested_blocks_split_one_subspace_block(self):
        # The two levels hold exactly the float32 block G @ Q, split
        # at column k: coarse columns, fine rows transposed.
        shard = GalleryShard(capacity=3, in_dim=IN, out_dim=OUT, rank=OUT)
        for index in range(3):
            shard.append(f"u{index}", _matrix(index), _template(index), seq=index)
        k, fine = shard.coarse_rank, shard.fine_rank
        assert fine > 0
        for slot in range(3):
            matrix = _matrix(slot)
            block = (matrix @ subspace_basis(matrix, OUT)).astype(np.float32)
            np.testing.assert_array_equal(
                shard.coarse_block()[:, slot * k : (slot + 1) * k], block[:, :k]
            )
            np.testing.assert_array_equal(
                shard.fine_block()[slot * fine : (slot + 1) * fine],
                block[:, k:].T,
            )
            np.testing.assert_array_equal(
                shard.fine_rows(np.array([slot])), block[:, k:].T
            )
        assert np.all(shard.coarse_tail_block() >= shard.tail_block())

    def test_compaction_copies_stored_rows_bitwise(self, monkeypatch):
        shard = GalleryShard(capacity=6, in_dim=IN, out_dim=OUT, rank=OUT)
        for index in range(6):
            template = np.zeros(OUT) if index == 3 else _template(index)
            shard.append(f"u{index}", _matrix(index), template, seq=index)
        for victim in (1, 4):
            shard.kill_slot(victim)
        k, fine = shard.coarse_rank, shard.fine_rank
        assert not shard.fine_block()[fine : 2 * fine].any()

        def no_rederive(*args):
            raise AssertionError("compaction must copy rows, not derive them")

        monkeypatch.setattr(shard_module, "subspace_basis", no_rederive)
        compacted = shard.compacted()
        kept = [0, 2, 3, 5]
        assert compacted.count == len(kept)
        coarse = shard.coarse_block().reshape(IN, shard.count, k)
        np.testing.assert_array_equal(
            compacted.coarse_block(),
            coarse[:, kept].reshape(IN, len(kept) * k),
        )
        rows = shard.fine_block().reshape(shard.count, fine, IN)
        np.testing.assert_array_equal(
            compacted.fine_block(), rows[kept].reshape(len(kept) * fine, IN)
        )
        np.testing.assert_array_equal(
            compacted.numer_block(), shard.numer_block()[:, kept]
        )
        for name in (
            "tail_block",
            "coarse_tail_block",
            "matrix_norm_block",
            "seq_block",
        ):
            np.testing.assert_array_equal(
                getattr(compacted, name)(), getattr(shard, name)()[kept]
            )
        for new_slot, slot in enumerate(kept):
            fresh_row = compacted.rerank_row(new_slot)
            source_row = shard.rerank_row(slot)
            assert fresh_row[0] is source_row[0]
            assert fresh_row[1] is source_row[1]
            assert fresh_row[2] == source_row[2]
        assert compacted.rerank_row(2)[2] == 0.0  # the zero template

    def test_subspace_basis_is_orthonormal_and_reproducible(self):
        for rank in (1, OUT // 2, OUT):
            basis = subspace_basis(_matrix(rank), rank)
            assert basis.shape == (OUT, rank)
            np.testing.assert_allclose(
                basis.T @ basis, np.eye(rank), atol=1e-12
            )
            np.testing.assert_array_equal(
                basis, subspace_basis(_matrix(rank), rank)
            )

    def test_subspace_tail_is_tighter_than_leading_columns(self):
        # The range finder's residual must undercut the first-r-columns
        # layout's tail (the Q = I[:, :r] special case) on average.
        rank = OUT // 2
        subspace, leading = [], []
        for index in range(20):
            matrix = _matrix(index)
            basis = subspace_basis(matrix, rank)
            residual = matrix - (matrix @ basis) @ basis.T
            subspace.append(np.sum(residual**2))
            leading.append(np.sum(matrix[:, rank:] ** 2))
        assert np.mean(subspace) < 0.75 * np.mean(leading)

    def test_stored_tail_never_below_true_residual(self):
        # Both tails: the rank tail outside Q and the coarse tail
        # outside its first k columns.
        for rank in (3, OUT):
            shard = GalleryShard(capacity=20, in_dim=IN, out_dim=OUT, rank=rank)
            for index in range(20):
                shard.append(
                    f"u{index}", _matrix(index), _template(index), seq=index
                )
                basis = subspace_basis(_matrix(index), rank).astype(np.longdouble)
                matrix = _matrix(index).astype(np.longdouble)
                for tail, columns in (
                    (shard.tail_block(), basis),
                    (shard.coarse_tail_block(), basis[:, : shard.coarse_rank]),
                ):
                    residual = matrix - (matrix @ columns) @ columns.T
                    assert tail[index] >= float(np.sum(residual**2))


# -- cascade exactness -----------------------------------------------------


class TestCascadeExactness:
    CONFIG = GalleryConfig(shard_size=4, prescreen_rank=3)

    def test_bitwise_parity_with_loop(self):
        gallery, users = _populated(11, self.CONFIG)
        probes = np.random.default_rng(1).normal(size=(6, IN))
        _assert_parity(gallery, users, probes)

    def test_parity_under_adversarially_loose_bounds(self):
        # rank=1 makes the prescreen bound as weak as it can be:
        # correctness must come entirely from the best-first walk's
        # stopping rule, whatever the cost.
        gallery, users = _populated(
            13, GalleryConfig(shard_size=3, prescreen_rank=1)
        )
        probes = np.random.default_rng(3).normal(size=(5, IN))
        _assert_parity(gallery, users, probes)

    def test_distance_tie_first_enrolled_wins(self):
        gallery = ShardedGallery(self.CONFIG)
        matrix, template = _matrix(0), _template(0)
        # Identical rows: every distance ties bitwise; the loop keeps
        # the first enrolled, so must the cascade.
        for name in ("first", "second", "third"):
            gallery.upsert(name, matrix, template)
        probe = np.random.default_rng(4).normal(size=IN)
        assert gallery.best_match(probe)[0].user_id == "first"
        # After revoking the winner the tie resolves to the next oldest.
        gallery.remove("first")
        assert gallery.best_match(probe)[0].user_id == "second"

    def test_zero_probe_matches_loop(self):
        gallery, users = _populated(5, self.CONFIG)
        match = gallery.best_match(np.zeros(IN))[0]
        expected = _loop_best(np.zeros(IN), users)
        assert (match.user_id, match.distance) == expected
        assert match.distance == 1.0

    def test_zero_template_user_is_never_spuriously_matched(self):
        gallery, users = _populated(4, self.CONFIG)
        gallery.upsert("zero", _matrix(50), np.zeros(OUT))
        users["zero"] = (_matrix(50), np.zeros(OUT))
        probes = np.random.default_rng(5).normal(size=(3, IN))
        _assert_parity(gallery, users, probes)

    def test_revoked_user_never_returned(self):
        gallery, users = _populated(8, self.CONFIG)
        probes = np.random.default_rng(6).normal(size=(40, IN))
        for probe in probes:
            winner = gallery.best_match(probe)[0].user_id
            gallery.remove(winner)
            users.pop(winner)
            if not users:
                assert gallery.best_match(probe)[0] is None
                break
            _assert_parity(gallery, users, probe[None, :])

    def test_renew_overwrites_in_place(self):
        gallery, users = _populated(6, self.CONFIG)
        before = gallery.stats()
        gallery.upsert("u2", _matrix(77), _template(77))
        users["u2"] = (_matrix(77), _template(77))
        gallery.sync()
        after = gallery.stats()
        assert after["users"] == before["users"]
        assert after["shards"] == before["shards"]
        assert after["tombstones"] == before["tombstones"] == 0
        _assert_parity(
            gallery, users, np.random.default_rng(7).normal(size=(4, IN))
        )

    def test_compaction_preserves_decisions_bitwise(self):
        config = GalleryConfig(
            shard_size=4, prescreen_rank=3, compact_tombstone_ratio=0.2
        )
        gallery, users = _populated(12, config)
        probes = np.random.default_rng(8).normal(size=(5, IN))
        for victim in ("u1", "u2", "u5", "u9"):
            gallery.remove(victim)
            users.pop(victim)
        gallery.sync()
        assert gallery.compactions >= 1
        assert gallery.stats()["tombstones"] == 0
        _assert_parity(gallery, users, probes)

    def test_revoke_reenroll_moves_to_back_of_tie_order(self):
        gallery = ShardedGallery(self.CONFIG)
        matrix, template = _matrix(0), _template(0)
        for name in ("a", "b"):
            gallery.upsert(name, matrix, template)
        probe = np.random.default_rng(9).normal(size=IN)
        assert gallery.best_match(probe)[0].user_id == "a"
        # dict-order parity: pop + re-insert moves "a" behind "b".
        gallery.remove("a")
        gallery.upsert("a", matrix, template)
        assert gallery.best_match(probe)[0].user_id == "b"

    def test_empty_and_shape_errors(self):
        gallery = ShardedGallery(self.CONFIG)
        assert gallery.best_match(np.zeros((2, IN))) == [None, None]
        populated, _ = _populated(3, self.CONFIG)
        with pytest.raises(ShapeError):
            populated.best_match(np.zeros((1, IN + 1)))

    def test_users_listed_in_enrollment_order(self):
        gallery, _ = _populated(9, self.CONFIG)
        gallery.remove("u4")
        gallery.sync()
        assert gallery.users() == [
            f"u{i}" for i in range(9) if i != 4
        ]

    def test_sync_gauges_and_mutation_counters(self):
        with obs.collecting() as registry:
            gallery, _ = _populated(5, self.CONFIG)
            gallery.remove("u0")
            gallery.sync()
            assert registry.gauge("gallery_users").value == 4
            assert registry.gauge("gallery_shards").value == 2
            assert (
                registry.counter("gallery_mutations_total", kind="upsert").value
                == 5
            )
            assert (
                registry.counter("gallery_mutations_total", kind="remove").value
                == 1
            )


# -- prescreen bound soundness ---------------------------------------------


def _lower_by_user(gallery, probes):
    """Both prescreen levels' lower distances per alive user.

    ``{user: ((B,) coarse, (B,) rank-r)}``; the rank-r level is taken
    for every alive user, as if all of them survived the coarse level.
    """
    table = gallery._score_state()
    screen = gallery._screen(np.atleast_2d(probes), table)
    columns = np.flatnonzero(table.alive)
    full = gallery._fine_lower(screen, table, columns)
    return {
        table.slots[column][0].user_ids[table.slots[column][1]]: (
            screen.lower[:, column],
            full[:, index],
        )
        for index, column in enumerate(columns.tolist())
    }


def _stored_block(gallery, user_id, coarse_only=False):
    """``user_id``'s stored float32 block ``G Q`` (or its coarse columns)."""
    shard_index, slot = gallery._index[user_id]
    shard = gallery._shards[shard_index]
    k, fine = shard.coarse_rank, shard.fine_rank
    coarse = shard.coarse_block()[:, slot * k : (slot + 1) * k]
    if coarse_only:
        return coarse
    return np.hstack([coarse, shard.fine_block()[slot * fine : (slot + 1) * fine].T])


def _orthogonal_probe(gallery, user_id, coarse_only=False):
    """A probe with zero projection onto ``user_id``'s stored block."""
    block = _stored_block(gallery, user_id, coarse_only).astype(np.float64)
    left = np.linalg.svd(block)[0]
    probe = 3.0 * left[:, block.shape[1]]  # IN > rank: the left null space
    assert np.linalg.norm(probe @ block) < 1e-12
    return probe


class _Spy:
    """Counts calls to one :class:`GalleryShard` method."""

    def __init__(self, monkeypatch, name):
        self.calls = 0
        original = getattr(GalleryShard, name)

        def counted(shard, *args):
            self.calls += 1
            return original(shard, *args)

        monkeypatch.setattr(GalleryShard, name, counted)


class TestPrescreenBound:
    # "resident" passes float64 arrays as the facade does; "float32"
    # exercises the one conversion write_slot makes.
    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32], ids=["resident", "float32"]
    )
    @pytest.mark.parametrize("rank", [1, OUT // 2, OUT, COARSE_RANK])
    def test_lower_bound_never_exceeds_loop_exact(self, rank, dtype):
        config = GalleryConfig(shard_size=4, prescreen_rank=rank)
        for trial in range(4):
            gallery = ShardedGallery(config)
            users: dict[str, tuple] = {}
            for index in range(9):
                seed = 100 * trial + index
                matrix = _matrix(seed).astype(dtype)
                template = np.zeros(OUT) if index == 4 else _template(seed)
                gallery.upsert(f"u{index}", matrix, template)
                users[f"u{index}"] = (matrix.astype(np.float64), template)
            gallery.sync()
            probes = np.vstack(
                [np.random.default_rng(trial).normal(size=(5, IN))]
                + [_orthogonal_probe(gallery, user) for user in users]
                + [_orthogonal_probe(gallery, user, True) for user in users]
            )
            lower = _lower_by_user(gallery, probes)
            assert sorted(lower) == sorted(users)
            for user_id, (matrix, template) in users.items():
                exact = np.array(
                    [cosine_distance(probe @ matrix, template) for probe in probes]
                )
                coarse, full = lower[user_id]
                assert np.all(coarse <= full), (
                    f"rank={rank} trial={trial} {user_id}: coarse bound "
                    f"{coarse} above rank-r bound {full}"
                )
                assert np.all(full <= exact), (
                    f"rank={rank} trial={trial} {user_id}: bound "
                    f"{full} above exact {exact}"
                )
            _assert_parity(gallery, users, probes)

    def test_clustered_population_prunes_at_the_coarse_level(self, monkeypatch):
        # Each probe is one user's own: that user's template is the
        # probe's projection (distance ~0), everyone else's is random
        # (distance ~1), so the first cut excludes most users at the
        # coarse level and the fine level gathers the few left, shard
        # by shard (40 users in three shards).
        in_dim, out_dim = 24, 24
        rng = np.random.default_rng(11)
        gallery = ShardedGallery(GalleryConfig(shard_size=16, prescreen_rank=16))
        users: dict[str, tuple] = {}
        probes = rng.normal(size=(6, in_dim))
        for index in range(40):
            matrix = rng.normal(0.0, 1.0 / np.sqrt(in_dim), size=(in_dim, out_dim))
            if index < len(probes):
                template = probes[index] @ matrix
            else:
                template = rng.normal(size=out_dim)
            gallery.upsert(f"c{index}", matrix, template)
            users[f"c{index}"] = (matrix, template)
        gallery.sync()
        noisy = probes + 0.05 * rng.normal(size=probes.shape)
        table = gallery._score_state()
        assert table.fine_rank == 16 - COARSE_RANK and len(table.shards) == 3
        gathered = _Spy(monkeypatch, "fine_rows")
        contiguous = _Spy(monkeypatch, "fine_block")
        for probe in noisy:
            screen = gallery._screen(probe[None, :], table)
            cut = gallery.best_match(probe)[0].distance
            assert np.count_nonzero(screen.lower[0] <= cut) < len(users) // 4
            _assert_parity(gallery, users, probe[None, :])
        assert gathered.calls >= len(noisy) and contiguous.calls == 0
        _assert_parity(gallery, users, noisy)

    def test_random_probes_read_the_fine_block_contiguously(self, monkeypatch):
        # A crowd of near-identical users: every exact distance sits
        # within ~1e-6 of the cut, far inside the coarse bound's gap,
        # so random probes keep most users past the coarse level and
        # the fine level streams the whole block instead of gathering.
        rng = np.random.default_rng(12)
        gallery = ShardedGallery(GalleryConfig(shard_size=64, prescreen_rank=OUT))
        users: dict[str, tuple] = {}
        for index in range(30):
            matrix = _matrix(0) + 1e-6 * rng.normal(size=(IN, OUT))
            template = _template(0) + 1e-6 * rng.normal(size=OUT)
            gallery.upsert(f"n{index}", matrix, template)
            users[f"n{index}"] = (matrix, template)
        gallery.sync()
        probes = rng.normal(size=(4, IN))
        gathered = _Spy(monkeypatch, "fine_rows")
        contiguous = _Spy(monkeypatch, "fine_block")
        for probe in probes:
            _assert_parity(gallery, users, probe[None, :])
        _assert_parity(gallery, users, probes)
        assert contiguous.calls == len(probes) + 1 and gathered.calls == 0


class TestEpochRoundTrip:
    def test_epoch_and_compaction_keep_best_match_bitwise(self):
        config = GalleryConfig(
            shard_size=4, prescreen_rank=OUT, compact_tombstone_ratio=0.2
        )
        gallery, users = _populated(11, config)
        probes = np.vstack(
            [np.random.default_rng(13).normal(size=(5, IN)), np.zeros(IN)]
        )
        for victim in ("u2", "u5", "u6"):
            gallery.remove(victim)
            users.pop(victim)
        gallery.upsert("u9", _matrix(99), _template(99))
        users["u9"] = (_matrix(99), _template(99))
        gallery.sync()
        assert gallery.compactions >= 1
        live = gallery.best_match(probes)
        arrays, meta = gallery.export_epoch()
        clone = ShardedGallery.from_epoch(config, arrays, meta)
        for gallery_copy in (gallery, clone):
            matches = gallery_copy.best_match(probes)
            assert [(m.user_id, m.distance) for m in matches] == [
                (m.user_id, m.distance) for m in live
            ]
        for shard, adopted in zip(
            [shard for shard in gallery._shards if shard.count], clone._shards
        ):
            for name in ("coarse_block", "fine_block", "tail_block", "coarse_tail_block"):
                np.testing.assert_array_equal(
                    getattr(adopted, name)(), getattr(shard, name)()
                )
        _assert_parity(gallery, users, probes[:-1])
        _assert_parity(clone, users, probes[:-1])


class TestProjectedCosineDistance:
    """The lean exact scorer is ``cosine_distance(probe @ matrix, t)``, bitwise."""

    @staticmethod
    def _both(probe, matrix, template):
        lean = projected_cosine_distance(
            probe, matrix, template, float(np.linalg.norm(template))
        )
        return lean, cosine_distance(probe @ matrix, template)

    @given(
        arrays(
            np.float64,
            IN + IN * OUT + OUT,
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        )
    )
    def test_bitwise_on_random_inputs(self, values):
        probe = values[:IN]
        matrix = values[IN : IN + IN * OUT].reshape(IN, OUT)
        template = values[IN + IN * OUT :]
        lean, reference = self._both(probe, matrix, template)
        assert lean == reference or (np.isnan(lean) and np.isnan(reference))

    def test_zero_vectors(self):
        matrix, template = _matrix(0), _template(0)
        assert self._both(np.zeros(IN), matrix, template) == (1.0, 1.0)
        probe = np.random.default_rng(0).normal(size=IN)
        assert self._both(probe, matrix, np.zeros(OUT)) == (1.0, 1.0)
        assert self._both(probe, np.zeros((IN, OUT)), template) == (1.0, 1.0)

    def test_clipped_cosines(self):
        # Parallel and anti-parallel vectors whose raw cosine rounds past
        # +-1 take the clip on both paths.
        identity = np.eye(OUT)
        rng = np.random.default_rng(3)
        clipped = {1: 0, -1: 0}
        for _ in range(200):
            template = rng.normal(size=OUT)
            scale = rng.uniform(0.1, 10.0)
            for sign in (1, -1):
                probe = sign * scale * template
                raw = np.dot(probe, template) / (
                    np.linalg.norm(probe) * np.linalg.norm(template)
                )
                clipped[sign] += bool(abs(raw) > 1.0)
                lean, reference = self._both(probe, identity, template)
                assert lean == reference
                assert lean == (0.0 if sign == 1 else 2.0) or abs(raw) <= 1.0
        assert clipped[1] and clipped[-1]


# -- facade integration ----------------------------------------------------


@pytest.fixture(scope="module")
def facade():
    from repro.serve.loadgen import build_bench_system

    return build_bench_system(
        dtype="float32",
        num_probes=6,
        gallery=GalleryConfig(shard_size=2, prescreen_rank=4),
    )


@pytest.fixture(scope="module")
def crowd(facade):
    """A separate facade system with several users to choose between."""
    from repro.core.system import MandiPass

    system, _, probes = facade
    crowded = MandiPass(system.model, config=system.config)
    for index in range(5):
        crowded.enroll(
            f"p{index}", [probes[index]], transform_seed=700 + index
        )
    return crowded, probes


class TestFacadeIntegration:
    def test_mutations_are_incremental_not_invalidating(self, facade):
        system, user_id, probes = facade
        system.reset_gallery()
        assert system.identify_many(probes[:1])[0] is not None
        gallery = system._gallery
        system.enroll("incr", list(probes[:3]), transform_seed=601)
        # The instance survives the mutation (no invalidate-and-rebuild);
        # the change is a pending log entry until the next identify.
        assert system._gallery is gallery
        assert gallery.pending == 1
        system.identify_many(probes[:1])
        assert gallery.pending == 0
        assert "incr" in gallery.users()
        system.revoke("incr")
        assert system._gallery is gallery
        system.identify_many(probes[:1])
        assert "incr" not in gallery.users()

    def test_adapt_template_updates_gallery_row(self, facade):
        system, user_id, probes = facade
        system.reset_gallery()
        system.identify_many(probes[:1])
        gallery = system._gallery
        if system.adapt_template(user_id, probes[0], rate=0.2):
            assert system._gallery is gallery  # overwrite, not rebuild
            system.identify_many(probes[:1])
            row = gallery._index[user_id]
            stored = gallery._shards[row[0]].template_for(row[1])
            sealed = system.stored_template(user_id)
            np.testing.assert_array_equal(stored, sealed)

    def test_identify_matches_fallback_decisions(self, crowd):
        # The degraded fallback scores with the cascade's own exact
        # scorer, so a decision never depends on whether the gallery
        # build faulted: user and distance agree bitwise, at B=1 and B=4.
        system, probes = crowd
        for batch in (1, 4):
            system.reset_gallery()
            recordings = list(probes[:batch])
            results = system.identify_many(recordings)
            fallback = system._identify_fallback(recordings)
            assert len(results) == len(fallback) == batch
            for fast, slow in zip(results, fallback):
                assert fast.user_id == slow.user_id
                assert fast.distance == slow.distance  # bitwise, not approx
                assert fast.accepted == slow.accepted
                assert slow.degraded and not fast.degraded

    def test_forced_tie_goes_to_earlier_enrolled_on_both_paths(self, facade):
        from repro.core.system import MandiPass

        system, _, probes = facade
        twins = MandiPass(system.model, config=system.config)
        # Identical matrix and template; "zeta" is enrolled first, so a
        # name-ordered tie break would pick the wrong twin.
        for name in ("zeta", "alpha"):
            twins.enroll(name, list(probes[:2]), transform_seed=404)
        np.testing.assert_array_equal(
            twins.stored_template("zeta"), twins.stored_template("alpha")
        )
        recordings = list(probes[2:5])
        fast = twins.identify_many(recordings)
        slow = twins._identify_fallback(recordings)
        for a, b in zip(fast, slow):
            assert a.user_id == b.user_id == "zeta"
            assert a.distance == b.distance

    def test_warm_gallery_prebuilds(self, facade):
        system, _, _ = facade
        system.reset_gallery()
        system.warm_gallery()
        assert system._gallery is not None
        assert system._gallery.pending == 0


# -- concurrency: interleaved enroll / revoke / identify -------------------


class TestConcurrentMutationVsIdentification:
    def test_interleaved_threads_stay_loop_exact(self):
        """Writers churn users while readers identify; decisions stay exact.

        A stable core population is constructed so each probe's true
        argmin is a core user (its template is the probe's own
        projection — distance exactly 0 for that pairing, ~1 for
        everything random).  Churn threads enroll/revoke disposable
        users concurrently with identify threads; whatever interleaving
        happens, every decision must be bitwise the loop answer for the
        stable set, and users revoked-and-synced *before* the readers
        started must never be returned.
        """
        config = GalleryConfig(
            shard_size=4, prescreen_rank=3,
            compact_tombstone_ratio=0.3,
        )
        gallery = ShardedGallery(config)
        rng = np.random.default_rng(42)
        probes = rng.normal(size=(8, IN))
        core: dict[str, tuple] = {}
        for index, probe in enumerate(probes):
            matrix = _matrix(1000 + index)
            template = np.asarray(probe, dtype=np.float64) @ matrix
            name = f"core{index}"
            gallery.upsert(name, matrix, template)
            core[name] = (matrix, template)
        expected = {
            index: _loop_best(probe, core)
            for index, probe in enumerate(probes)
        }
        # Pre-revoked users: tombstoned and synced before readers start.
        for index in range(4):
            gallery.upsert(f"dead{index}", _matrix(2000 + index), _template(index))
        gallery.sync()
        for index in range(4):
            gallery.remove(f"dead{index}")
        gallery.sync()
        forbidden = {f"dead{index}" for index in range(4)}

        stop = threading.Event()
        failures: list[str] = []

        def churn(worker: int) -> None:
            tick = 0
            while not stop.is_set():
                name = f"churn{worker}-{tick % 5}"
                try:
                    gallery.upsert(
                        name, _matrix(3000 + worker * 100 + tick), _template(tick)
                    )
                    gallery.sync()
                    gallery.remove(name)
                    gallery.sync()
                except Exception as exc:  # pragma: no cover - fails the test
                    failures.append(f"churn: {exc!r}")
                    return
                tick += 1

        def identify(reader: int) -> None:
            rounds = 0
            while not stop.is_set() and rounds < 60:
                index = (reader + rounds) % len(probes)
                try:
                    match = gallery.best_match(probes[index])[0]
                except Exception as exc:  # pragma: no cover - fails the test
                    failures.append(f"identify: {exc!r}")
                    return
                if match.user_id in forbidden:
                    failures.append(f"tombstoned user returned: {match.user_id}")
                    return
                if (match.user_id, match.distance) != expected[index]:
                    failures.append(
                        f"decision drift: {match} != {expected[index]}"
                    )
                    return
                rounds += 1

        writers = [threading.Thread(target=churn, args=(w,)) for w in range(2)]
        readers = [
            threading.Thread(target=identify, args=(r,)) for r in range(2)
        ]
        for thread in writers + readers:
            thread.start()
        for thread in readers:
            thread.join(30.0)
        stop.set()
        for thread in writers:
            thread.join(30.0)
        assert not failures, failures[:3]
        assert not any(t.is_alive() for t in writers + readers), "deadlock"
        # Every concurrent append landed: one sync drains the log to
        # the core set, in enrollment order.
        gallery.sync()
        assert gallery.pending == 0
        assert gallery.users() == list(core)
        # Steady state after the dust settles: core-only parity again.
        for index, probe in enumerate(probes):
            final = gallery.best_match(probe)[0]
            assert (final.user_id, final.distance) == expected[index]


# -- scale bench smoke (tiny tier-1 version of benchmarks/) ----------------


class TestBenchSmoke:
    def test_gallery_benchmark_tiny_sweep(self, tmp_path):
        from repro.core.gallery.bench import gallery_benchmark, write_results

        data = gallery_benchmark(
            quick=True,
            sizes=(40, 90),
            repeats=1,
            update_repeats=2,
            num_timing_probes=2,
            num_parity_probes=2,
        )
        assert data["claims"]["parity_bitwise_at_every_u"]
        assert data["claims"]["update_latency_flat_2x"] in (True, False)
        assert [p["num_users"] for p in data["sweep"]] == [40, 90]
        target = write_results(data, tmp_path / "BENCH_gallery.json")
        assert target.exists()

    def test_cli_gallery_bench(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        code = main(
            ["gallery-bench", "--sizes", "40,90", "--output", str(out)]
        )
        captured = capsys.readouterr()
        assert "U=" in captured.out and "PASS" in captured.out
        assert out.exists()
        assert code in (0, 1)  # tiny sizes may not clear the speed bars


class TestGalleryConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shard_size": 0},
            {"prescreen_rank": 0},
            {"shard_size": -1},
            {"compact_tombstone_ratio": 0.0},
            {"compact_tombstone_ratio": 1.5},
            {"compact_tombstone_ratio": float("nan")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            GalleryConfig(**kwargs)
