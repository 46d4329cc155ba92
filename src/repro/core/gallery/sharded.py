"""Sharded, incrementally-updatable 1:N gallery with a sound cascade.

Each enrolled user's template lives under that user's own Gaussian
matrix, so 1:N identification is one projected cosine per user.
:class:`ShardedGallery` answers it without an O(U) cost on either side:

* **Row-level incremental updates.**  Mutations are logged in a FIFO
  (append on enroll, overwrite-in-place on renew/adapt, tombstone on
  revoke) and applied at the next :meth:`~ShardedGallery.sync` to
  fixed-size :class:`~repro.core.gallery.shard.GalleryShard` blocks —
  O(in * out) per mutation, independent of the enrolled population.  A
  shard whose tombstone ratio crosses the configured threshold is
  compacted in isolation (O(shard_size), build-then-swap).

* **Coarse-prescreen + exact-rerank cascade.**  Scoring all users
  exactly costs one ``(B, in) @ (in, U * out)`` gemm.  The prescreen
  pass instead bounds every user's cosine distance from below using a
  ``rank << out`` projection per user, seeds a top-K rerank pool, and
  the exact stage replays the per-user loop's own operations
  (:func:`~repro.core.similarity.projected_cosine_distance`, bitwise
  ``cosine_distance(probe @ matrix, template)``) for pool members
  only.

**Soundness of the prescreen bound.**  For user ``u`` with Gaussian
matrix ``G`` and unit template ``t_hat``, the loop scores
``d = 1 - clip(cos)`` with ``cos = (x G) . t_hat / ||x G||``.  The
numerator equals ``x . w`` with ``w = G t_hat`` precomputed — exact
from one thin gemm.  For the denominator, let ``Q`` be any orthonormal
``(out, rank)`` basis — the shard stores one spanning ``G``'s dominant
right subspace, and the first ``rank`` identity columns are the
special case ``Q = I[:, :rank]`` — with ``p = ||x G Q||`` the partial
norm and ``R = ||G - G Q Q^T||_F^2`` the residual energy.  Splitting
``x G`` with the orthogonal projector ``Q Q^T``:

* ``||x G||^2 = p^2 + ||x G (I - Q Q^T)||^2 >= p^2`` (Pythagoras), and
* ``||x G (I - Q Q^T)||^2 <= ||x||^2 R`` (Cauchy-Schwarz), so
  ``||x G||^2 <= p^2 + ||x||^2 R``.

So ``cos <= num / p`` when ``num >= 0`` and
``cos <= num / sqrt(p^2 + ||x||^2 R)`` when ``num < 0`` — an upper
bound on the cosine, hence a lower bound on the distance.  The closer
``span(Q)`` follows ``G``'s dominant subspace, the smaller ``R`` and
the tighter the bracket.  Finite precision is covered by slack.  The
float32 block's entries are the float64 product ``G Q`` rounded once
(2^-24 relative, exactly as a float32 copy of ``G``'s own columns would
be); together with the probe cast and the float32 dot products they
move ``p`` by at most ``(in + 2) * 2^-24 * ||x|| * ||G||_F``, which
``_F32_ABS_SLACK`` subtracts from the lower and adds to the upper
denominator, while ``_DENOM_SLACK`` covers the float32 sum of squares.
The shard clamps ``R`` above the true residual
(``shard._TAIL_SLACK``), and ``_UB_*_SLACK`` absorb float64 gemm
re-association in the numerator pass.  Any user whose distance lower
bound beats the best exact distance found so far joins the rerank
pool; one expansion round suffices (exact distances only shrink the
qualifying set), so **the pool provably contains the argmin** — and
every tie, since a tied user's lower bound also qualifies.  Ties
resolve on the global enrollment sequence number, matching the
first-wins semantics of the per-user dict loop.  The cascade therefore
returns bitwise the same decision as the loop; only the cost depends
on the bound's tightness (worst case: a full, still-exact rerank).

Concurrency: the gallery carries its own writer-preferring
:class:`~repro.serve.locks.RWLock` — :meth:`sync` applies mutations
under the write side and scoring runs under the read side.  Log
appends touch neither: the log is a :class:`collections.deque`, whose
``append`` and ``popleft`` are atomic, so the facade's write-lock
latency stays O(1).  Under the system facade the outer RWLock already
excludes mutations from in-flight scoring; the inner lock makes the
gallery safe for direct multi-threaded use too.
"""

from __future__ import annotations

import collections
import dataclasses
import math
from typing import NamedTuple

import numpy as np

from repro.config import GalleryConfig
from repro.core.gallery.shard import PRESCREEN_DTYPE, GalleryShard
from repro.core.similarity import projected_cosine_distance
from repro.errors import ShapeError
from repro.faults import runtime as faults
from repro.obs import runtime as obs
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS
from repro.serve.locks import RWLock

#: Relative slack on the prescreen denominators: summing ``rank``
#: float32 squares errs by ~rank * 2^-24 relative, orders of magnitude
#: under 1e-4; the bound stays sound with room to spare.
_DENOM_SLACK = 1e-4
#: Absolute float32 error of one partial norm, per unit of
#: ``||x|| * ||G||_F`` and per input dimension: casting the probe and
#: the block to float32 (2^-24 each) and the ``in``-term float32 dot
#: products (``in * 2^-24``) perturb ``x G Q`` by at most
#: ``(in + 2) * 2^-24 * ||x|| * ||G Q||_F`` with ``||G Q||_F <= ||G||_F``.
#: This error does not shrink with the partial norm, so it is added on
#: top of the relative slack (doubled for margin); without it a probe
#: nearly orthogonal to a user's stored subspace, with a small
#: ``||x G||``, could read a partial norm above the true one.
_F32_ABS_SLACK = 2.0 * 2.0**-24
#: Relative + absolute slack on the cosine upper bound, absorbing
#: float64 gemm re-association in the numerator pass.
_UB_REL_SLACK = 1e-6
_UB_ABS_SLACK = 1e-9


class _ScoreTable(NamedTuple):
    """The concatenated per-slot scoring state of all non-empty shards.

    The alive flags and sequence numbers come twice: as arrays for the
    vectorised bound and as lists for the rerank loop, which reads
    them per candidate.
    """

    shards: list[GalleryShard]
    slots: list[tuple[GalleryShard, int]]
    alive: np.ndarray
    seqs: np.ndarray
    tails: np.ndarray
    matrix_norms: np.ndarray
    alive_flags: list[bool]
    seq_list: list[int]


@dataclasses.dataclass(frozen=True)
class GalleryMatch:
    """Best match for one probe: the argmin user and its exact distance."""

    user_id: str
    distance: float


class ShardedGallery:
    """Incrementally-updatable sharded gallery with cascade scoring."""

    def __init__(self, config: GalleryConfig | None = None) -> None:
        self.config = config if config is not None else GalleryConfig()
        # Logged, not yet applied mutations, oldest first:
        # ``(kind, user_id, matrix, template)`` with ``kind`` "upsert"
        # (enroll / renew / adapt) or "remove" (revoke).  Order is the
        # contract: an upsert then a remove of one user lands in that
        # order, so the shards converge to the facade's state.
        self._log: collections.deque[tuple] = collections.deque()
        self._lock = RWLock()
        self._shards: list[GalleryShard] = []
        self._index: dict[str, tuple[int, int]] = {}  # user -> (shard, slot)
        self._dirty: set[int] = set()  # shards to check for compaction
        self._seq = 0
        self._compactions = 0
        # Population counters maintained incrementally so per-mutation
        # bookkeeping (gauges, num_users) never scans the shards —
        # update latency must stay O(1) in U.
        self._alive_count = 0
        self._tombstone_count = 0
        # Concatenated scoring table (a _ScoreTable), rebuilt lazily
        # after any applied mutation.
        self._score_table: _ScoreTable | None = None
        self.in_dim: int | None = None
        self.out_dim: int | None = None

    # -- mutation side (O(1) in U; callers may hold any outer lock) -----

    def upsert(
        self, user_id: str, matrix: np.ndarray, template: np.ndarray
    ) -> None:
        """Log an enroll / renew / adapt for the next :meth:`sync`."""
        self._log.append(
            (
                "upsert",
                user_id,
                matrix,
                np.asarray(template, dtype=np.float64).reshape(-1),
            )
        )
        obs.inc("gallery_mutations_total", kind="upsert")

    def remove(self, user_id: str) -> None:
        """Log a revocation for the next :meth:`sync`."""
        self._log.append(("remove", user_id, None, None))
        obs.inc("gallery_mutations_total", kind="remove")

    @property
    def pending(self) -> int:
        """Logged mutations not yet applied to the shards."""
        return len(self._log)

    # -- apply side -----------------------------------------------------

    def sync(self) -> None:
        """Drain the mutation log into the shards; compact if due.

        Raises :class:`~repro.errors.TransientError` subclasses when an
        injected build fault fires; already-applied mutations stay
        applied, unapplied ones stay logged, and the next sync retries:
        the head entry is popped only after it applied.
        Compaction faults are contained: the affected shard keeps its
        tombstones (still correct, just uncompacted) and is retried on
        the next sync.
        """
        if not self._log and not self._dirty:
            return
        with self._lock.write_locked(), obs.span("gallery_sync"):
            if self._log:
                faults.maybe_fail("gallery.build")
            applied = False
            while self._log:
                self._apply(*self._log[0])
                self._log.popleft()
                applied = True
            if self._maybe_compact() or applied:
                self._score_table = None
            self._publish_gauges()

    def _apply(
        self,
        kind: str,
        user_id: str,
        matrix: np.ndarray | None,
        template: np.ndarray | None,
    ) -> None:
        faults.maybe_fail("gallery.shard_build")
        faults.maybe_delay("gallery.shard_build")
        if kind == "remove":
            location = self._index.pop(user_id, None)
            if location is not None:
                shard_index, slot = location
                self._shards[shard_index].kill_slot(slot)
                self._dirty.add(shard_index)
                self._alive_count -= 1
                self._tombstone_count += 1
            return
        if self.in_dim is None:
            shape = np.shape(matrix)
            if len(shape) != 2:
                raise ShapeError("each projection matrix must be 2-D")
            self.in_dim, self.out_dim = shape
        location = self._index.get(user_id)
        if location is not None:
            # Renew / adapt: overwrite in place, keeping the slot's
            # enrollment sequence number (dict-order parity: assigning
            # an existing key does not move it).
            shard_index, slot = location
            shard = self._shards[shard_index]
            shard.write_slot(
                slot, user_id, matrix, template, int(shard.seq[slot])
            )
            return
        shard_index = len(self._shards) - 1
        if shard_index < 0 or not self._shards[shard_index].has_space:
            self._shards.append(
                GalleryShard(
                    capacity=self.config.shard_size,
                    in_dim=self.in_dim,
                    out_dim=self.out_dim,
                    rank=self.config.prescreen_rank,
                )
            )
            shard_index = len(self._shards) - 1
        slot = self._shards[shard_index].append(
            user_id, matrix, template, self._seq
        )
        self._index[user_id] = (shard_index, slot)
        self._seq += 1
        self._alive_count += 1

    def _maybe_compact(self) -> bool:
        """Compact dirty shards past the tombstone threshold.

        Build-then-swap per shard: a fault mid-build leaves the old
        shard (tombstones included) fully consistent, so scoring never
        observes a half-compacted block; the shard stays flagged and
        the next sync retries.  Returns True if any shard was swapped.
        """
        from repro.errors import TransientError

        threshold = self.config.compact_tombstone_ratio
        swapped = False
        for shard_index in sorted(self._dirty):
            shard = self._shards[shard_index]
            if shard.tombstone_ratio() <= threshold or shard.tombstones == 0:
                self._dirty.discard(shard_index)
                continue
            try:
                with obs.span("gallery_compact"):
                    faults.maybe_fail("gallery.compact")
                    faults.maybe_delay("gallery.compact")
                    replacement = shard.compacted()
            except TransientError:
                obs.inc("gallery_compaction_failures_total")
                continue  # contained: retried on the next sync
            self._tombstone_count -= shard.tombstones
            self._shards[shard_index] = replacement
            for slot in range(replacement.count):
                self._index[replacement.user_ids[slot]] = (shard_index, slot)
            self._dirty.discard(shard_index)
            self._compactions += 1
            swapped = True
            obs.inc("gallery_compactions_total")
        return swapped

    def _publish_gauges(self) -> None:
        obs.set_gauge("gallery_users", self._alive_count)
        obs.set_gauge("gallery_shards", len(self._shards))
        obs.set_gauge("gallery_tombstones", self._tombstone_count)
        obs.set_gauge(
            "gallery_bytes",
            float(sum(shard.nbytes() for shard in self._shards)),
        )

    # -- introspection --------------------------------------------------

    @property
    def num_users(self) -> int:
        """Alive (non-tombstoned) users currently applied to shards."""
        return self._alive_count

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def compactions(self) -> int:
        return self._compactions

    def users(self) -> list[str]:
        """Alive user ids in enrollment-sequence order."""
        rows = []
        for shard in self._shards:
            for slot in range(shard.count):
                if shard.alive[slot]:
                    rows.append((int(shard.seq[slot]), shard.user_ids[slot]))
        return [user_id for _, user_id in sorted(rows)]

    def stats(self) -> dict:
        return {
            "users": self.num_users,
            "shards": self.num_shards,
            "tombstones": self._tombstone_count,
            "pending_mutations": self.pending,
            "compactions": self._compactions,
            "resident_nbytes": sum(shard.nbytes() for shard in self._shards),
        }

    # -- epoch export / import (multi-process serving) ------------------

    def export_epoch(self) -> tuple[dict[str, np.ndarray], dict]:
        """Snapshot the resident scoring state as flat picklable parts.

        Returns ``(arrays, meta)``: a dict of contiguous numpy arrays
        (per-shard prescreen/numerator/tail/seq/alive blocks plus the
        stacked matrices and templates the rerank stage needs)
        and a plain-dict ``meta`` describing shapes, user ids and
        counters.  :meth:`from_epoch` rebuilds a scoring-equivalent
        gallery from them — the pair is the serialization seam the
        multi-process pool publishes through shared memory
        (:mod:`repro.serve.shm`).

        The caller must :meth:`sync` first; exporting with pending
        mutations would silently publish a stale epoch, so it raises.
        """
        if self.pending:
            raise ShapeError(
                f"cannot export an epoch with {self.pending} pending "
                "mutations; sync() first"
            )
        with self._lock.read_locked():
            arrays: dict[str, np.ndarray] = {}
            shards_meta: list[dict] = []
            for shard in self._shards:
                count = shard.count
                if count == 0:
                    continue
                key = f"shard{len(shards_meta)}"
                arrays[f"{key}.prescreen"] = shard.prescreen_block()
                arrays[f"{key}.numer"] = shard.numer_block()
                arrays[f"{key}.tail"] = shard.tail_block()
                arrays[f"{key}.seq"] = shard.seq_block()
                arrays[f"{key}.alive"] = shard.alive_block()
                matrices = np.zeros((count, self.in_dim, self.out_dim))
                templates = np.zeros((count, self.out_dim))
                for slot in range(count):
                    if shard.alive[slot]:
                        matrices[slot] = shard.matrix_for(slot)
                        templates[slot] = shard.template_for(slot)
                arrays[f"{key}.matrices"] = matrices
                arrays[f"{key}.templates"] = templates
                shards_meta.append(
                    {
                        "count": count,
                        "rank": shard.rank,
                        "user_ids": list(shard.user_ids[:count]),
                    }
                )
            meta = {
                "shards": shards_meta,
                "in_dim": self.in_dim,
                "out_dim": self.out_dim,
                "seq": self._seq,
                "alive": self._alive_count,
                "tombstones": self._tombstone_count,
            }
            return arrays, meta

    @classmethod
    def from_epoch(
        cls,
        config: GalleryConfig | None,
        arrays: dict[str, np.ndarray],
        meta: dict,
    ) -> "ShardedGallery":
        """Rebuild a read-only scoring gallery from an exported epoch.

        The shard blocks reference ``arrays`` directly (zero-copy when
        they are shared-memory views).  The result is for scoring only:
        it must never be mutated — the publishing parent owns the
        mutation log and ships a fresh epoch instead.
        """
        gallery = cls(config)
        gallery.in_dim = meta["in_dim"]
        gallery.out_dim = meta["out_dim"]
        for index, shard_meta in enumerate(meta["shards"]):
            key = f"shard{index}"
            alive = arrays[f"{key}.alive"]
            shard = GalleryShard.adopt(
                user_ids=shard_meta["user_ids"],
                prescreen=arrays[f"{key}.prescreen"],
                numer=arrays[f"{key}.numer"],
                tail=arrays[f"{key}.tail"],
                seq=arrays[f"{key}.seq"],
                alive=alive,
                matrices=arrays[f"{key}.matrices"],
                templates=arrays[f"{key}.templates"],
                rank=shard_meta["rank"],
            )
            gallery._shards.append(shard)
            for slot, user_id in enumerate(shard.user_ids):
                if alive[slot]:
                    gallery._index[user_id] = (index, slot)
        gallery._seq = meta["seq"]
        gallery._alive_count = meta["alive"]
        gallery._tombstone_count = meta["tombstones"]
        return gallery

    def row(self, user_id: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The ``(matrix, template)`` pair for one alive user.

        Verification-side lookup for worker replicas: the 1:1 path
        needs exactly what the rerank stage holds.  Returns ``None``
        when the user is absent or tombstoned.
        """
        self.sync()
        with self._lock.read_locked():
            location = self._index.get(user_id)
            if location is None:
                return None
            shard_index, slot = location
            shard = self._shards[shard_index]
            if not shard.alive[slot]:
                return None
            return shard.matrix_for(slot), shard.template_for(slot)

    # -- scoring side ---------------------------------------------------

    def best_match(self, embeddings: np.ndarray) -> list[GalleryMatch | None]:
        """The argmin user per probe, bitwise-equal to per-user loop scoring.

        Syncs pending mutations first (read-your-writes), then runs the
        prescreen + exact-rerank cascade under the read lock.  Returns
        one :class:`GalleryMatch` per probe row, or ``None`` when no
        user is alive.
        """
        self.sync()
        with self._lock.read_locked(), obs.span("gallery_score"):
            return self._cascade(embeddings)

    def _screen_shard(
        self, shard: GalleryShard, probes: np.ndarray, probes_ps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One shard's numerator and partial-norm blocks, ``(B, count)``."""
        numerators = probes @ shard.numer_block()
        projected = probes_ps @ shard.prescreen_block()
        batch = probes.shape[0]
        # Squared partial norms accumulated in the prescreen dtype; the
        # extra float32 rounding (~rank * 2^-24 relative) is orders of
        # magnitude inside the _DENOM_SLACK the bound already carries.
        partial_sq = np.einsum(
            "bcr,bcr->bc",
            projected.reshape(batch, shard.count, shard.rank),
            projected.reshape(batch, shard.count, shard.rank),
        )
        return numerators, np.sqrt(partial_sq.astype(np.float64))

    def _screen(
        self, probes: np.ndarray, shards: list[GalleryShard]
    ) -> tuple[np.ndarray, np.ndarray]:
        probes_ps = probes.astype(PRESCREEN_DTYPE, copy=False)
        blocks = [self._screen_shard(shard, probes, probes_ps) for shard in shards]
        numerators = np.concatenate([block[0] for block in blocks], axis=1)
        partials = np.concatenate([block[1] for block in blocks], axis=1)
        return numerators, partials

    def _score_state(self) -> _ScoreTable:
        """The concatenated slot table, cached between mutations.

        Built under the read lock (mutations are excluded, so a
        concurrent rebuild by two readers is merely redundant) and
        dropped by :meth:`sync` whenever a mutation or compaction
        lands, so scoring never pays the O(U) concatenation per call.
        """
        table = self._score_table
        if table is None:
            shards = [shard for shard in self._shards if shard.count]
            slots: list[tuple[GalleryShard, int]] = []
            for shard in shards:
                slots.extend((shard, slot) for slot in range(shard.count))
            if shards:
                alive = np.concatenate([s.alive_block() for s in shards])
                seqs = np.concatenate([s.seq_block() for s in shards])
                tails = np.concatenate([s.tail_block() for s in shards])
                matrix_norms = np.concatenate(
                    [s.matrix_norm_block() for s in shards]
                )
            else:
                alive = np.zeros(0, dtype=bool)
                seqs = np.zeros(0, dtype=np.int64)
                tails = np.zeros(0)
                matrix_norms = np.zeros(0)
            table = _ScoreTable(
                shards,
                slots,
                alive,
                seqs,
                tails,
                matrix_norms,
                alive.tolist(),
                seqs.tolist(),
            )
            self._score_table = table
        return table

    def _cascade(self, embeddings: np.ndarray) -> list[GalleryMatch | None]:
        probes = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        if self._alive_count == 0:
            return [None] * probes.shape[0]
        if probes.shape[1] != self.in_dim:
            raise ShapeError(
                f"expected (B, {self.in_dim}) embeddings, got {probes.shape}"
            )
        table = self._score_state()
        lower_dist, norms = self._lower_distances(probes)
        top_k = min(self.config.top_k, self._alive_count)
        rows: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}
        results: list[GalleryMatch | None] = []
        with obs.span("gallery_rerank"):
            for row in range(probes.shape[0]):
                results.append(
                    self._rerank_probe(
                        probes[row], norms[row], lower_dist[row], table,
                        top_k, rows,
                    )
                )
        return results

    def _lower_distances(
        self, probes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Prescreen lower bounds ``(B, slots)`` on every slot's distance.

        Columns follow the score table's slot order; dead slots read
        ``inf``.  Also returns the probe norms, ``(B,)``.
        """
        table = self._score_state()
        with obs.span("gallery_prescreen"):
            numerators, partials = self._screen(probes, table.shards)
        norms = np.linalg.norm(probes, axis=1)
        partial_err = ((self.in_dim + 2) * _F32_ABS_SLACK) * (
            norms[:, None] * table.matrix_norms[None, :]
        )
        denom_lb = np.maximum(
            partials * (1.0 - _DENOM_SLACK) - partial_err, 0.0
        )
        denom_ub = np.sqrt(
            np.square(partials + partial_err)
            + np.square(norms)[:, None] * table.tails[None, :]
        ) * (1.0 + _DENOM_SLACK)
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = np.where(
                numerators >= 0.0,
                np.where(denom_lb > 0.0, numerators / denom_lb, np.inf),
                np.where(denom_ub > 0.0, numerators / denom_ub, 0.0),
            )
        upper = np.minimum(
            upper + np.abs(upper) * _UB_REL_SLACK + _UB_ABS_SLACK, 1.0
        )
        lower_dist = 1.0 - upper
        lower_dist[:, ~table.alive] = np.inf
        return lower_dist, norms

    def _rerank_probe(
        self,
        probe: np.ndarray,
        norm: float,
        lower: np.ndarray,
        table: _ScoreTable,
        top_k: int,
        rows: dict[int, tuple[np.ndarray, np.ndarray, float]],
    ) -> GalleryMatch:
        slots = table.slots
        if norm == 0.0:
            # Zero probes are maximally distant (1.0) from every user;
            # the loop keeps the first enrolled — i.e. the minimum
            # sequence number.
            alive_columns = np.flatnonzero(table.alive)
            first = alive_columns[np.argmin(table.seqs[alive_columns])]
            shard, slot = slots[int(first)]
            obs.observe(
                "gallery_rerank_pool", 0.0, buckets=DEFAULT_SIZE_BUCKETS
            )
            return GalleryMatch(shard.user_ids[slot], 1.0)
        if top_k < lower.shape[0]:
            seed = np.argpartition(lower, top_k - 1)[:top_k]
        else:
            seed = np.flatnonzero(table.alive)
        best_column = -1
        best_distance = math.inf
        best_seq = math.inf
        done: set[int] = set()

        def rerank(columns: list[int]) -> None:
            nonlocal best_column, best_distance, best_seq
            # Scan order is irrelevant: minimising (distance, seq) is
            # order-independent, so the result is deterministic.
            for column in columns:
                if column in done or not table.alive_flags[column]:
                    continue
                done.add(column)
                row = rows.get(column)
                if row is None:
                    shard, slot = slots[column]
                    row = rows[column] = shard.rerank_row(slot)
                distance = projected_cosine_distance(probe, *row)
                seq = table.seq_list[column]
                if distance < best_distance or (
                    distance == best_distance and seq < best_seq
                ):
                    best_column = column
                    best_distance = distance
                    best_seq = seq

        rerank(seed.tolist())
        # Soundness expansion: every user whose distance lower bound
        # could still beat (or tie) the best exact distance must be
        # scored exactly.  Exact distances only shrink the qualifying
        # set, so one round converges.
        rerank(np.flatnonzero(lower <= best_distance).tolist())
        obs.observe(
            "gallery_rerank_pool", float(len(done)), buckets=DEFAULT_SIZE_BUCKETS
        )
        shard, slot = slots[best_column]
        return GalleryMatch(shard.user_ids[slot], best_distance)
