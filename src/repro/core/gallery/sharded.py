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

* **Nested prescreen + exact-rerank cascade.**  Scoring all users
  exactly costs one ``(B, in) @ (in, U * out)`` gemm.  The cascade
  instead bounds every user's cosine distance from below in three
  steps, and the exact stage replays the per-user loop's own
  operations (:func:`~repro.core.similarity.projected_cosine_distance`,
  bitwise ``cosine_distance(probe @ matrix, template)``) for a few
  users only:

  1. *Coarse level*: every user is screened at rank ``k``
     (``shard.COARSE_RANK``) from one contiguous float32 block.
  2. *First cut and fine level*: each probe's most likely user is
     scored exactly; only the users whose coarse bound can beat or
     tie that distance read their other ``rank - k`` fine rows (one
     gather and one gemm, or one contiguous gemm when most of a shard
     survives), which completes their rank-``r`` partial norms.
  3. *Best-first rerank*: the survivors are scored exactly in
     ascending rank-``r`` bound, stopping at the first bound above
     the best exact distance.

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
re-association in the numerator pass.

**Both levels are sound.**  The bound holds for *any* orthonormal
``Q``, so it holds for the first ``k`` columns of the stored basis
with the coarse tail ``R_k = ||G||^2 - ||G Q[:, :k]||^2`` (the shard
clamps it with the same slack); the first ``k`` columns of the range
finder's QR span the rank-``k`` range finder of the same sketch, so
the coarse level needs no second factorization.  The fine level adds
the other columns' squares to the coarse ones, ``p^2 = p_k^2 +
p_fine^2``, which is the rank-``r`` partial norm up to float32
rounding inside the same slack.  A user excluded at the coarse level
has ``lb_k > cut >= d*`` (the cut is an exact distance, so no smaller
than the answer ``d*``): it can neither beat nor tie the answer.

**The best-first stopping rule is exact.**  The walk scores survivors
in ascending rank-``r`` bound and keeps the least ``(distance, seq)``.
When it meets a bound above the best distance so far, every user not
yet scored has a bound at least as large, hence an exact distance
above the best — and the best only falls as the walk goes on, so no
such user can beat or tie the final answer.  Every user with
``lb_r <= d*`` — the argmin and every exact tie — is therefore
scored, and ties resolve on the global enrollment sequence number,
matching the first-wins semantics of the per-user dict loop.  The
cascade returns bitwise the same decision as the loop; only the cost
depends on the bounds' tightness (worst case: a full, still-exact
rerank).  Which user sets the first cut only moves the cost, never the
answer: it is the user with the highest cosine estimate
``num / sqrt(p_k^2 + ||x||^2 R_k / in)`` — the coarse partial norm
plus the tail's expected share for an isotropic probe.

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
#: The denominators' scale factors: the relative denominator slack,
#: with the cosine bound's relative slack folded in (dividing by a
#: denominator scaled by ``1 / (1 + rel)`` multiplies a positive
#: quotient by ``1 + rel``; a negative one over ``(1 - rel)`` moves
#: it up by ``rel`` of its size).
_LB_SCALE = (1.0 - _DENOM_SLACK) / (1.0 + _UB_REL_SLACK)
_UB_SCALE = (1.0 + _DENOM_SLACK) / (1.0 - _UB_REL_SLACK)
#: Share of a shard's users above which the fine level reads the
#: shard's whole fine block in one contiguous gemm instead of first
#: gathering the asked-for users' rows.
_GATHER_FRACTION = 0.375


class _ScoreTable(NamedTuple):
    """The concatenated per-slot scoring state of all non-empty shards.

    ``offsets`` holds each shard's first column and then the total;
    ``dead`` lists the tombstoned columns.  The sequence numbers come
    twice: as an array for the zero-probe argmin and as a list for the
    rerank walk, which reads them per candidate.  ``tail_shares`` is
    the coarse tails over ``in`` (the first cut's estimate) and
    ``err_scale`` the matrix norms times the float32 partial-norm
    error per unit probe norm.
    """

    shards: list[GalleryShard]
    offsets: np.ndarray
    slots: list[tuple[GalleryShard, int]]
    alive: np.ndarray
    dead: np.ndarray
    seqs: np.ndarray
    seq_list: list[int]
    tails: np.ndarray
    coarse_tails: np.ndarray
    tail_shares: np.ndarray
    err_scale: np.ndarray
    fine_rank: int


class _Screen(NamedTuple):
    """One batch's coarse screen, ``(B, slots)`` blocks the fine level reuses."""

    probes_ps: np.ndarray
    numerators: np.ndarray
    coarse_sq: np.ndarray
    norms: np.ndarray
    partial_err: np.ndarray
    lower: np.ndarray


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
        (per-shard coarse/fine prescreen, numerator, tail, coarse-tail,
        seq and alive blocks plus the
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
                arrays[f"{key}.coarse"] = shard.coarse_block()
                arrays[f"{key}.fine"] = shard.fine_block()
                arrays[f"{key}.numer"] = shard.numer_block()
                arrays[f"{key}.tail"] = shard.tail_block()
                arrays[f"{key}.coarse_tail"] = shard.coarse_tail_block()
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
                coarse=arrays[f"{key}.coarse"],
                fine=arrays[f"{key}.fine"],
                numer=arrays[f"{key}.numer"],
                tail=arrays[f"{key}.tail"],
                coarse_tail=arrays[f"{key}.coarse_tail"],
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

    def _screen(self, probes: np.ndarray, table: _ScoreTable) -> _Screen:
        """The coarse level: every slot's rank-``k`` lower distance, ``(B, slots)``.

        Streams each shard's float64 numerator block and its contiguous
        float32 coarse block once for the whole batch.  Columns follow
        the score table's slot order; dead slots read ``inf``.
        """
        probes_ps = probes.astype(PRESCREEN_DTYPE)
        batch = probes.shape[0]
        numerators, coarse_sq = [], []
        for shard in table.shards:
            numerators.append(probes @ shard.numer_block())
            projected = (probes_ps @ shard.coarse_block()).reshape(
                batch, shard.count, shard.coarse_rank
            )
            # Squared partial norms accumulated in the prescreen dtype;
            # the extra float32 rounding (~rank * 2^-24 relative) is
            # orders of magnitude inside the _DENOM_SLACK the bound
            # already carries.
            coarse_sq.append(np.einsum("bck,bck->bc", projected, projected))
        numer = np.concatenate(numerators, axis=1)
        partial_sq = np.concatenate(coarse_sq, axis=1)
        norms = np.sqrt(np.einsum("bi,bi->b", probes, probes))
        partial_err = norms[:, None] * table.err_scale
        lower = _lower_bound(
            numer, partial_sq, norms, partial_err, table.coarse_tails
        )
        lower[:, table.dead] = np.inf
        return _Screen(probes_ps, numer, partial_sq, norms, partial_err, lower)

    def _fine_lower(
        self, screen: _Screen, table: _ScoreTable, columns: np.ndarray
    ) -> np.ndarray:
        """The rank-``r`` lower distances of ``columns``, ``(B, n)``.

        ``columns`` are ascending slot-table columns.  Each one's coarse
        partial norm is completed with its fine rows,
        ``p^2 = p_k^2 + p_fine^2``: per shard, one gather of the
        columns' rows and one gemm, or one contiguous gemm over the
        shard's whole fine block once most of its users are asked for.
        """
        partial_sq = screen.coarse_sq[:, columns]
        if table.fine_rank:
            partial_sq = partial_sq + self._fine_sq(
                screen.probes_ps, table, columns
            )
        return _lower_bound(
            screen.numerators[:, columns],
            partial_sq,
            screen.norms,
            screen.partial_err[:, columns],
            table.tails[columns],
        )

    @staticmethod
    def _fine_sq(
        probes_ps: np.ndarray, table: _ScoreTable, columns: np.ndarray
    ) -> np.ndarray:
        """Squared norms of the fine projections of ``columns``, ``(B, n)``."""
        vectors = probes_ps.T
        batch = probes_ps.shape[0]
        fine = table.fine_rank
        splits = np.searchsorted(columns, table.offsets).tolist()
        parts = []
        for index, shard in enumerate(table.shards):
            local = columns[splits[index] : splits[index + 1]]
            if not local.size:
                continue
            local = local - table.offsets[index]
            if local.size > _GATHER_FRACTION * shard.count:
                projected = (shard.fine_block() @ vectors).reshape(
                    shard.count, fine, batch
                )
                parts.append(
                    np.einsum("cfb,cfb->bc", projected, projected)[:, local]
                )
            else:
                projected = (shard.fine_rows(local) @ vectors).reshape(
                    local.size, fine, batch
                )
                parts.append(np.einsum("nfb,nfb->bn", projected, projected))
        return np.concatenate(parts, axis=1)

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

            def joined(block: str, dtype=np.float64) -> np.ndarray:
                if not shards:
                    return np.zeros(0, dtype=dtype)
                return np.concatenate([getattr(s, block)() for s in shards])

            alive = joined("alive_block", bool)
            seqs = joined("seq_block", np.int64)
            coarse_tails = joined("coarse_tail_block")
            table = _ScoreTable(
                shards=shards,
                offsets=np.cumsum([0] + [shard.count for shard in shards]),
                slots=slots,
                alive=alive,
                dead=np.flatnonzero(~alive),
                seqs=seqs,
                seq_list=seqs.tolist(),
                tails=joined("tail_block"),
                coarse_tails=coarse_tails,
                tail_shares=coarse_tails / (self.in_dim or 1),
                err_scale=((self.in_dim or 0) + 2)
                * _F32_ABS_SLACK
                * joined("matrix_norm_block"),
                fine_rank=shards[0].fine_rank if shards else 0,
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
        with obs.span("gallery_prescreen"):
            screen = self._screen(probes, table)
        with obs.span("gallery_rerank"):
            return self._rerank(probes, screen, table)

    def _rerank(
        self, probes: np.ndarray, screen: _Screen, table: _ScoreTable
    ) -> list[GalleryMatch]:
        """Steps 2 and 3 of the cascade: first cut, fine level, best-first walk."""
        slots = table.slots
        seq_list = table.seq_list
        lower = screen.lower
        norms = screen.norms.tolist()
        rows: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}

        def exact(row: int, column: int) -> float:
            cached = rows.get(column)
            if cached is None:
                shard, slot = slots[column]
                cached = rows[column] = shard.rerank_row(slot)
            return projected_cosine_distance(probes[row], *cached)

        # The first cut: each probe's most likely match, scored exactly.
        # Likelihood is the numerator over the coarse partial norm with
        # the tail's expected share for an isotropic probe,
        # ``||x||^2 T_k / in``, put back; only users whose coarse bound
        # can beat or tie the cut survive.  A zero probe's cut is -inf,
        # so it keeps no survivor.
        with np.errstate(divide="ignore", invalid="ignore"):
            likely = screen.numerators / np.sqrt(
                screen.coarse_sq
                + np.square(screen.norms)[:, None] * table.tail_shares
            )
        likely[:, table.dead] = -np.inf
        firsts = np.argmax(likely, axis=1).tolist()
        cuts = [
            exact(row, first) if norm else -math.inf
            for row, (first, norm) in enumerate(zip(firsts, norms))
        ]
        survive = lower <= np.array(cuts)[:, None]
        columns = np.flatnonzero(survive.any(axis=0))
        bounds = (
            self._fine_lower(screen, table, columns)
            if columns.size
            else np.empty((len(cuts), 0))
        )
        results: list[GalleryMatch] = []
        for row, norm in enumerate(norms):
            if not norm:
                # Zero probes are maximally distant (1.0) from every
                # user; the loop keeps the first enrolled — i.e. the
                # minimum sequence number.
                alive_columns = np.flatnonzero(table.alive)
                best = int(alive_columns[np.argmin(table.seqs[alive_columns])])
                best_distance, pool = 1.0, 0
            else:
                first = best = firsts[row]
                best_distance, best_seq, pool = cuts[row], seq_list[first], 1
                mine = survive[row, columns]
                ranked, candidates = bounds[row, mine], columns[mine]
                order = np.argsort(ranked)
                # Best-first: once a bound exceeds the best exact
                # distance, so does every later one, and no remaining
                # user can beat or tie the answer.  Ties resolve on
                # (distance, seq), so the scan order never matters.
                for bound, column in zip(
                    ranked[order].tolist(), candidates[order].tolist()
                ):
                    if bound > best_distance:
                        break
                    if column == first:
                        continue
                    distance = exact(row, column)
                    pool += 1
                    seq = seq_list[column]
                    if distance < best_distance or (
                        distance == best_distance and seq < best_seq
                    ):
                        best, best_distance, best_seq = column, distance, seq
            obs.observe(
                "gallery_rerank_pool", float(pool), buckets=DEFAULT_SIZE_BUCKETS
            )
            shard, slot = slots[best]
            results.append(GalleryMatch(shard.user_ids[slot], best_distance))
        return results


def _lower_bound(
    numerators: np.ndarray,
    partial_sq: np.ndarray,
    norms: np.ndarray,
    partial_err: np.ndarray,
    tails: np.ndarray,
) -> np.ndarray:
    """Lower distances from numerators, float32 partial norms and tails.

    ``numerators``, ``partial_sq`` and ``partial_err`` are ``(B, n)``,
    ``norms`` the ``(B,)`` probe norms and ``tails`` the ``(n,)``
    residual energies of the level the partial norms were taken at.
    """
    partials = np.sqrt(partial_sq, dtype=np.float64)
    denom_lb = partials * _LB_SCALE
    denom_lb -= partial_err
    np.maximum(denom_lb, 0.0, out=denom_lb)
    denom_ub = partials + partial_err
    np.square(denom_ub, out=denom_ub)
    denom_ub += np.square(norms)[:, None] * tails
    np.sqrt(denom_ub, out=denom_ub)
    denom_ub *= _UB_SCALE
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = numerators / np.where(numerators >= 0.0, denom_lb, denom_ub)
    # A zero lower denominator gives +inf, or NaN for 0/0; fmax maps
    # both to the trivial lower distance 0.  The upper denominator is
    # at least ``partial_err``, so it is zero only for a zero probe
    # (answered without the bound) or a zero matrix (whose numerator is
    # exactly 0 and takes the lower denominator).
    lower = np.subtract(1.0 - _UB_ABS_SLACK, upper, out=upper)
    return np.fmax(lower, 0.0, out=lower)
