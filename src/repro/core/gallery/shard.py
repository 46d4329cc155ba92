"""One fixed-size gallery shard: row-updatable prescreen + rerank state.

A shard owns up to ``capacity`` user rows.  Per occupied slot it keeps
exactly what the two cascade stages need:

* **prescreen** — the user's Gaussian matrix ``G`` (``in x out``)
  projected onto its dominant ``rank``-dim right subspace: the block
  ``G @ Q`` (float32, :data:`PRESCREEN_DTYPE`) for an orthonormal
  ``(out, rank)`` basis ``Q`` (see :func:`subspace_basis`), stored in
  two nested parts.  The *coarse* part, ``G @ Q[:, :k]`` with
  ``k = min(COARSE_RANK, rank)``, is one contiguous ``(in, capacity
  * k)`` block that every probe streams; the *fine* part, the other
  ``rank - k`` columns, is stored transposed as ``(capacity * (rank -
  k), in)`` so one user's rows are contiguous and a gather of a few
  users reads only their bytes.  Beside them sit the numerator vector
  ``w = G @ t_hat`` (float64), the residual energies left outside
  ``Q`` (the rank tail) and outside ``Q[:, :k]`` (the coarse tail),
  and the matrix norm ``||G||_F`` (which scales the float32 blocks'
  absolute rounding error).  Together these yield a sound lower bound
  on the user's cosine distance at both ranks — see
  :mod:`repro.core.gallery.sharded` for the bound.
* **rerank** — the full float64 matrix (a reference to the caller's
  array when it already is float64, never a copy), the sealed template
  and its norm, so the exact stage can replay the per-user loop's own
  operations bitwise.

All mutations are row-local and O(in * out) — independent of both the
shard population and the gallery population: ``write_slot`` appends or
overwrites one row in place, ``kill_slot`` tombstones one row (the
slot's scoring columns are zeroed so stale data never feeds a gemm),
and ``compacted`` rebuilds the shard without its tombstones by copying
the surviving rows' stored state (build-then-swap: the replacement is
constructed off to the side, so a fault mid-compaction leaves the
original shard intact).

Row order within a shard is free: every slot carries the global
enrollment sequence number, and the cascade breaks distance ties on
``(distance, seq)`` — matching the first-wins semantics of the
per-user dict loop regardless of physical placement.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import ShapeError

#: dtype of the prescreen block and pass: float32 halves memory traffic,
#: and its rounding is absorbed by the bound's slack terms, so decisions
#: never move.
PRESCREEN_DTYPE = np.float32

#: Columns of each user's prescreen block in the coarse level, which
#: every probe screens (capped at the shard's rank).  The first ``k``
#: columns of :func:`subspace_basis`'s QR span the rank-``k`` range
#: finder of the same sketch, so the coarse level needs no second
#: factorization.
COARSE_RANK = 8

#: Seed of the range finder's fixed start block (:func:`subspace_basis`).
#: Any value is sound; fixing it makes every row's basis reproducible.
_RANGE_SEED = 0x5B5B1DE
#: Slack added to each stored residual energy, relative to ``||G||_F^2``.
#: The residual is stored as the subtraction ``||G||_F^2 - ||G Q||_F^2``
#: (Pythagoras for an orthonormal ``Q``; the coarse tail subtracts
#: ``||G Q[:, :k]||_F^2``, and any subset of orthonormal columns is
#: orthonormal to the same accuracy, so one slack serves both).  Each
#: float64 sum of squares errs by at most ``in * out * 2^-53`` of
#: ``||G||_F^2`` (~5e-13 at 64 x 64, far less in practice), and the
#: computed ``Q`` is orthonormal to ~``out * 2^-53``; 1e-10 covers all
#: three with room to spare, so the clamped tail never falls below the
#: true residual of the orthogonal projector onto ``span(Q)`` — even
#: where the subtraction cancels to (or below) zero.
_TAIL_SLACK = 1e-10


@functools.lru_cache(maxsize=None)
def _range_start(out_dim: int, rank: int) -> np.ndarray:
    """The fixed Gaussian start block Ω, ``(out, rank)``."""
    start = np.random.default_rng(_RANGE_SEED).standard_normal((out_dim, rank))
    start.setflags(write=False)
    return start


def subspace_basis(matrix: np.ndarray, rank: int) -> np.ndarray:
    """An orthonormal ``(out, rank)`` basis of ``matrix``'s dominant right subspace.

    A randomized range finder with one power iteration (Halko,
    Martinsson & Tropp 2011): the fixed start block Ω is pushed
    through the Gram matrix ``G^T G`` twice and orthonormalised by a
    Householder QR.  The prescreen bound is sound for *any*
    orthonormal basis — the first ``rank`` columns of the identity are
    the special case — so the range finder only buys tightness: at
    64 x 64 and rank 32 it leaves ~12 % of ``||G||_F^2`` in the
    residual, against ~50 % for the identity columns and ~10 % for an
    exact SVD costing several times more.
    """
    gram = matrix.T @ matrix
    sketch = gram @ (gram @ _range_start(matrix.shape[1], rank))
    basis, _ = np.linalg.qr(sketch)
    return basis


class GalleryShard:
    """A fixed-capacity block of user rows scored as one unit."""

    def __init__(
        self,
        capacity: int,
        in_dim: int,
        out_dim: int,
        rank: int,
    ) -> None:
        if capacity <= 0:
            raise ShapeError("shard capacity must be positive")
        self.capacity = capacity
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.rank = min(rank, out_dim)
        self.coarse_rank = min(COARSE_RANK, self.rank)
        self.fine_rank = self.rank - self.coarse_rank
        # (in, capacity * k): slot u owns columns [u*k, (u+1)*k).
        self._coarse = np.zeros(
            (in_dim, capacity * self.coarse_rank), dtype=PRESCREEN_DTYPE
        )
        # (capacity * (rank - k), in): slot u owns rows [u*f, (u+1)*f).
        self._fine = np.zeros(
            (capacity * self.fine_rank, in_dim), dtype=PRESCREEN_DTYPE
        )
        # (in, capacity): slot u's numerator vector w_u = G_u @ t_hat_u.
        self._numer = np.zeros((in_dim, capacity))
        self._tail = np.zeros(capacity)
        self._coarse_tail = np.zeros(capacity)
        self._matrix_norms = np.zeros(capacity)  # ||G_u||_F
        # The sealed templates' norms, exactly as cosine_distance takes them.
        self._template_norms = np.zeros(capacity)
        self.user_ids: list[str | None] = [None] * capacity
        self.seq = np.zeros(capacity, dtype=np.int64)
        self.alive = np.zeros(capacity, dtype=bool)
        self._matrices: list[np.ndarray | None] = [None] * capacity
        self._templates: list[np.ndarray | None] = [None] * capacity
        self.count = 0  # occupied slots, tombstones included

    @classmethod
    def adopt(
        cls,
        *,
        user_ids: list[str | None],
        coarse: np.ndarray,
        fine: np.ndarray,
        numer: np.ndarray,
        tail: np.ndarray,
        coarse_tail: np.ndarray,
        seq: np.ndarray,
        alive: np.ndarray,
        matrices: np.ndarray,
        templates: np.ndarray,
        rank: int,
    ) -> "GalleryShard":
        """Build a read-only shard around externally-owned arrays.

        Zero-copy constructor for worker processes adopting a published
        epoch (:mod:`repro.serve.shm`): the scoring blocks reference the
        caller's (typically shared-memory, read-only) arrays directly.
        ``capacity == count``, so the shard is full by construction and
        must never be mutated — ``sync`` is never called on an adopted
        gallery, the parent publishes a fresh epoch instead.
        """
        count = len(user_ids)
        in_dim, out_dim = int(matrices.shape[1]), int(matrices.shape[2])
        shard = cls.__new__(cls)
        shard.capacity = count
        shard.in_dim = in_dim
        shard.out_dim = out_dim
        shard.rank = min(rank, out_dim)
        shard.coarse_rank = min(COARSE_RANK, shard.rank)
        shard.fine_rank = shard.rank - shard.coarse_rank
        for name, block, shape in (
            ("coarse", coarse, (in_dim, count * shard.coarse_rank)),
            ("fine", fine, (count * shard.fine_rank, in_dim)),
        ):
            if block.shape != shape:
                raise ShapeError(
                    f"adopted {name} block must be {shape}, got {block.shape}"
                )
        shard._coarse = coarse
        shard._fine = fine
        shard._numer = numer
        shard._tail = tail
        shard._coarse_tail = coarse_tail
        shard.user_ids = list(user_ids)
        shard.seq = seq
        shard.alive = alive
        shard._matrices = [
            matrices[slot] if alive[slot] else None for slot in range(count)
        ]
        shard._templates = [
            templates[slot] if alive[slot] else None for slot in range(count)
        ]
        shard._matrix_norms = np.sqrt(
            np.einsum("uij,uij->u", matrices, matrices)
        )
        shard._template_norms = np.array(
            [
                float(np.linalg.norm(template)) if template is not None else 0.0
                for template in shard._templates
            ]
        )
        shard.count = count
        return shard

    # -- occupancy ------------------------------------------------------

    @property
    def num_alive(self) -> int:
        return int(np.count_nonzero(self.alive[: self.count]))

    @property
    def tombstones(self) -> int:
        return self.count - self.num_alive

    @property
    def has_space(self) -> bool:
        return self.count < self.capacity

    def tombstone_ratio(self) -> float:
        return self.tombstones / self.count if self.count else 0.0

    # -- row mutations --------------------------------------------------

    def write_slot(
        self,
        slot: int,
        user_id: str,
        matrix: np.ndarray,
        template: np.ndarray,
        seq: int,
    ) -> None:
        """Fill (or overwrite) one row; O(in * out), independent of U."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (self.in_dim, self.out_dim):
            raise ShapeError(
                f"matrix must be ({self.in_dim}, {self.out_dim}), "
                f"got {matrix.shape}"
            )
        flat = np.asarray(template, dtype=np.float64).reshape(-1)
        if flat.shape != (self.out_dim,):
            raise ShapeError(
                f"template must have {self.out_dim} entries, got {flat.shape}"
            )
        norm = float(np.linalg.norm(flat))
        # Zero-norm templates stay zero: the numerator is then 0, the
        # bound collapses to distance >= 1 and the exact stage returns
        # the cosine-convention neutral 1.0.
        unit = flat / norm if norm else flat
        coarse, fine = self.coarse_rank, self.fine_rank
        self._numer[:, slot] = matrix @ unit
        block = matrix @ subspace_basis(matrix, self.rank)
        energy = float(np.einsum("ij,ij->", matrix, matrix))
        residual = energy - float(np.einsum("ij,ij->", block, block))
        leading = block[:, :coarse]
        coarse_residual = energy - float(np.einsum("ij,ij->", leading, leading))
        self._coarse[:, slot * coarse : (slot + 1) * coarse] = leading
        self._fine[slot * fine : (slot + 1) * fine] = block[:, coarse:].T
        self._tail[slot] = max(residual, 0.0) + _TAIL_SLACK * energy
        self._coarse_tail[slot] = (
            max(coarse_residual, 0.0) + _TAIL_SLACK * energy
        )
        self._matrix_norms[slot] = np.sqrt(energy)
        self._template_norms[slot] = norm
        self.user_ids[slot] = user_id
        self.seq[slot] = seq
        self.alive[slot] = True
        self._matrices[slot] = matrix
        self._templates[slot] = flat
        if slot >= self.count:
            self.count = slot + 1

    def append(
        self, user_id: str, matrix: np.ndarray, template: np.ndarray, seq: int
    ) -> int:
        """Fill the next free slot; returns its index."""
        if not self.has_space:
            raise ShapeError("shard is full")
        slot = self.count
        self.write_slot(slot, user_id, matrix, template, seq)
        return slot

    def kill_slot(self, slot: int) -> None:
        """Tombstone one row: scoring columns zeroed, references dropped."""
        coarse, fine = self.coarse_rank, self.fine_rank
        self.alive[slot] = False
        self._numer[:, slot] = 0.0
        self._coarse[:, slot * coarse : (slot + 1) * coarse] = 0.0
        self._fine[slot * fine : (slot + 1) * fine] = 0.0
        self._tail[slot] = 0.0
        self._coarse_tail[slot] = 0.0
        self._matrix_norms[slot] = 0.0
        self._template_norms[slot] = 0.0
        self.user_ids[slot] = None
        self._matrices[slot] = None
        self._templates[slot] = None

    def compacted(self) -> "GalleryShard":
        """A tombstone-free replacement shard (original left untouched).

        The surviving rows' stored state is copied, never derived
        again: compaction costs O(shard_size * in * rank) array copies
        and leaves every copied row — both prescreen parts and both tails —
        bitwise what ``write_slot`` stored.
        """
        fresh = GalleryShard(
            capacity=self.capacity,
            in_dim=self.in_dim,
            out_dim=self.out_dim,
            rank=self.rank,
        )
        rows = np.flatnonzero(self.alive[: self.count])
        kept = rows.size
        coarse = self._coarse.reshape(self.in_dim, -1, self.coarse_rank)
        fresh._coarse.reshape(self.in_dim, -1, self.coarse_rank)[:, :kept] = (
            coarse[:, rows]
        )
        if self.fine_rank:
            fine = self._fine.reshape(-1, self.fine_rank, self.in_dim)
            fresh._fine.reshape(-1, self.fine_rank, self.in_dim)[:kept] = (
                fine[rows]
            )
        fresh._numer[:, :kept] = self._numer[:, rows]
        fresh._tail[:kept] = self._tail[rows]
        fresh._coarse_tail[:kept] = self._coarse_tail[rows]
        fresh._matrix_norms[:kept] = self._matrix_norms[rows]
        fresh._template_norms[:kept] = self._template_norms[rows]
        fresh.seq[:kept] = self.seq[rows]
        fresh.alive[:kept] = True
        for new_slot, slot in enumerate(rows.tolist()):
            fresh.user_ids[new_slot] = self.user_ids[slot]
            fresh._matrices[new_slot] = self._matrices[slot]
            fresh._templates[new_slot] = self._templates[slot]
        fresh.count = kept
        return fresh

    # -- scoring views --------------------------------------------------

    def numer_block(self) -> np.ndarray:
        """``(in, count)`` numerator matrix over the occupied slots."""
        return self._numer[:, : self.count]

    def coarse_block(self) -> np.ndarray:
        """``(in, count * k)`` coarse prescreen columns over occupied slots."""
        return self._coarse[:, : self.count * self.coarse_rank]

    def fine_block(self) -> np.ndarray:
        """``(count * (rank - k), in)`` fine prescreen rows over occupied slots."""
        return self._fine[: self.count * self.fine_rank]

    def fine_rows(self, slots: np.ndarray) -> np.ndarray:
        """The fine rows of ``slots`` only, gathered: ``(n * (rank - k), in)``."""
        return self._fine.reshape(-1, self.fine_rank, self.in_dim)[slots].reshape(
            -1, self.in_dim
        )

    def tail_block(self) -> np.ndarray:
        """The rank tails, ``||G||_F^2 - ||G Q||_F^2`` plus slack."""
        return self._tail[: self.count]

    def coarse_tail_block(self) -> np.ndarray:
        """The coarse tails, ``||G||_F^2 - ||G Q[:, :k]||_F^2`` plus slack."""
        return self._coarse_tail[: self.count]

    def matrix_norm_block(self) -> np.ndarray:
        return self._matrix_norms[: self.count]

    def alive_block(self) -> np.ndarray:
        return self.alive[: self.count]

    def seq_block(self) -> np.ndarray:
        return self.seq[: self.count]

    def matrix_for(self, slot: int) -> np.ndarray:
        """The full-precision matrix for one rerank candidate."""
        matrix = self._matrices[slot]
        if matrix is None:
            raise ShapeError(f"slot {slot} is empty or tombstoned")
        return matrix

    def template_for(self, slot: int) -> np.ndarray:
        template = self._templates[slot]
        if template is None:
            raise ShapeError(f"slot {slot} is empty or tombstoned")
        return template

    def rerank_row(self, slot: int) -> tuple[np.ndarray, np.ndarray, float]:
        """``(matrix, template, template_norm)`` for one rerank candidate.

        The arguments :func:`~repro.core.similarity.projected_cosine_distance`
        takes after the probe.
        """
        return (
            self.matrix_for(slot),
            self.template_for(slot),
            float(self._template_norms[slot]),
        )

    def nbytes(self) -> int:
        """Resident scoring-state footprint (full matrices excluded)."""
        return (
            self._coarse.nbytes
            + self._fine.nbytes
            + self._numer.nbytes
            + self._tail.nbytes
            + self._coarse_tail.nbytes
            + self._matrix_norms.nbytes
            + self._template_norms.nbytes
            + self.seq.nbytes
            + self.alive.nbytes
        )
