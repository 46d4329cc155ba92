"""One fixed-size gallery shard: row-updatable prescreen + rerank state.

A shard owns up to ``capacity`` user rows.  Per occupied slot it keeps
exactly what the two cascade stages need:

* **prescreen** — the first ``rank`` columns of the user's Gaussian
  matrix (float32, :data:`PRESCREEN_DTYPE`), the numerator vector
  ``w = G @ t_hat`` (float64) and the tail energy
  ``R = sum_{j >= rank} ||G[:, j]||^2``.  Together these yield a sound
  lower bound on the user's cosine distance from one thin gemm — see
  :mod:`repro.core.gallery.sharded` for the bound.
* **rerank** — the full matrix *source* (array reference or lazy
  provider, never a copy) and the sealed template, so the exact stage
  can replay the per-user loop's own operations bitwise.

All mutations are row-local and O(in * out) — independent of both the
shard population and the gallery population: ``write_slot`` appends or
overwrites one row in place, ``kill_slot`` tombstones one row (the
slot's scoring columns are zeroed so stale data never feeds a gemm),
and ``compacted`` rebuilds the shard without its tombstones
(build-then-swap: the replacement is constructed off to the side, so a
fault mid-compaction leaves the original shard intact).

Row order within a shard is free: every slot carries the global
enrollment sequence number, and the cascade breaks distance ties on
``(distance, seq)`` — matching the first-wins semantics of the
per-user dict loop regardless of physical placement.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.core.gallery.log import MatrixSource, resolve_matrix

#: dtype of the prescreen block and pass: float32 halves memory traffic,
#: and its rounding is absorbed by the bound's slack terms, so decisions
#: never move.
PRESCREEN_DTYPE = np.float32


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
        # (in, capacity * rank): slot u owns columns [u*rank, (u+1)*rank).
        self._prescreen = np.zeros(
            (in_dim, capacity * self.rank), dtype=PRESCREEN_DTYPE
        )
        # (in, capacity): slot u's numerator vector w_u = G_u @ t_hat_u.
        self._numer = np.zeros((in_dim, capacity))
        self._tail = np.zeros(capacity)
        self.user_ids: list[str | None] = [None] * capacity
        self.seq = np.zeros(capacity, dtype=np.int64)
        self.alive = np.zeros(capacity, dtype=bool)
        self._matrices: list[MatrixSource | None] = [None] * capacity
        self._templates: list[np.ndarray | None] = [None] * capacity
        self.count = 0  # occupied slots, tombstones included

    @classmethod
    def adopt(
        cls,
        *,
        user_ids: list[str | None],
        prescreen: np.ndarray,
        numer: np.ndarray,
        tail: np.ndarray,
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
        if prescreen.shape != (in_dim, count * shard.rank):
            raise ShapeError(
                f"adopted prescreen must be ({in_dim}, {count * shard.rank}),"
                f" got {prescreen.shape}"
            )
        shard._prescreen = prescreen
        shard._numer = numer
        shard._tail = tail
        shard.user_ids = list(user_ids)
        shard.seq = seq
        shard.alive = alive
        shard._matrices = [
            matrices[slot] if alive[slot] else None for slot in range(count)
        ]
        shard._templates = [
            templates[slot] if alive[slot] else None for slot in range(count)
        ]
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
        matrix: MatrixSource,
        template: np.ndarray,
        seq: int,
    ) -> None:
        """Fill (or overwrite) one row; O(in * out), independent of U."""
        resolved = resolve_matrix(matrix)
        if resolved.shape != (self.in_dim, self.out_dim):
            raise ShapeError(
                f"matrix must be ({self.in_dim}, {self.out_dim}), "
                f"got {resolved.shape}"
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
        rank = self.rank
        self._numer[:, slot] = resolved @ unit
        self._prescreen[:, slot * rank : (slot + 1) * rank] = resolved[:, :rank]
        tail = resolved[:, rank:]
        self._tail[slot] = float(np.einsum("ij,ij->", tail, tail))
        self.user_ids[slot] = user_id
        self.seq[slot] = seq
        self.alive[slot] = True
        self._matrices[slot] = matrix
        self._templates[slot] = flat
        if slot >= self.count:
            self.count = slot + 1

    def append(
        self, user_id: str, matrix: MatrixSource, template: np.ndarray, seq: int
    ) -> int:
        """Fill the next free slot; returns its index."""
        if not self.has_space:
            raise ShapeError("shard is full")
        slot = self.count
        self.write_slot(slot, user_id, matrix, template, seq)
        return slot

    def kill_slot(self, slot: int) -> None:
        """Tombstone one row: scoring columns zeroed, references dropped."""
        rank = self.rank
        self.alive[slot] = False
        self._numer[:, slot] = 0.0
        self._prescreen[:, slot * rank : (slot + 1) * rank] = 0.0
        self._tail[slot] = 0.0
        self.user_ids[slot] = None
        self._matrices[slot] = None
        self._templates[slot] = None

    def compacted(self) -> "GalleryShard":
        """A tombstone-free replacement shard (original left untouched)."""
        fresh = GalleryShard(
            capacity=self.capacity,
            in_dim=self.in_dim,
            out_dim=self.out_dim,
            rank=self.rank,
        )
        for slot in range(self.count):
            if not self.alive[slot]:
                continue
            fresh.append(
                self.user_ids[slot],
                self._matrices[slot],
                self._templates[slot],
                int(self.seq[slot]),
            )
        return fresh

    # -- scoring views --------------------------------------------------

    def numer_block(self) -> np.ndarray:
        """``(in, count)`` numerator matrix over the occupied slots."""
        return self._numer[:, : self.count]

    def prescreen_block(self) -> np.ndarray:
        """``(in, count * rank)`` prescreen columns over occupied slots."""
        return self._prescreen[:, : self.count * self.rank]

    def tail_block(self) -> np.ndarray:
        return self._tail[: self.count]

    def alive_block(self) -> np.ndarray:
        return self.alive[: self.count]

    def seq_block(self) -> np.ndarray:
        return self.seq[: self.count]

    def matrix_for(self, slot: int) -> np.ndarray:
        """The full-precision matrix for one rerank candidate."""
        source = self._matrices[slot]
        if source is None:
            raise ShapeError(f"slot {slot} is empty or tombstoned")
        return resolve_matrix(source)

    def template_for(self, slot: int) -> np.ndarray:
        template = self._templates[slot]
        if template is None:
            raise ShapeError(f"slot {slot} is empty or tombstoned")
        return template

    def nbytes(self) -> int:
        """Resident scoring-state footprint (matrix sources excluded)."""
        return (
            self._prescreen.nbytes
            + self._numer.nbytes
            + self._tail.nbytes
            + self.seq.nbytes
            + self.alive.nbytes
        )
