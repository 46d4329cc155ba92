"""1:N identification: one sharded, incrementally-updatable gallery.

Each enrolled user's template lives under that user's own Gaussian
matrix, so identification is one projected cosine per user.
:class:`ShardedGallery` keeps the users in fixed-size
:class:`~repro.core.gallery.shard.GalleryShard` blocks, updated row by
row from its mutation log (append on enroll, overwrite-in-place on
renew/adapt, tombstone on revoke, per-shard compaction), and scores
them through a nested prescreen (rank ``k`` for every user, rank ``r``
for the few the coarse bound cannot exclude) and a best-first exact
rerank whose stopping rule provably reaches the argmin (DESIGN.md
§4h).  Enrollment-side
updates are O(1) in the enrolled population; identification stays
bitwise identical to per-user loop scoring, which the system facade
keeps as its exact fallback (``MandiPass._identify_fallback``).
"""

from repro.core.gallery.shard import GalleryShard
from repro.core.gallery.sharded import GalleryMatch, ShardedGallery

__all__ = [
    "GalleryMatch",
    "GalleryShard",
    "ShardedGallery",
]
