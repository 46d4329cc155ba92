"""The ``MandiPass`` facade: enroll / verify / revoke / renew.

Composes the trained extractor, the preprocessing pipeline, the
cancelable transform and the secure enclave into the deployment-shaped
API of Fig. 3.  One instance models one earphone.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

import numpy as np

from repro.config import MandiPassConfig, DEFAULT_CONFIG
from repro.core.engine import InferenceEngine
from repro.core.enrollment import enroll_user
from repro.core.extractor import TwoBranchExtractor
from repro.core.frontend import make_frontend
from repro.core.gallery import ShardedGallery
from repro.core.similarity import (
    accept,
    cosine_distance,
    projected_cosine_distance,
)
from repro.core.verification import (
    count_decisions,
    identify_batch,
    verify_batch,
    verify_presented_vector,
)
from repro.dsp.pipeline import Preprocessor
from repro.errors import (
    ConfigError,
    EnrollmentError,
    SecurityError,
    SignalError,
    TransientError,
    VerificationError,
)
from repro.obs import runtime as obs
from repro.security.cancelable import CancelableTransform
from repro.serve.locks import RWLock
from repro.security.enclave import SecureEnclave
from repro.types import RawRecording, VerificationResult


class MandiPass:
    """One earphone running MandiPass.

    Args:
        model: a trained :class:`TwoBranchExtractor` (shipped by the VSP).
        config: full system configuration.
        enclave: template store; a fresh one per device by default.
    """

    def __init__(
        self,
        model: TwoBranchExtractor,
        config: MandiPassConfig = DEFAULT_CONFIG,
        enclave: SecureEnclave | None = None,
    ) -> None:
        if model.config.embedding_dim != config.security.template_dim:
            raise EnrollmentError(
                "extractor embedding_dim does not match security.template_dim"
            )
        if config.inference.metrics_enabled:
            # Process-wide by design: the registry outlives the device
            # facade so a service can scrape one snapshot across every
            # earphone it hosts.  Idempotent if already enabled.
            obs.enable()
        self.model = model
        self.config = config
        self.preprocessor = Preprocessor(config.preprocess)
        self.frontend = make_frontend(config.extractor.frontend)
        self.engine = InferenceEngine(
            model,
            self.preprocessor,
            self.frontend,
            compute_dtype=config.inference.compute_dtype,
            resilience=config.resilience,
        )
        # Templates are built in float64 whatever the serving dtype,
        # under the deployment's resilience policy; built once like the
        # serving engine.
        self._enroll_engine = InferenceEngine(
            model, self.preprocessor, self.frontend, resilience=config.resilience
        )
        obs.set_gauge("model_bytes", float(model.storage_nbytes()), dtype="float32")
        self.enclave = enclave or SecureEnclave()
        self._transforms: dict[str, CancelableTransform] = {}
        # Derived 1:N scoring state.  ``None`` means "rebuild from the
        # enclave on next use" (the cold-start and explicit-reset
        # sentinel); once built, template mutations reach it as O(1)
        # mutation-log appends through :meth:`_gallery_mutation` and are
        # applied incrementally at the next sync — never an O(U)
        # rebuild.
        self._gallery: ShardedGallery | None = None
        # Monotone template-state version: bumped by every enrollment
        # mutation (enroll / revoke / renew / adapt_template).  The
        # multi-process pool compares it against its last published
        # epoch to decide when a new shared-memory publish is due.
        self._template_version = 0
        # Concurrency contract (DESIGN.md §4f): scoring entry points
        # (verify_many / identify_many / verify_presented) take the
        # read side and may run concurrently from serving workers;
        # template mutations (enroll / revoke / renew / adapt_template)
        # take the write side, so gallery invalidation and template
        # swaps can never race an in-flight batch.  The read side is
        # never nested (the lock is not read-reentrant).
        self._rwlock = RWLock()
        # Serializes the lazy gallery build: readers build off to the
        # side and swap the finished object in, so a concurrent
        # identify never observes a partially constructed stack.
        self._gallery_build_lock = threading.Lock()

    # ------------------------------------------------------------------

    def enroll(
        self,
        user_id: str,
        recordings: list[RawRecording],
        transform_seed: int | None = None,
    ) -> int:
        """Register a user from enrollment recordings.

        Returns:
            The number of recordings that survived preprocessing.
        """
        seed = (
            transform_seed
            if transform_seed is not None
            else self.config.security.matrix_seed
        )
        transform = CancelableTransform(
            input_dim=self.config.security.template_dim,
            output_dim=self.config.security.projected_dim,
            seed=seed,
        )
        with self._rwlock.write_locked():
            result = enroll_user(
                user_id, self._enroll_engine, recordings, transform
            )
            self._transforms[user_id] = transform
            self.enclave.seal(user_id, result.cancelable_template, transform.seed)
            self._gallery_mutation(
                "upsert", user_id, transform, result.cancelable_template
            )
            obs.set_gauge("enrolled_users", len(self._transforms))
            return result.used_recordings

    def is_enrolled(self, user_id: str) -> bool:
        return self.enclave.contains(user_id)

    # ------------------------------------------------------------------

    def verify(self, user_id: str, recording: RawRecording) -> VerificationResult:
        """Decide one verification request against a sealed template.

        Thin wrapper over :meth:`verify_many` with a batch of one.
        """
        return self.verify_many(user_id, [recording])[0]

    def verify_many(
        self,
        user_id: str,
        recordings: Sequence[RawRecording],
        onsets: Sequence[int | None] | None = None,
    ) -> list[VerificationResult]:
        """Decide a batch of requests against one sealed template.

        The whole batch runs through the vectorised
        :class:`repro.core.engine.InferenceEngine` — one preprocessing
        pass, one front-end transform, one extractor forward — and
        returns one :class:`VerificationResult` per recording in input
        order.  Recordings without a usable vibration are rejected with
        the maximum distance, exactly as :meth:`verify` would reject
        them one at a time.

        ``onsets`` optionally gives each recording's known onset sample
        (a streaming session passes the one its detector confirmed), so
        that recording is cut there instead of being detected again;
        ``None`` entries are detected.  A hint that is not an integer,
        is negative or leaves too few samples refuses that request.
        """
        with self._rwlock.read_locked():
            transform = self._transforms.get(user_id)
            if transform is None:
                raise VerificationError(f"user {user_id!r} is not enrolled")
            record = self.enclave.unseal(user_id)
            with obs.span("verify"):
                obs.observe_batch_size("verify_many", len(recordings))
                return verify_batch(
                    user_id=user_id,
                    engine=self.engine,
                    recordings=recordings,
                    template=np.asarray(record.template),
                    transform=transform,
                    threshold=self.config.decision.threshold,
                    onsets=onsets,
                )

    def verify_presented(
        self, user_id: str, presented: np.ndarray
    ) -> VerificationResult:
        """Decide a raw presented vector (the replay-attack surface)."""
        with self._rwlock.read_locked():
            record = self.enclave.unseal(user_id)
        return verify_presented_vector(
            user_id=user_id,
            presented=presented,
            template=np.asarray(record.template),
            threshold=self.config.decision.threshold,
        )

    # ------------------------------------------------------------------

    def _gallery_mutation(
        self,
        kind: str,
        user_id: str,
        transform: CancelableTransform | None = None,
        template: np.ndarray | None = None,
    ) -> None:
        """The single gallery-invalidation seam for template mutations.

        Every path that changes the enrolled set or a sealed template
        (enroll, revoke, renew via its nested enroll, adapt_template)
        funnels through here instead of dropping the derived gallery:
        the change becomes one O(1) mutation-log append — an upsert
        carrying the already-in-hand matrix and template (no extra
        enclave unseal, so the audit log sees only the mutation's own
        accesses) or a tombstoning remove — applied incrementally at
        the next sync.  Callers hold the facade write lock.

        A ``None`` gallery means nothing is derived yet; the next
        :meth:`_current_gallery` rebuild reads the post-mutation state
        from the enclave, so there is nothing to log.
        """
        self._template_version += 1
        gallery = self._gallery
        if gallery is None:
            return
        if kind == "remove":
            gallery.remove(user_id)
        else:
            gallery.upsert(user_id, transform.matrix, np.asarray(template))

    def _current_gallery(self) -> ShardedGallery:
        """The 1:N scoring gallery, constructed lazily on first use.

        Cold start (or an explicit :meth:`reset_gallery`) enqueues one
        upsert per enrolled user into a fresh :class:`ShardedGallery`;
        the enqueue itself does no array work — shards materialise at
        the next sync, where injected build faults can fire and are
        absorbed by the fallback path.  Once built, the instance is
        permanent: later mutations arrive through
        :meth:`_gallery_mutation` as incremental log entries.

        Callers hold the read lock, so mutations are excluded while a
        build runs; the build happens off to the side under a dedicated
        mutex and is swapped in with one attribute assignment, so
        racing readers never observe a half-enqueued gallery or build
        the same one twice.
        """
        gallery = self._gallery
        if gallery is not None:
            return gallery
        with self._gallery_build_lock:
            gallery = self._gallery
            if gallery is None:
                gallery = ShardedGallery(self.config.gallery)
                for uid, transform in self._transforms.items():
                    gallery.upsert(
                        uid,
                        transform.matrix,
                        np.asarray(self.enclave.unseal(uid).template),
                    )
                self._gallery = gallery
        return gallery

    def warm_gallery(self) -> None:
        """Build and sync the 1:N gallery ahead of the first identify.

        Serving calls this at startup so the first identification pays
        scoring cost only.  Raises :class:`~repro.errors.TransientError`
        subclasses when an injected build fault fires; the gallery
        retries at the next sync.
        """
        with self._rwlock.read_locked():
            if not self._transforms:
                return
            self._current_gallery().sync()

    @property
    def template_version(self) -> int:
        """Monotone counter of enrollment mutations (epoch staleness key)."""
        return self._template_version

    def export_epoch(self) -> tuple[int, dict, dict]:
        """Snapshot ``(version, arrays, meta)`` of the 1:N scoring state.

        The serialization seam of the multi-process serving pool
        (DESIGN.md §4i): the parent publishes ``arrays`` into shared
        memory and workers rebuild a scoring-equivalent gallery with
        :meth:`ShardedGallery.from_epoch
        <repro.core.gallery.sharded.ShardedGallery.from_epoch>`.  Runs
        under the read lock, so the version and the exported state are
        mutually consistent — a concurrent enroll either lands entirely
        before this snapshot (and is included, version bumped) or
        entirely after (and triggers the next publish).

        Raises :class:`~repro.errors.TransientError` subclasses when an
        injected gallery-build fault fires; the caller retries.
        """
        with self._rwlock.read_locked():
            version = self._template_version
            if not self._transforms:
                return version, {}, {
                    "shards": [],
                    "in_dim": None,
                    "out_dim": None,
                    "seq": 0,
                    "alive": 0,
                    "tombstones": 0,
                }
            gallery = self._current_gallery()
            gallery.sync()
            arrays, meta = gallery.export_epoch()
            return version, arrays, meta

    def reset_gallery(self) -> None:
        """Drop all derived 1:N state; the next identify rebuilds it."""
        with self._rwlock.write_locked():
            self._gallery = None

    def identify(self, recording: RawRecording) -> VerificationResult | None:
        """1:N identification: find the closest enrolled user.

        Extends the paper's 1:1 verification to the identification mode
        its classification experiments imply: extract one MandiblePrint
        and find the sealed template (each under its own user's
        Gaussian matrix) closest to it, through the sharded gallery's
        prescreen + exact-rerank cascade (:meth:`identify_many`).
        Returns the best match as a :class:`VerificationResult`
        (``accepted`` reflects the decision threshold), or ``None`` when
        no user is enrolled or the recording has no usable vibration.
        """
        return self.identify_many([recording])[0]

    def identify_many(
        self, recordings: Sequence[RawRecording]
    ) -> list[VerificationResult | None]:
        """1:N identification for a batch of recordings.

        The batch runs once through the vectorised inference engine and
        each surviving probe goes through the sharded gallery's
        prescreen + exact-rerank cascade (DESIGN.md §4h): rank-k and
        rank-r projections lower-bound the users' distances, and only
        the candidates whose bound could win are scored exactly — with the
        per-user loop's own operations, so the decision is bitwise what
        the loop would return, at sub-linear cost.  Returns one entry
        per recording in input order; ``None`` marks a recording with
        no usable vibration (or an empty enrolled set), exactly as
        :meth:`identify` reports it.
        """
        with self._rwlock.read_locked(), obs.span("identify"):
            obs.observe_batch_size("identify_many", len(recordings))
            gallery = None
            if self._transforms and recordings:
                try:
                    gallery = self._current_gallery()
                    gallery.sync()
                except TransientError:
                    # Graceful degradation (DESIGN.md §4g): a transient
                    # shard-build failure falls back to per-user scoring
                    # — slower, no derived state — instead of failing
                    # the whole identification batch.  Unapplied
                    # mutations stay logged; the next sync retries them.
                    return self._identify_fallback(recordings)
            return identify_batch(
                self.engine, gallery, recordings, self.config.decision.threshold
            )

    def _identify_fallback(
        self, recordings: Sequence[RawRecording]
    ) -> list[VerificationResult | None]:
        """Per-user 1:N scoring used when the gallery build fails.

        Scores every probe against every enrolled user in enrollment
        order with the gallery's own exact scorer
        (:func:`~repro.core.similarity.projected_cosine_distance`) and
        keeps the first strict minimum — linear in the enrolled set, but
        it needs no derived state, so identification keeps answering
        while the gallery is unbuildable.  Each ``(user, distance)`` is
        bitwise what the gallery cascade returns, ties included (the
        earlier-enrolled user wins on both paths), so a decision never
        depends on whether the gallery build faulted.  Every returned
        result is flagged ``degraded``.

        Called under the read lock (from :meth:`identify_many`), so the
        transform/enclave snapshot it iterates is stable.
        """
        results: list[VerificationResult | None] = [None] * len(recordings)
        outcome = self.engine.embed(recordings)
        if outcome.num_ok == 0:
            return count_decisions(results)
        obs.inc("degraded_total", float(outcome.num_ok), path="identify_fallback")
        probes = np.atleast_2d(np.asarray(outcome.values, dtype=np.float64))
        best_distance = [math.inf] * outcome.num_ok
        best_user = [""] * outcome.num_ok
        for uid, transform in self._transforms.items():
            template = np.asarray(
                self.enclave.unseal(uid).template, dtype=np.float64
            ).reshape(-1)
            scoring = (transform.matrix, template, float(np.linalg.norm(template)))
            for index in range(outcome.num_ok):
                distance = projected_cosine_distance(probes[index], *scoring)
                if distance < best_distance[index]:
                    best_distance[index] = distance
                    best_user[index] = uid
        threshold = self.config.decision.threshold
        for row, input_index in enumerate(np.asarray(outcome.indices).tolist()):
            distance = best_distance[row]
            results[input_index] = VerificationResult(
                accepted=accept(distance, threshold),
                distance=distance,
                threshold=threshold,
                user_id=best_user[row],
                degraded=True,
            )
        return count_decisions(results)

    def adapt_template(
        self, user_id: str, recording: RawRecording, rate: float = 0.1
    ) -> bool:
        """Template adaptation: blend an accepted probe into the template.

        Biometric templates age (the paper's Section VII-F horizon is
        two weeks; months-scale drift needs refresh).  After a probe is
        *accepted*, its cancelable vector is folded into the sealed
        template with exponential weight ``rate``.  Rejected probes
        never adapt (otherwise an impostor could walk the template).

        The probe runs the preprocess→forward pipeline exactly once,
        gated as a batch item of :meth:`verify_many` is: the same
        embedding yields both the accept/reject decision and the
        blended template.

        Returns:
            True if the template was updated, False if the probe was
            rejected (or unusable), or the blend was not finite and the
            enclave refused it, and nothing changed.
        """
        if not 0.0 < rate < 1.0:
            raise ConfigError("rate must lie in (0, 1)")
        with self._rwlock.write_locked():
            transform = self._transforms.get(user_id)
            if transform is None:
                raise VerificationError(f"user {user_id!r} is not enrolled")
            try:
                embedding = self.engine.embed_one(recording)
            except SignalError:
                return False
            probe = transform.apply(embedding)
            record = self.enclave.unseal(user_id)
            template = np.asarray(record.template)
            if not accept(
                cosine_distance(probe, template), self.config.decision.threshold
            ):
                return False
            updated = (1.0 - rate) * template + rate * probe
            try:
                self.enclave.seal(user_id, updated, transform.seed)
            except SecurityError:
                return False
            self._gallery_mutation("upsert", user_id, transform, updated)
            return True

    def stored_template(self, user_id: str) -> np.ndarray:
        """The sealed cancelable template (what a thief could exfiltrate)."""
        with self._rwlock.read_locked():
            return np.asarray(self.enclave.unseal(user_id).template)

    def revoke(self, user_id: str) -> None:
        """Invalidate a user's template after suspected theft."""
        with self._rwlock.write_locked():
            self.enclave.revoke(user_id)
            self._transforms.pop(user_id, None)
            self._gallery_mutation("remove", user_id)
            obs.set_gauge("enrolled_users", len(self._transforms))

    def renew(
        self, user_id: str, recordings: list[RawRecording]
    ) -> int:
        """Revoke and re-enroll with a freshly drawn Gaussian matrix."""
        # The write lock is reentrant: the nested enroll() re-acquires
        # it, so revocation and re-enrollment form one atomic mutation
        # from a concurrent reader's point of view.
        with self._rwlock.write_locked():
            old = self._transforms.get(user_id)
            if self.enclave.contains(user_id):
                self.enclave.revoke(user_id)
            new_seed = (old.renew().seed if old is not None else None)
            return self.enroll(user_id, recordings, transform_seed=new_seed)

    # ------------------------------------------------------------------

    def storage_nbytes(self, user_id: str | None = None) -> int:
        """Total on-device storage: model plus (optionally) one template."""
        total = self.model.storage_nbytes()
        if user_id is not None:
            total += self.enclave.template_nbytes(user_id)
        return total
