"""Frozen configuration objects for every pipeline stage.

Each stage of MandiPass takes its tunables from a small frozen dataclass
so that experiment sweeps (Section VII) can vary one knob at a time while
keeping the rest reproducible.  Defaults follow the paper:

* sampling rate 350 Hz (the paper's "0.2 (60 / 350) seconds" in VII-E),
* segment length ``n = 60`` samples per axis (Section IV),
* onset rule: window of 10 samples, start std > 250, sustain std >= 100,
* high-pass 4th-order Butterworth, 20 Hz cutoff,
* embedding dimension 512, decision threshold 0.48 (the paper's 0.5485,
  Section VII-A, recalibrated on the synthetic substrate; see
  :class:`DecisionConfig`).
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@dataclasses.dataclass(frozen=True)
class SamplingConfig:
    """IMU acquisition parameters.

    Attributes:
        rate_hz: IMU output data rate.  The paper's prototype samples at
            about 350 Hz; common earphone IMUs stay below 500 Hz.
        duration_s: length of each recorded trial, including the silent
            lead-in before the user voices 'EMM'.
        internal_rate_hz: rate of the continuous-time physiological
            simulation before sensor sampling.  Must be an integer
            multiple of ``rate_hz``.
        utterance_s: how long the voiced 'EMM' lasts from its onset.
            ``None`` (default) sustains voicing to the end of the trial
            -- the paper's short-trial behaviour, and bitwise identical
            to the pre-knob synthesis.  A value shorter than the trial
            leaves a silent post-utterance tail, which longer fused
            captures use to expose the cardiac channel (DESIGN.md §4l).
    """

    rate_hz: int = 350
    duration_s: float = 0.6
    internal_rate_hz: int = 2800
    utterance_s: float | None = None

    def __post_init__(self) -> None:
        _require(self.rate_hz > 0, "rate_hz must be positive")
        _require(self.duration_s > 0, "duration_s must be positive")
        _require(
            self.internal_rate_hz % self.rate_hz == 0,
            "internal_rate_hz must be a multiple of rate_hz",
        )
        _require(
            self.utterance_s is None
            or 0.0 < self.utterance_s <= self.duration_s,
            "utterance_s must lie in (0, duration_s] when given",
        )

    @property
    def oversample(self) -> int:
        """Internal simulation steps per IMU sample."""
        return self.internal_rate_hz // self.rate_hz

    @property
    def num_samples(self) -> int:
        """Number of IMU samples in one trial."""
        return int(round(self.duration_s * self.rate_hz))


@dataclasses.dataclass(frozen=True)
class PreprocessConfig:
    """Section IV signal-preprocessing parameters."""

    segment_length: int = 60
    onset_window: int = 10
    onset_std_start: float = 250.0
    onset_std_sustain: float = 100.0
    onset_sustain_windows: int = 3
    mad_threshold: float = 3.5
    min_segment_std: float = 50.0
    highpass_cutoff_hz: float = 20.0
    highpass_order: int = 4
    sample_rate_hz: int = 350

    def __post_init__(self) -> None:
        _require(self.segment_length > 1, "segment_length must be > 1")
        _require(self.onset_window > 1, "onset_window must be > 1")
        _require(self.onset_std_start > 0, "onset_std_start must be > 0")
        _require(self.onset_std_sustain > 0, "onset_std_sustain must be > 0")
        _require(self.onset_sustain_windows >= 0, "onset_sustain_windows >= 0")
        _require(self.mad_threshold > 0, "mad_threshold must be > 0")
        _require(self.min_segment_std >= 0, "min_segment_std must be >= 0")
        _require(self.highpass_order in (2, 4, 6, 8), "order must be even, 2..8")
        _require(
            0 < self.highpass_cutoff_hz < self.sample_rate_hz / 2,
            "cutoff must be below Nyquist",
        )


@dataclasses.dataclass(frozen=True)
class ExtractorConfig:
    """Two-branch CNN architecture parameters (Fig. 8).

    ``frontend`` selects the direction-splitting front end (see
    :mod:`repro.core.frontend`): ``"spectral"`` (default,
    rectified-direction magnitude spectra, width ``n/2 + 1``),
    ``"gradient"`` (the paper's temporal sign-split gradients, width
    ``n/2``) or ``"gradient-sorted"``.
    """

    embedding_dim: int = 512
    channels: tuple[int, int, int] = (8, 16, 32)
    kernel_size: tuple[int, int] = (3, 3)
    stride: tuple[int, int] = (1, 2)
    num_axes: int = 6
    frontend: str = "spectral"
    input_width: int = 31

    def __post_init__(self) -> None:
        _require(self.embedding_dim > 0, "embedding_dim must be positive")
        _require(len(self.channels) == 3, "the paper uses three conv layers")
        _require(all(c > 0 for c in self.channels), "channels must be positive")
        _require(self.input_width >= 4, "input_width too small for 3 convs")
        _require(
            self.frontend in ("spectral", "gradient", "gradient-sorted"),
            "frontend must be 'spectral', 'gradient' or 'gradient-sorted'",
        )

    def expected_input_width(self, segment_length: int) -> int:
        """Front-end output width for a given segment length."""
        if self.frontend == "spectral":
            return segment_length // 2 + 1
        return segment_length // 2


@dataclasses.dataclass(frozen=True)
class TrainingConfig:
    """VSP-side extractor training (Section V-C)."""

    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self) -> None:
        _require(self.epochs > 0, "epochs must be positive")
        _require(self.batch_size > 0, "batch_size must be positive")
        _require(self.learning_rate > 0, "learning_rate must be positive")
        _require(self.weight_decay >= 0, "weight_decay must be >= 0")


@dataclasses.dataclass(frozen=True)
class InferenceConfig:
    """Deployment-side compute policy for the verify/identify hot path.

    Attributes:
        compute_dtype: dtype the extractor forward runs in at inference.
            Training and gradient checking always use float64; float32
            is the opt-in fast path (roughly half the memory traffic and
            twice the BLAS throughput), with embedding drift bounded by
            the parity tests and decisions computed in float64 either
            way.
        batch_size: forward-pass chunking of the inference engine.
        metrics_enabled: turn on process-wide metric collection
            (:mod:`repro.obs`) when the system facade is constructed.
            Off by default: the instrumented call sites then hit the
            shared no-op registry, whose overhead is held within 5% of
            an uninstrumented baseline by
            ``benchmarks/test_obs_overhead.py``.
    """

    compute_dtype: str = "float64"
    batch_size: int = 256
    metrics_enabled: bool = False

    def __post_init__(self) -> None:
        _require(
            self.compute_dtype in ("float32", "float64"),
            "compute_dtype must be 'float32' or 'float64'",
        )
        _require(self.batch_size > 0, "batch_size must be positive")


@dataclasses.dataclass(frozen=True)
class GalleryConfig:
    """Sharded 1:N gallery policy (:mod:`repro.core.gallery`).

    The identification gallery is stored as fixed-size template shards
    that are updated row-by-row (append on enroll, overwrite-in-place
    on renew/adapt, tombstone on revoke) and scored through a nested
    prescreen + best-first exact-rerank cascade.  The cascade is
    *sound*: both prescreen levels compute a lower bound on every
    user's cosine distance, so the best-first rerank provably reaches
    the argmin and identify decisions are bitwise identical to per-user
    loop scoring — only the cost changes (DESIGN.md §4h).

    Attributes:
        shard_size: users per shard.  Shards are scored independently
            (enabling fan-out) and compacted independently, so this
            bounds both the largest single gemm and the cost of one
            compaction.
        prescreen_rank: dimension of the subspace each user's Gaussian
            matrix is projected onto for the prescreen pass (capped at
            ``out_dim``): the shard stores ``G_u @ Q_u`` for an
            orthonormal basis ``Q_u`` of ``G_u``'s dominant
            ``rank``-dim right subspace.  Every probe screens the first
            ``shard.COARSE_RANK`` (8) of those columns; only the users
            the coarse bound cannot exclude read the rest.  The bound
            loosens with the residual energy
            ``||G_u - G_u Q_u Q_u^T||_F^2`` left outside the subspace,
            which sets how many users the rerank scores exactly.  At
            32 against the 64-dim projected templates the residual is
            ~12 % of ``||G_u||_F^2`` (~50 % for the first 32 columns).
        compact_tombstone_ratio: tombstoned fraction of a shard's
            occupied slots above which the next sync compacts it
            (build-then-swap, O(shard_size) — never O(U)).
    """

    shard_size: int = 1024
    prescreen_rank: int = 32
    compact_tombstone_ratio: float = 0.25

    def __post_init__(self) -> None:
        _require(self.shard_size > 0, "shard_size must be positive")
        _require(self.prescreen_rank > 0, "prescreen_rank must be positive")
        _require(
            0.0 < self.compact_tombstone_ratio <= 1.0,
            "compact_tombstone_ratio must lie in (0, 1]",
        )


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """Concurrent-serving policy for :class:`repro.serve.AuthServer`.

    Dispatch is work-conserving: an idle dispatcher takes the oldest
    queued key group at once, up to ``max_batch_size`` requests, so an
    idle-arrival request pays no coalescing wait — only its own service
    time.  Batches form from the backlog that builds while a worker is
    busy, so a loaded queue still ships full batches.

    Attributes:
        max_batch_size: upper bound on one micro-batch handed to the
            batch engine.  64 matches the hot-path benchmark's sweet
            spot (BENCH_hotpath.json).
        queue_capacity: admission bound on queued requests; submissions
            beyond it resolve as explicitly *rejected* rather than
            growing an unbounded heap.
        drain_timeout_s: how long ``stop(drain=True)`` waits for the
            workers to finish the accepted backlog.
        num_worker_processes: size of the multi-process worker pool
            (DESIGN.md §4i).  0 (default) serves from one in-process
            dispatcher thread; N > 0 spawns N worker processes, each
            running the full pipeline against shared-memory epochs,
            with one dispatcher thread per process.  Escapes the GIL:
            a second thread would only overlap inside BLAS, process
            workers overlap everywhere.
    """

    max_batch_size: int = 64
    queue_capacity: int = 1024
    drain_timeout_s: float = 30.0
    num_worker_processes: int = 0

    def __post_init__(self) -> None:
        _require(self.max_batch_size > 0, "max_batch_size must be positive")
        _require(self.queue_capacity > 0, "queue_capacity must be positive")
        _require(self.drain_timeout_s > 0, "drain_timeout_s must be positive")
        _require(
            self.num_worker_processes >= 0,
            "num_worker_processes must be non-negative",
        )


@dataclasses.dataclass(frozen=True)
class ResilienceConfig:
    """Degraded-operation policy for the inference and serving paths.

    Earphone deployments see sensor dropouts, saturated samples and
    flaky compute as a matter of course (DESIGN.md §4g); this section
    bounds how the system degrades instead of failing.  Defaults are
    chosen so that a fault-free run is bit-identical to a system
    without any resilience layer: retries only trigger on
    :class:`~repro.errors.TransientError`, the breaker only trips on
    repeated failures, and per-stage timeouts are off.

    Attributes:
        max_retries: bounded retry budget for transient stage failures
            (per stage in the engine, per batch in the server).  0
            disables retrying.
        backoff_initial_s: first retry delay; doubles (by
            ``backoff_multiplier``) per attempt up to ``backoff_max_s``.
        backoff_multiplier: exponential backoff growth factor.
        backoff_max_s: ceiling on one backoff sleep.
        stage_timeout_s: wall-clock bound on one batch call in a
            serving worker.  ``None`` (default) runs the call inline at
            zero cost; a value runs it on a helper thread and refuses
            the batch when the bound passes (the stalled call is left
            to finish detached).
        breaker_failure_threshold: consecutive batch failures that trip
            the serving circuit breaker open.  0 disables the breaker.
        breaker_cooldown_s: how long an open breaker sheds load before
            letting one probe batch through (half-open).
        min_usable_axes: minimum finite, live IMU axes a recording
            needs after preprocessing.  Recordings with at least this
            many but fewer than all six usable axes proceed with
            ``degraded=True``; fewer refuse with
            :class:`~repro.errors.InsufficientAxesError`.
    """

    max_retries: int = 2
    backoff_initial_s: float = 0.005
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 0.25
    stage_timeout_s: float | None = None
    breaker_failure_threshold: int = 8
    breaker_cooldown_s: float = 0.5
    min_usable_axes: int = 4

    def __post_init__(self) -> None:
        _require(self.max_retries >= 0, "max_retries must be >= 0")
        _require(self.backoff_initial_s >= 0, "backoff_initial_s must be >= 0")
        _require(self.backoff_multiplier >= 1.0, "backoff_multiplier must be >= 1")
        _require(self.backoff_max_s >= self.backoff_initial_s,
                 "backoff_max_s must be >= backoff_initial_s")
        _require(
            self.stage_timeout_s is None or self.stage_timeout_s > 0,
            "stage_timeout_s must be positive when given",
        )
        _require(
            self.breaker_failure_threshold >= 0,
            "breaker_failure_threshold must be >= 0",
        )
        _require(self.breaker_cooldown_s > 0, "breaker_cooldown_s must be positive")
        _require(
            1 <= self.min_usable_axes <= 6,
            "min_usable_axes must lie in 1..6",
        )

    def backoff_delay(self, attempt: int) -> float:
        """The sleep before retry number ``attempt`` (0-based)."""
        return min(
            self.backoff_initial_s * self.backoff_multiplier**attempt,
            self.backoff_max_s,
        )


@dataclasses.dataclass(frozen=True)
class StreamConfig:
    """Continuous-authentication session policy (:mod:`repro.stream`).

    A :class:`~repro.stream.StreamSession` consumes a live ``(k, 6)``
    IMU feed, confirms 'EMM' onsets with the streaming detector, and
    submits each captured post-onset window for verification.  All
    sample counts are at the IMU rate (350 Hz by default).

    Attributes:
        chunk_size: default push granularity for the CLI demo and the
            sustained-streams bench (35 samples = 100 ms at 350 Hz).
            Sessions accept any chunking — decisions are bitwise
            chunk-size-invariant — so this only shapes load patterns.
        cooldown_samples: refractory period after each decision before
            the session re-arms; absorbs the decaying tail of the
            vibration so one 'EMM' cannot double-trigger.
        rearm_after_samples: cap on an onset-less armed window.  The
            session buffers raw samples from arming until capture so
            the submitted window reproduces the batch pipeline exactly;
            hitting this cap discards the buffer and re-arms with a
            fresh detector, bounding memory at a few seconds of feed.
        verify_timeout_ms: optional queueing deadline forwarded to
            :meth:`repro.serve.AuthServer.verify` for server-backed
            sessions; ``None`` submits without a deadline.
        drain_timeout_s: default wait for in-flight verifications in
            :meth:`~repro.stream.StreamSession.drain`.

    Windows without a usable vibration are submitted like any other and
    come back from the engine as refusals.
    """

    chunk_size: int = 35
    cooldown_samples: int = 105
    rearm_after_samples: int = 4096
    verify_timeout_ms: float | None = None
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        _require(self.chunk_size > 0, "chunk_size must be positive")
        _require(self.cooldown_samples >= 0, "cooldown_samples must be >= 0")
        _require(
            self.rearm_after_samples > 0, "rearm_after_samples must be positive"
        )
        _require(
            self.verify_timeout_ms is None or self.verify_timeout_ms > 0,
            "verify_timeout_ms must be positive when given",
        )
        _require(self.drain_timeout_s > 0, "drain_timeout_s must be positive")


@dataclasses.dataclass(frozen=True)
class SecurityConfig:
    """Cancelable-template parameters (Section VI)."""

    template_dim: int = 512
    projected_dim: int = 512
    matrix_seed: int | None = None

    def __post_init__(self) -> None:
        _require(self.template_dim > 0, "template_dim must be positive")
        _require(self.projected_dim > 0, "projected_dim must be positive")


@dataclasses.dataclass(frozen=True)
class DecisionConfig:
    """Similarity-decision parameters (Section VII-A).

    The paper's operating threshold is 0.5485 on its own embedding
    space; ours is calibrated the same way (the FAR/FRR crossing of the
    Fig. 10(b) bench for the shipped production extractor) and lands at
    0.48 on the synthetic substrate.
    """

    threshold: float = 0.48

    def __post_init__(self) -> None:
        _require(0.0 < self.threshold < 2.0, "cosine distance lies in (0, 2)")


@dataclasses.dataclass(frozen=True)
class MandiPassConfig:
    """Top-level configuration bundling every stage."""

    sampling: SamplingConfig = dataclasses.field(default_factory=SamplingConfig)
    preprocess: PreprocessConfig = dataclasses.field(default_factory=PreprocessConfig)
    extractor: ExtractorConfig = dataclasses.field(default_factory=ExtractorConfig)
    training: TrainingConfig = dataclasses.field(default_factory=TrainingConfig)
    security: SecurityConfig = dataclasses.field(default_factory=SecurityConfig)
    decision: DecisionConfig = dataclasses.field(default_factory=DecisionConfig)
    inference: InferenceConfig = dataclasses.field(default_factory=InferenceConfig)
    serving: ServingConfig = dataclasses.field(default_factory=ServingConfig)
    resilience: ResilienceConfig = dataclasses.field(default_factory=ResilienceConfig)
    gallery: GalleryConfig = dataclasses.field(default_factory=GalleryConfig)
    stream: StreamConfig = dataclasses.field(default_factory=StreamConfig)

    def __post_init__(self) -> None:
        _require(
            self.stream.rearm_after_samples
            >= self.preprocess.segment_length + 3 * self.preprocess.onset_window,
            "stream.rearm_after_samples must fit one confirmable event "
            "(segment_length + 3 * onset_window)",
        )
        _require(
            self.preprocess.sample_rate_hz == self.sampling.rate_hz,
            "preprocess.sample_rate_hz must match sampling.rate_hz",
        )
        _require(
            self.extractor.input_width
            == self.extractor.expected_input_width(self.preprocess.segment_length),
            "extractor.input_width must match the front end's output width",
        )
        _require(
            self.security.template_dim == self.extractor.embedding_dim,
            "security.template_dim must match extractor.embedding_dim",
        )

    def replace(self, **kwargs: object) -> "MandiPassConfig":
        """Return a copy with the given top-level sections replaced."""
        return dataclasses.replace(self, **kwargs)


DEFAULT_CONFIG = MandiPassConfig()
