"""Frozen configuration objects for every pipeline stage.

A value is a settable field only if something needs to set it: a
perfbench workload, a paper experiment (the ablation and sweep benches)
or a test of a behaviour the system must keep.  The values the paper
fixes and nothing varies are constants next to the code that reads
them, or here when several modules read one:

* :data:`SAMPLE_RATE_HZ` (350 Hz, the paper's "0.2 (60 / 350) seconds"
  in VII-E), :data:`INTERNAL_RATE_HZ` (the physiological simulation)
  and :data:`HIGHPASS_ORDER` (the 4th-order Butterworth, Section IV),
* the onset thresholds (start std > 250, sustain std >= 100) in
  :mod:`repro.dsp.detection` and the sustained-energy gate in
  :mod:`repro.dsp.pipeline`,
* the conv geometry (3x3 kernels, stride 1x2, Fig. 8) and the
  256-row forward chunk in :mod:`repro.core.extractor`, and the retry
  backoff schedule below,
* the drain waits in :mod:`repro.serve.server` and
  :mod:`repro.stream.session`.

``tests/test_config.py`` pins the field names of every class, so a new
knob is a deliberate change.  Defaults follow the paper: segment length
``n = 60`` samples per axis and a 10-sample onset window (Section IV),
a 20 Hz high-pass cutoff, embedding dimension 512 and decision
threshold 0.48 (the paper's 0.5485, Section VII-A, recalibrated on the
synthetic substrate; see :class:`DecisionConfig`).
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError

#: IMU output data rate.  The paper's prototype samples at about 350 Hz;
#: common earphone IMUs stay below 500 Hz.
SAMPLE_RATE_HZ = 350
#: Rate of the continuous-time physiological simulation before sensor
#: sampling, an integer multiple of :data:`SAMPLE_RATE_HZ`.
INTERNAL_RATE_HZ = 2800
#: Order of the Section IV high-pass Butterworth (even, so it splits into
#: biquads).
HIGHPASS_ORDER = 4
#: Retry backoff schedule: the first delay, its growth per attempt and
#: the ceiling on one sleep (:meth:`ResilienceConfig.backoff_delay`).
BACKOFF_INITIAL_S = 0.005
BACKOFF_MULTIPLIER = 2.0
BACKOFF_MAX_S = 0.25


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@dataclasses.dataclass(frozen=True)
class SamplingConfig:
    """IMU acquisition parameters.

    Attributes:
        duration_s: length of each recorded trial, including the silent
            lead-in before the user voices 'EMM'.
        utterance_s: how long the voiced 'EMM' lasts from its onset.
            ``None`` (default) sustains voicing to the end of the trial
            -- the paper's short-trial behaviour, and bitwise identical
            to the pre-knob synthesis.  A value shorter than the trial
            leaves a silent post-utterance tail; the scenario matrix's
            long captures use it (DESIGN.md §4l).
    """

    duration_s: float = 0.6
    utterance_s: float | None = None

    def __post_init__(self) -> None:
        _require(self.duration_s > 0, "duration_s must be positive")
        _require(
            self.utterance_s is None
            or 0.0 < self.utterance_s <= self.duration_s,
            "utterance_s must lie in (0, duration_s] when given",
        )

    @property
    def oversample(self) -> int:
        """Internal simulation steps per IMU sample."""
        return INTERNAL_RATE_HZ // SAMPLE_RATE_HZ

    @property
    def num_samples(self) -> int:
        """Number of IMU samples in one trial."""
        return int(round(self.duration_s * SAMPLE_RATE_HZ))


@dataclasses.dataclass(frozen=True)
class PreprocessConfig:
    """Section IV signal-preprocessing parameters."""

    segment_length: int = 60
    onset_window: int = 10
    onset_sustain_windows: int = 3
    mad_threshold: float = 3.5
    highpass_cutoff_hz: float = 20.0

    def __post_init__(self) -> None:
        _require(self.segment_length > 1, "segment_length must be > 1")
        _require(self.onset_window > 1, "onset_window must be > 1")
        _require(self.onset_sustain_windows >= 0, "onset_sustain_windows >= 0")
        _require(self.mad_threshold > 0, "mad_threshold must be > 0")
        _require(
            0 < self.highpass_cutoff_hz < SAMPLE_RATE_HZ / 2,
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
        metrics_enabled: turn on process-wide metric collection
            (:mod:`repro.obs`) when the system facade is constructed.
            Off by default: the instrumented call sites then hit the
            shared no-op registry, whose overhead is held within 5% of
            an uninstrumented baseline by
            ``benchmarks/test_obs_overhead.py``.
    """

    compute_dtype: str = "float64"
    metrics_enabled: bool = False

    def __post_init__(self) -> None:
        _require(
            self.compute_dtype in ("float32", "float64"),
            "compute_dtype must be 'float32' or 'float64'",
        )


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
    num_worker_processes: int = 0

    def __post_init__(self) -> None:
        _require(self.max_batch_size > 0, "max_batch_size must be positive")
        _require(self.queue_capacity > 0, "queue_capacity must be positive")
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
            disables retrying; each retry first sleeps
            :meth:`backoff_delay`.
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
    stage_timeout_s: float | None = None
    breaker_failure_threshold: int = 8
    breaker_cooldown_s: float = 0.5
    min_usable_axes: int = 4

    def __post_init__(self) -> None:
        _require(self.max_retries >= 0, "max_retries must be >= 0")
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
        """The sleep before retry number ``attempt`` (0-based).

        5 ms, doubling per attempt, capped at 0.25 s.
        """
        return min(
            BACKOFF_INITIAL_S * BACKOFF_MULTIPLIER**attempt, BACKOFF_MAX_S
        )


@dataclasses.dataclass(frozen=True)
class StreamConfig:
    """Continuous-authentication session policy (:mod:`repro.stream`).

    A :class:`~repro.stream.StreamSession` consumes a live ``(k, 6)``
    IMU feed, confirms 'EMM' onsets with the streaming detector, and
    submits each captured post-onset window for verification.  All
    sample counts are at the IMU rate (:data:`SAMPLE_RATE_HZ`).

    Attributes:
        chunk_size: push granularity of perfbench's earbud feed and
            the sustained-streams bench (35 samples = 100 ms at 350 Hz).
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

    Windows without a usable vibration are submitted like any other and
    come back from the engine as refusals.
    """

    chunk_size: int = 35
    cooldown_samples: int = 105
    rearm_after_samples: int = 4096

    def __post_init__(self) -> None:
        _require(self.chunk_size > 0, "chunk_size must be positive")
        _require(self.cooldown_samples >= 0, "cooldown_samples must be >= 0")
        _require(
            self.rearm_after_samples > 0, "rearm_after_samples must be positive"
        )


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
