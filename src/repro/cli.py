"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``        -- package, configuration and substrate summary.
* ``train``       -- train the production extractor and cache it.
* ``eer``         -- evaluate the cached production extractor on the
                     34-user campaign and print the Fig. 10(b) numbers.
* ``demo``        -- enroll-and-verify walk-through on a small model.
* ``metrics``     -- run an instrumented batch verify and print the
                     observability snapshot (Prometheus text or JSON).

The load tests (serving, streaming, gallery scale, chaos soak) are
pytest benchmarks under ``benchmarks/``, e.g.
``SERVE_QUICK=1 PYTHONPATH=src python -m pytest
benchmarks/test_serving_throughput.py``.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.config import DEFAULT_CONFIG, HIGHPASS_ORDER, SAMPLE_RATE_HZ

    cfg = DEFAULT_CONFIG
    print(f"repro {repro.__version__} -- MandiPass (ICDCS 2021) reproduction")
    print(f"  sampling      : {SAMPLE_RATE_HZ} Hz, "
          f"{cfg.sampling.duration_s}s per trial")
    print(f"  segment       : n = {cfg.preprocess.segment_length}, "
          f"high-pass {cfg.preprocess.highpass_cutoff_hz} Hz "
          f"(order {HIGHPASS_ORDER})")
    print(f"  front end     : {cfg.extractor.frontend} "
          f"(width {cfg.extractor.input_width})")
    print(f"  MandiblePrint : {cfg.extractor.embedding_dim}-d, "
          f"channels {cfg.extractor.channels}")
    print(f"  threshold     : {cfg.decision.threshold} "
          f"(paper: 0.5485)")
    from repro.datasets.cache import default_cache_dir

    print(f"  cache dir     : {default_cache_dir()}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.datasets.cache import DatasetCache
    from repro.eval.production import get_production_model

    print("Training (or loading) the production extractor ...")
    model = get_production_model(
        cache=DatasetCache(),
        num_people=args.people,
        epochs=args.epochs,
        force_retrain=args.force,
    )
    print(f"ready: {model.num_parameters():,} parameters "
          f"({model.storage_nbytes() / 1e6:.2f} MB as float32)")
    return 0


def _cmd_eer(args: argparse.Namespace) -> int:
    from repro.core.engine import InferenceEngine
    from repro.datasets.cache import DatasetCache
    from repro.datasets.standard import user_spec
    from repro.eval.metrics import equal_error_rate
    from repro.eval.pairs import genuine_impostor_distances
    from repro.eval.production import get_production_model

    cache = DatasetCache()
    model = get_production_model(cache=cache, epochs=args.epochs)
    users = cache.get(
        user_spec(num_people=args.people, trials_per_person=args.trials)
    )
    emb = InferenceEngine(model).embed_features(users.features)
    genuine, impostor = genuine_impostor_distances(emb, users.labels)
    eer = equal_error_rate(genuine, impostor)
    print(f"users                 : {args.people} "
          f"({args.trials} trials each)")
    print(f"EER                   : {eer.eer:.4f}   (paper: 0.0128)")
    print(f"threshold at EER      : {eer.threshold:.4f} (paper: 0.5485)")
    print(f"mean genuine distance : {genuine.mean():.4f}")
    print(f"mean impostor distance: {impostor.mean():.4f}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    import numpy as np

    from repro import (
        MandiPass,
        Recorder,
        TrainingConfig,
        sample_population,
        train_extractor,
    )
    from repro.config import ExtractorConfig, MandiPassConfig, SecurityConfig
    from repro.datasets.cache import DatasetCache
    from repro.datasets.standard import generate_hired_corpus

    print("Training a compact extractor (a couple of minutes) ...")
    corpus = generate_hired_corpus(
        num_people=24, nominal_trials=8, condition_trials=3, cache=DatasetCache()
    )
    extractor_config = ExtractorConfig(embedding_dim=128, channels=(8, 16, 32))
    model, _ = train_extractor(
        corpus.features,
        corpus.labels,
        extractor_config=extractor_config,
        training_config=TrainingConfig(epochs=12, batch_size=64, weight_decay=1e-4),
    )
    config = MandiPassConfig(
        extractor=extractor_config,
        security=SecurityConfig(template_dim=128, projected_dim=128, matrix_seed=1),
    )
    device = MandiPass(model, config=config)
    population = sample_population(6, 1, seed=0)
    recorder = Recorder(seed=2)
    device.enroll(
        "you", [recorder.record(population[1], trial_index=i) for i in range(5)]
    )
    # One batched pass through the inference engine decides all three.
    genuine, impostor, silent = device.verify_many(
        "you",
        [
            recorder.record(population[1], trial_index=30),
            recorder.record(population[3], trial_index=30),
            np.zeros((210, 6)),
        ],
    )
    print(f"genuine : accepted={genuine.accepted}  distance={genuine.distance:.3f}")
    print(f"impostor: accepted={impostor.accepted}  distance={impostor.distance:.3f}")
    print(f"silent  : accepted={silent.accepted}  (no vibration)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import numpy as np

    from repro import MandiPass, Recorder, obs, sample_population
    from repro.config import (
        ExtractorConfig,
        InferenceConfig,
        MandiPassConfig,
        SecurityConfig,
    )
    from repro.core.extractor import TwoBranchExtractor

    # An untrained (but deterministically seeded) compact extractor is
    # enough to exercise every instrumented stage; the decisions are
    # meaningless but the latency/failure metrics are real.
    extractor_config = ExtractorConfig(embedding_dim=64, channels=(4, 8, 16))
    config = MandiPassConfig(
        extractor=extractor_config,
        security=SecurityConfig(template_dim=64, projected_dim=64, matrix_seed=1),
        inference=InferenceConfig(
            compute_dtype=args.dtype, metrics_enabled=True
        ),
    )
    model = TwoBranchExtractor(extractor_config, num_classes=4, seed=0).eval()
    with obs.collecting() as registry:
        device = MandiPass(model, config=config)
        population = sample_population(4, 1, seed=0)
        recorder = Recorder(seed=1)
        device.enroll(
            "demo", [recorder.record(population[0], trial_index=i) for i in range(4)]
        )
        # A mixed queue: genuine + impostor trials, plus a silent
        # recording per 16 requests so the refusal path shows up.
        queue = []
        for i in range(args.batch):
            if i % 16 == 15:
                queue.append(np.zeros((210, 6)))
            else:
                person = population[i % len(population)]
                queue.append(recorder.record(person, trial_index=10 + i))
        device.verify_many("demo", queue)
        device.identify_many(queue[: min(8, args.batch)])
        if args.format == "json":
            text = registry.to_json()
        else:
            text = registry.to_prometheus()
    print(text, end="" if text.endswith("\n") else "\n")
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(registry.to_json() + "\n")
        print(f"# snapshot written to {args.output}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MandiPass (ICDCS 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="configuration summary").set_defaults(
        func=_cmd_info
    )

    train = sub.add_parser("train", help="train/cache the production extractor")
    train.add_argument("--people", type=int, default=80)
    train.add_argument("--epochs", type=int, default=25)
    train.add_argument("--force", action="store_true")
    train.set_defaults(func=_cmd_train)

    eer = sub.add_parser("eer", help="Fig. 10(b) headline numbers")
    eer.add_argument("--people", type=int, default=34)
    eer.add_argument("--trials", type=int, default=30)
    eer.add_argument("--epochs", type=int, default=25)
    eer.set_defaults(func=_cmd_eer)

    sub.add_parser("demo", help="enroll-and-verify walk-through").set_defaults(
        func=_cmd_demo
    )

    metrics = sub.add_parser(
        "metrics", help="instrumented batch verify + observability snapshot"
    )
    metrics.add_argument("--batch", type=int, default=64)
    metrics.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus"
    )
    metrics.add_argument(
        "--dtype", choices=("float32", "float64"), default="float32"
    )
    metrics.add_argument(
        "--output", default=None, help="also write the JSON snapshot here"
    )
    metrics.set_defaults(func=_cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
