"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``        -- package, configuration and substrate summary.
* ``train``       -- train the production extractor and cache it.
* ``eer``         -- evaluate the cached production extractor on the
                     34-user campaign and print the Fig. 10(b) numbers.
* ``demo``        -- enroll-and-verify walk-through on a small model.
* ``metrics``     -- run an instrumented batch verify and print the
                     observability snapshot (Prometheus text or JSON).
* ``serve-bench`` -- load-test the concurrent serving layer (dynamic
                     micro-batching) against a sequential baseline and
                     write ``BENCH_serving.json``.
* ``chaos``       -- run randomized seeded fault-injection schedules
                     through the serving stack and write the
                     outcome-accounting report ``BENCH_chaos.json``.
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


def _cmd_stream(args: argparse.Namespace) -> int:
    """Live continuous-authentication demo: one session, chunked feed."""
    import numpy as np

    from repro.config import StreamConfig
    from repro.serve.loadgen import build_bench_system
    from repro.stream import StreamSession

    system, user_id, probes = build_bench_system(num_probes=8)
    stream = np.concatenate(probes[: args.events], axis=0)
    config = StreamConfig(chunk_size=args.chunk_size, cooldown_samples=105)
    print(f"continuous authentication: user {user_id!r}, "
          f"{args.events} vibration events, "
          f"{stream.shape[0]} samples in {config.chunk_size}-sample chunks")
    session = StreamSession(user_id, system=system, config=config)
    decisions = []
    for pos in range(0, stream.shape[0], config.chunk_size):
        decisions += session.push(stream[pos : pos + config.chunk_size])
    decisions += session.close()
    for decision in decisions:
        verdict = ("ACCEPT" if decision.result and decision.result.accepted
                   else "REJECT")
        distance = (f"{decision.result.distance:.4f}" if decision.result
                    else "-")
        print(f"  onset @ sample {decision.onset:5d}  "
              f"window [{decision.window_start}, {decision.window_end})  "
              f"distance {distance}  -> {verdict}")
    trace = " -> ".join(f"{name}@{at}" for name, at in session.trace[:10])
    print(f"  trace: {trace}{' ...' if len(session.trace) > 10 else ''}")
    print(f"  {len(decisions)} decisions from {session.stats()['onsets']} "
          "detected onsets (exactly-once)")
    return 0


def _cmd_stream_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.stream.bench import stream_benchmark

    counts = (1, 4) if args.quick else (1, 2, 4, 8)
    repeats = 4 if args.quick else 10
    report = stream_benchmark(
        session_counts=counts,
        repeats=repeats,
        dtype=args.dtype,
        output_path=Path(args.output) if args.output else None,
    )
    machine = report["machine"]
    print(f"sustained-streams benchmark "
          f"({'quick' if args.quick else 'full'} mode, "
          f"{report['config']['dtype']}, "
          f"chunk {report['config']['chunk_size']} samples)")
    print(f"  machine    : {machine['usable_cpus']}/{machine['cpu_count']} "
          f"cpus usable, python {machine['python']}")
    seq = report["sequential"]
    print(f"  sequential : {seq['throughput_rps']:8.1f} dec/s "
          f"(p50 {seq['p50_ms']:.1f} ms)")
    print(f"  megabatch  : {report['megabatch']['throughput_rps']:8.1f} dec/s")
    for row in report["sweep"]:
        print(f"  {row['sessions']:2d} sessions: "
              f"{row['throughput_dps']:8.1f} dec/s "
              f"({row['decisions']}/{row['expected_decisions']} decisions, "
              f"p50 {row['decision_latency_p50_ms']:.1f} ms)")
    claims = report["claims"]
    print(f"  best       : {claims['best_sessions']} sessions at "
          f"{claims['ratio_vs_sequential']:.2f}x sequential "
          f"(exactly-once: {claims['exactly_once']})")
    if args.output:
        print(f"# report written to {args.output}", file=sys.stderr)
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    if args.streams:
        if args.output == "BENCH_serving.json":
            args.output = "BENCH_stream.json"
        return _cmd_stream_bench(args)
    from repro.serve.loadgen import serving_benchmark

    processes = (
        [int(p) for p in args.processes.split(",")] if args.processes else None
    )
    report = serving_benchmark(
        quick=args.quick,
        dtype=args.dtype,
        max_batch_size=args.batch_size,
        num_clients=args.clients,
        requests_per_client=args.requests,
        process_counts=processes,
        output=args.output,
    )
    machine = report["machine"]
    baseline = report["baseline"]
    seq = baseline["sequential"]
    closed = baseline["closed_loop"]
    idle = baseline["idle"]
    overload = baseline["open_loop"]
    arrivals = report["arrivals"]
    print(f"serving benchmark ({'quick' if args.quick else 'full'} mode, "
          f"{report['config']['dtype']}, batch<= {args.batch_size})")
    print(f"  machine    : {machine['usable_cpus']}/{machine['cpu_count']} "
          f"cpus usable, start method {machine['start_method']}, "
          f"python {machine['python']}")
    print(f"  sequential : {seq['throughput_rps']:8.1f} req/s "
          f"({seq['completed']} requests, p50 {seq['p50_ms']:.1f} ms)")
    print(f"  closed loop: {closed['throughput_rps']:8.1f} req/s "
          f"({closed['completed']} requests, p50 {closed['p50_ms']:.1f} ms, "
          f"p99 {closed['p99_ms']:.1f} ms, "
          f"occupancy {closed['mean_batch_occupancy']:.1f})")
    print(f"  speedup    : {baseline['speedup_vs_sequential']:8.1f}x "
          f"vs sequential")
    print(f"  idle p99   : {idle['p99_ms']:8.1f} ms "
          f"(policy bound {idle['bound_ms']:.1f} ms)")
    print(f"  overload   : {overload['completed']} served, "
          f"{overload['expired']} shed, {overload['rejected']} rejected "
          f"at {overload['offered_rps']:.0f} req/s offered")
    for name in ("poisson", "diurnal"):
        trace = arrivals[name]
        print(f"  {name:<11}: {trace['completed']} served, "
              f"{trace['expired']} shed, {trace['rejected']} rejected "
              f"(p99 {trace['p99_ms']:.1f} ms, "
              f"{arrivals['processes']} processes)")
    print("  worker sweep (pipeline-bound, "
          f"batch<= {report['worker_sweep']['config']['max_batch_size']}):")
    for row in report["worker_sweep"]["rows"]:
        label = ("threads" if row["mode"] == "threads"
                 else f"{row['processes']} proc")
        print(f"    {label:>8}: {row['throughput_rps']:8.1f} req/s "
              f"({row['speedup_vs_threads']:.2f}x vs threads)")
    if args.output:
        print(f"# report written to {args.output}", file=sys.stderr)
    return 0


def _cmd_gallery_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.gallery.bench import gallery_benchmark, write_results

    sizes = (
        tuple(int(s) for s in args.sizes.split(",")) if args.sizes else None
    )
    print(f"gallery scale benchmark ({'quick' if args.quick else 'full'} mode)")
    data = gallery_benchmark(quick=args.quick, sizes=sizes)
    for point in data["sweep"]:
        identify = point["identify"]
        updates = point["updates"]
        print(
            f"  U={point['num_users']:>7}: "
            f"cascade {identify['cascade_per_probe_s'] * 1e3:7.2f} ms/probe, "
            f"dense {identify['dense_per_probe_s'] * 1e3:7.2f} ms "
            f"({identify['speedup_vs_dense']:.2f}x), "
            f"pool {identify['rerank_pool_mean']:.0f}, "
            f"enroll {updates['enroll_s'] * 1e6:6.0f} us "
            f"(rebuild {updates['rebuild_over_enroll']:.0f}x slower)"
        )
    claims = data["claims"]
    for name, held in claims.items():
        print(f"  {name:<28}: {'PASS' if held else 'FAIL'}")
    if args.output:
        path = write_results(data, Path(args.output))
        print(f"# report written to {path}", file=sys.stderr)
    return 0 if all(claims.values()) else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.faults.chaos import run_campaign

    seeds = list(range(args.base_seed, args.base_seed + args.seeds))
    print(f"chaos campaign: {len(seeds)} seeded schedules, "
          f"{args.requests} requests each ({args.dtype})")
    reports = run_campaign(
        seeds, num_requests=args.requests, dtype=args.dtype
    )
    statuses: dict[str, int] = {}
    fires: dict[str, int] = {}
    unhealthy = []
    for report in reports:
        for key, count in report.statuses.items():
            statuses[key] = statuses.get(key, 0) + count
        for key, count in report.fault_fires.items():
            fires[key] = fires.get(key, 0) + count
        if not report.healthy:
            unhealthy.append(report.seed)
    total = sum(statuses.values())
    print(f"  requests   : {total} resolved / "
          f"{len(seeds) * args.requests} submitted")
    for key in sorted(statuses):
        print(f"    {key:<9}: {statuses[key]}")
    print(f"  fault fires: {sum(fires.values())} across "
          f"{len([k for k, v in fires.items() if v])} point/kind pairs")
    print(f"  invariants : "
          f"{'all held' if not unhealthy else f'VIOLATED for seeds {unhealthy}'}")
    if args.output:
        payload = {
            "seeds": seeds,
            "requests_per_schedule": args.requests,
            "dtype": args.dtype,
            "statuses": dict(sorted(statuses.items())),
            "fault_fires": dict(sorted(fires.items())),
            "unhealthy_seeds": unhealthy,
            "schedules": [report.to_dict() for report in reports],
        }
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"# report written to {args.output}", file=sys.stderr)
    return 1 if unhealthy else 0


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

    serve_bench = sub.add_parser(
        "serve-bench",
        help="micro-batched serving throughput vs a sequential loop",
    )
    serve_bench.add_argument("--quick", action="store_true",
                             help="CI smoke: small request counts")
    serve_bench.add_argument("--clients", type=int, default=None,
                             help="closed-loop client threads")
    serve_bench.add_argument("--requests", type=int, default=None,
                             help="requests per closed-loop client")
    serve_bench.add_argument("--batch-size", type=int, default=64)
    serve_bench.add_argument(
        "--dtype", choices=("float32", "float64"), default="float32"
    )
    serve_bench.add_argument(
        "--processes", default=None,
        help="comma-separated worker-process counts for the sweep "
             "(default: 1,2 quick / 1,2,4 full)",
    )
    serve_bench.add_argument(
        "--output", default="BENCH_serving.json",
        help="write the JSON report here",
    )
    serve_bench.add_argument(
        "--streams", action="store_true",
        help="run the sustained-streams suite instead (N continuous "
             "sessions vs the batch paths; writes BENCH_stream.json)",
    )
    serve_bench.set_defaults(func=_cmd_serve_bench)

    stream = sub.add_parser(
        "stream",
        help="continuous-authentication demo: one session over a live feed",
    )
    stream.add_argument("--events", type=int, default=3,
                        help="number of vibration events in the feed")
    stream.add_argument("--chunk-size", type=int, default=35,
                        help="samples per pushed chunk")
    stream.set_defaults(func=_cmd_stream)

    gallery_bench = sub.add_parser(
        "gallery-bench",
        help="sharded-gallery U-sweep: update latency, cascade vs dense gemm",
    )
    gallery_bench.add_argument("--quick", action="store_true",
                               help="CI smoke: sweep 1k/10k users only")
    gallery_bench.add_argument(
        "--sizes", default=None,
        help="comma-separated user counts (overrides quick/full sweep)",
    )
    gallery_bench.add_argument(
        "--output", default="BENCH_gallery.json",
        help="write the JSON report here (empty string to skip)",
    )
    gallery_bench.set_defaults(func=_cmd_gallery_bench)

    chaos = sub.add_parser(
        "chaos",
        help="randomized fault-injection schedules over the serving stack",
    )
    chaos.add_argument("--seeds", type=int, default=25,
                       help="number of seeded schedules to run")
    chaos.add_argument("--base-seed", type=int, default=0)
    chaos.add_argument("--requests", type=int, default=18,
                       help="requests per schedule")
    chaos.add_argument(
        "--dtype", choices=("float32", "float64"), default="float32"
    )
    chaos.add_argument(
        "--output", default="BENCH_chaos.json",
        help="write the JSON report here (empty string to skip)",
    )
    chaos.set_defaults(func=_cmd_chaos)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
