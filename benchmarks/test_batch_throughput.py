"""Throughput of the batch-first inference path (PR: pipeline engine).

A verification server draining a queue of B=64 requests should not pay
64 separate pipeline walks: every dense stage — detection high-pass,
outlier replacement, segment filtering, the front end and the CNN
forward — is vectorised over the stacked batch.  This bench measures
the sequential ``verify`` loop against one ``verify_many`` call and
asserts (a) bitwise-identical accept/reject decisions, (b) np.allclose
distances, and (c) at least a 2x wall-clock speedup.
"""

import numpy as np

from repro.config import ExtractorConfig, MandiPassConfig, SecurityConfig
from repro.core.system import MandiPass
from repro.imu import Recorder
from repro.physio import sample_population

from conftest import best_of, once, train_sweep_model

BATCH = 64


def _build_device(cache):
    extractor_config = ExtractorConfig(embedding_dim=64, channels=(4, 8, 16))
    model = train_sweep_model(cache, extractor_config=extractor_config, epochs=6)
    config = MandiPassConfig(
        extractor=extractor_config,
        security=SecurityConfig(template_dim=64, projected_dim=64, matrix_seed=3),
    )
    return MandiPass(model, config=config)


def _probe_batch(population, recorder):
    """B=64 queue: genuine, impostor and a sprinkle of dead requests."""
    batch = []
    for i in range(BATCH):
        if i % 16 == 7:
            batch.append(np.zeros((210, 6)))
        else:
            person = population[i % len(population)]
            batch.append(recorder.record(person, trial_index=100 + i))
    return batch


def test_batch_verify_throughput(benchmark, cache):
    device = _build_device(cache)
    population = sample_population(6, 1, seed=5)
    recorder = Recorder(seed=9)
    device.enroll(
        "queue-user",
        [recorder.record(population[0], trial_index=i) for i in range(5)],
    )
    batch = _probe_batch(population, recorder)

    # Register the batched call with pytest-benchmark, then take
    # matched best-of-2 wall-clock timings for the speedup ratio.
    batched2 = once(benchmark, lambda: device.verify_many("queue-user", batch))
    seq_time, sequential = best_of(
        2, lambda: [device.verify("queue-user", rec) for rec in batch]
    )
    bat_time, batched = best_of(2, lambda: device.verify_many("queue-user", batch))

    speedup = seq_time / bat_time
    print()
    print(
        f"B={BATCH}: sequential {seq_time * 1e3:.1f} ms, "
        f"batched {bat_time * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )

    assert len(batched) == len(sequential) == BATCH
    for one, many, again in zip(sequential, batched, batched2):
        assert many.accepted == one.accepted
        assert many.accepted == again.accepted
        assert np.allclose(many.distance, one.distance)
    rejected = sum(not r.accepted for r in batched)
    accepted = BATCH - rejected
    assert accepted > 0 and rejected > 0  # the queue genuinely mixes outcomes

    # The tentpole's acceptance bar: the batched path must at least
    # halve the wall clock of the request loop at B=64.
    assert speedup >= 2.0
