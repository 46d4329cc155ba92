"""Seeded substrate for the benchmark: a trained model, people, a feed.

The substrate is what every workload draws its inputs from:

* a compact serving-config extractor (64-d embedding, channels
  (4, 8, 16)) trained on a small hired corpus drawn from its own seeded
  population.  A trained model matters: with an untrained one every
  person embeds alike, the gallery's prescreen bound keeps almost every
  user in the rerank pool, and identify at U=1000, B=64 took 990 ms
  against 31 ms with a 6 s trained model over 512 distinct persons.
  Timing an untrained model would time the wrong program;
* ``NUM_PEOPLE`` distinct persons with ``TRIALS_PER_PERSON`` recorded
  trials each (the first two enroll, the rest probe);
* an earbud wearer with many trials, and a few impostors, from which
  the streaming workload assembles its IMU feed.

It is built from the fixed ``SUBSTRATE_SEED``, not from the run's
``--seed``: building takes about 35 s on one core, and a run with a new
seed must not pay that.  The run's seed draws everything a run sends
(which persons enroll, which trials probe, arrival times, the request
mix, the feed's order) from this substrate.

The substrate is cached in ``perfbench/.cache`` under a name that hashes
every constant below, so changing one rebuilds it instead of reusing a
stale file.  Building runs in its own process before the measured one
starts, so its time stays out of ``setup_s`` and its memory out of
``peak_rss_mb``.  Build it directly with::

    python3 perfbench/fixture.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

CACHE_DIR = Path(__file__).resolve().parent / ".cache"

SUBSTRATE_SEED = 7
#: Distinct persons: 1024 enrolled at the gate (1000 stable plus the
#: first churn persons), further churn and impostor persons after them.
NUM_PEOPLE = 1200
TRIALS_PER_PERSON = 4
ENROLL_TRIALS = 2
#: Hired corpus that trains the extractor.
HIRED_PEOPLE = 32
HIRED_TRIALS = 8
TRAIN_EPOCHS = 6
#: Earbud feed: the wearer's trials and the impostor persons.
WEARER_SESSIONS = 4
WEARER_TRIALS_PER_SESSION = 16
FEED_IMPOSTORS = 8
FEED_IMPOSTOR_TRIALS = 4

EMBEDDING_DIM = 64
CHANNELS = (4, 8, 16)


def extractor_config():
    from repro.config import ExtractorConfig

    return ExtractorConfig(embedding_dim=EMBEDDING_DIM, channels=CHANNELS)


def system_config(serving=None):
    """The compact serving config every workload deploys.

    Cascade, fusion, gallery and stream sections keep their defaults,
    which is the deployed path.
    """
    from repro.config import (
        InferenceConfig,
        MandiPassConfig,
        SecurityConfig,
        ServingConfig,
    )

    return MandiPassConfig(
        extractor=extractor_config(),
        security=SecurityConfig(
            template_dim=EMBEDDING_DIM, projected_dim=EMBEDDING_DIM
        ),
        inference=InferenceConfig(compute_dtype="float32"),
        serving=serving if serving is not None else ServingConfig(),
    )


def cache_path() -> Path:
    """The cache file, named by a hash of every substrate constant."""
    constants = {
        name: value
        for name, value in globals().items()
        if name.isupper() and isinstance(value, (int, float, tuple))
    }
    digest = hashlib.sha256(
        json.dumps(constants, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]
    return CACHE_DIR / f"substrate-{digest}.npz"


# -- builders ---------------------------------------------------------------


def _build_model() -> dict:
    from repro.config import TrainingConfig
    from repro.core.training import train_extractor
    from repro.datasets.synth import DatasetSpec, generate_dataset

    spec = DatasetSpec(
        num_people=HIRED_PEOPLE,
        num_female=HIRED_PEOPLE // 6,
        trials_per_person=HIRED_TRIALS,
        population_seed=100_000 + SUBSTRATE_SEED,
        recorder_seed=SUBSTRATE_SEED,
        segment_offsets=(-4, 0, 4),
    )
    corpus = generate_dataset(spec)
    model, _ = train_extractor(
        corpus.features,
        corpus.labels,
        extractor_config=extractor_config(),
        training_config=TrainingConfig(
            epochs=TRAIN_EPOCHS, batch_size=64, seed=SUBSTRATE_SEED
        ),
    )
    state = {f"param:{k}": v for k, v in model.state_dict().items()}
    state["num_classes"] = np.asarray(model.num_classes)
    return state


def _build_people() -> dict:
    from repro.imu import Recorder
    from repro.physio import sample_population

    population = sample_population(
        NUM_PEOPLE, NUM_PEOPLE // 6, seed=200_000 + SUBSTRATE_SEED
    )
    recorder = Recorder(seed=SUBSTRATE_SEED)
    sessions = np.stack(
        [recorder.record_session(person, TRIALS_PER_PERSON) for person in population]
    )
    return {"people": sessions}


def _build_feed() -> dict:
    from repro.imu import Recorder
    from repro.physio import sample_population

    population = sample_population(
        1 + FEED_IMPOSTORS, 2, seed=300_000 + SUBSTRATE_SEED
    )
    recorder = Recorder(seed=SUBSTRATE_SEED)
    wearer = np.concatenate(
        [
            recorder.record_session(
                population[0], WEARER_TRIALS_PER_SESSION, session_index=k
            )
            for k in range(WEARER_SESSIONS)
        ]
    )
    impostors = np.concatenate(
        [
            recorder.record_session(person, FEED_IMPOSTOR_TRIALS)
            for person in population[1:]
        ]
    )
    return {"wearer": wearer, "feed_impostors": impostors}


def build() -> Path:
    """Build the substrate and write it to the cache atomically."""
    arrays = {**_build_model(), **_build_people(), **_build_feed()}
    final = cache_path()
    final.parent.mkdir(parents=True, exist_ok=True)
    partial = final.with_name(f"{final.stem}.{os.getpid()}.tmp.npz")
    np.savez(partial, **arrays)
    os.replace(partial, final)
    return final


# -- loading ----------------------------------------------------------------


def load() -> dict:
    with np.load(cache_path()) as data:
        return {key: data[key] for key in data.files}


def model_from(arrays: dict):
    from repro.core.extractor import TwoBranchExtractor

    model = TwoBranchExtractor(
        extractor_config(), num_classes=int(arrays["num_classes"]), seed=0
    )
    model.load_state(
        {k[len("param:"):]: v for k, v in arrays.items() if k.startswith("param:")}
    )
    return model.eval()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    if not cache_path().exists():
        build()
