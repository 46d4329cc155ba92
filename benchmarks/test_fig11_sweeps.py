"""Fig. 11: effect of system settings on EER.

(a) number of involved axes 1..6 -- paper: 14.46, 5.29, 2.05, 1.32,
    1.29, 1.28 % (monotone improvement; accelerometer-only = 2.05 %);
(b) training-set length 10..60 s per hired person -- monotone
    improvement, saturating near the top;
(c) MandiblePrint length 32..512 -- monotone improvement.

Each sweep point trains its own reduced-scale extractor (see
benchmarks/conftest.py for the sweep scale), so absolute EERs sit above
the production model's; the paper's *shape* -- monotone orderings and
where the big drops happen -- is what we assert.
"""

from repro.config import ExtractorConfig
from repro.eval.reporting import render_series

from conftest import once, sweep_eer, train_sweep_model

PAPER_AXES_EER = [14.46, 5.29, 2.05, 1.32, 1.29, 1.28]


def test_fig11a_effect_of_axes(benchmark, cache):
    def run():
        eers = []
        for axes in range(1, 7):
            model = train_sweep_model(cache, max_axes=axes)
            eers.append(sweep_eer(cache, model, max_axes=axes).eer)
        return eers

    eers = once(benchmark, run)

    print()
    print(render_series(
        "Fig. 11(a) - EER vs involved axes (paper: "
        + " ".join(f"{v}%" for v in PAPER_AXES_EER) + ")",
        list(range(1, 7)),
        [round(100 * e, 2) for e in eers],
        x_label="axes", y_label="EER %",
    ))

    # Shape: more axes help a lot at the low end (paper: 14.46 % with
    # one axis vs 2.05 % accel-only vs 1.28 % with all six).  At sweep
    # scale the gyro tail can be flat-to-noisy (see EXPERIMENTS.md), so
    # the assertions target the robust orderings: the single-axis system
    # is clearly the worst and adding axes buys a large factor.
    assert eers[2] < 0.75 * eers[0]       # accel-only much better than 1 axis
    assert eers[5] < 0.8 * eers[0]        # full set much better than 1 axis
    assert min(eers[2:]) <= min(eers[:2])  # >=3 axes dominate


def test_fig11b_effect_of_training_set_length(benchmark, cache):
    # Trials per hired person stand in for seconds of collected voicing
    # (the paper sweeps 10..60 s).
    trial_counts = [2, 4, 6, 8, 10]

    def run():
        eers = []
        for trials in trial_counts:
            model = train_sweep_model(cache, trials=trials)
            eers.append(sweep_eer(cache, model).eer)
        return eers

    eers = once(benchmark, run)

    print()
    print(render_series(
        "Fig. 11(b) - EER vs training trials per hired person",
        trial_counts,
        [round(100 * e, 2) for e in eers],
        x_label="trials", y_label="EER %",
    ))

    # Shape: more training data helps; the largest budget beats the
    # smallest clearly and the curve is near-monotone.
    assert eers[-1] < eers[0]
    assert eers[-1] <= min(eers) + 0.02


def test_fig11c_effect_of_mandibleprint_length(benchmark, cache):
    dims = [32, 64, 128, 256, 512]

    def run():
        eers = []
        for dim in dims:
            config = ExtractorConfig(embedding_dim=dim)
            model = train_sweep_model(cache, extractor_config=config)
            eers.append(sweep_eer(cache, model).eer)
        return eers

    eers = once(benchmark, run)

    print()
    print(render_series(
        "Fig. 11(c) - EER vs MandiblePrint length (paper: decreasing, "
        "<1.5% at 512)",
        dims,
        [round(100 * e, 2) for e in eers],
        x_label="dim", y_label="EER %",
    ))

    # Shape: longer embeddings do not hurt; 512 is among the best and
    # clearly better than 32.
    assert eers[-1] <= eers[0]
    assert eers[-1] <= min(eers) + 0.02
