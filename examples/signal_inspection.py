"""Inspect what the earphone IMU actually records.

A text-mode signal laboratory for one trial: amplitude envelope, onset
detection, F0 estimate versus the person's ground truth, spectrogram of
the dominant axis, and the preprocessed signal array the extractor
consumes.  No training required.

Run:  python examples/signal_inspection.py
"""

import numpy as np

from repro import Recorder, sample_population
from repro.config import PreprocessConfig
from repro.dsp import Preprocessor
from repro.dsp.analysis import envelope, estimate_f0
from repro.dsp.stft import spectrogram
from repro.dsp.detection import detect_onset

FS = 350.0


def bar(value: float, full: float, width: int = 50) -> str:
    return "#" * int(round(width * min(value / full, 1.0)))


def main() -> None:
    person = sample_population(8, 2, seed=0)[2]
    recorder = Recorder(seed=4)
    recording = recorder.record(person, trial_index=0)

    print(f"Person {person.person_id}: F0 = {person.f0_hz:.1f} Hz, "
          f"mandible natural frequency = {person.natural_frequency_hz:.1f} Hz")
    print(f"Recording: {recording.shape[0]} samples x 6 axes at {FS:.0f} Hz\n")

    # ------------------------------------------------------------------
    # Amplitude envelope and detected onset.
    # ------------------------------------------------------------------
    strongest = int(np.argmax(recording[:, :3].std(axis=0)))
    axis_name = ("ax", "ay", "az")[strongest]
    signal = recording[:, strongest] - np.median(recording[:, strongest])
    env = envelope(signal, window=14)
    onset = detect_onset(recording)
    print(f"1. Envelope of {axis_name} (strongest axis); onset detected at "
          f"sample {onset} ({onset / FS * 1000:.0f} ms)")
    step = 14
    top = env.max()
    for start in range(0, len(env) - step, step):
        marker = "<-- onset" if start <= onset < start + step else ""
        print(f"   {start:4d} |{bar(env[start:start + step].mean(), top)} {marker}")

    # ------------------------------------------------------------------
    # F0 estimation from the voiced region.
    # ------------------------------------------------------------------
    voiced = signal[onset:]
    estimate = estimate_f0(voiced.astype(float), FS, f0_min_hz=60, f0_max_hz=240)
    print(f"\n2. Autocorrelation F0 estimate from the voiced region: "
          f"{estimate and round(estimate, 1)} Hz "
          f"(ground truth {person.f0_hz:.1f} Hz)")
    print("   (at a 350 Hz IMU rate, estimates can land on an aliased"
          " image of the true pitch)")

    # ------------------------------------------------------------------
    # Spectrogram of the voiced region.
    # ------------------------------------------------------------------
    print("\n3. Spectrogram (power, voiced region, frame 50 hop 12):")
    times, freqs, power = spectrogram(
        voiced.astype(float), FS, frame_length=50, hop=12
    )
    peak = power.max()
    shades = " .:-=+*#%@"
    keep = freqs <= 175.0
    for f_idx in range(keep.sum() - 1, -1, -2):
        row = "".join(
            shades[min(int((power[t_idx, f_idx] / peak) ** 0.3 * (len(shades) - 1)),
                       len(shades) - 1)]
            for t_idx in range(power.shape[0])
        )
        print(f"   {freqs[f_idx]:6.0f} Hz |{row}|")

    # ------------------------------------------------------------------
    # The preprocessed signal array.
    # ------------------------------------------------------------------
    array = Preprocessor(PreprocessConfig()).process(recording)
    print(f"\n4. Preprocessed signal array: shape {array.shape}, "
          f"range [{array.min():.2f}, {array.max():.2f}]")
    print("   per-axis energy (std of the normalised segment):")
    for idx, name in enumerate(("ax", "ay", "az", "gx", "gy", "gz")):
        print(f"   {name} |{bar(array[idx].std(), 0.5)}")


if __name__ == "__main__":
    main()
