"""Seeded benchmark inputs: MedleyDB-shaped WAV tracks, activation CSVs, a
taxonomy file and a run config.

This module is deliberately independent of the package and of the test
helpers, so that neither can move the benchmark's inputs. The same seed and
sizes always give byte-identical files.

Every track carries one instrument of each of ten kept categories plus one
rare instrument of its own. The rare names appear in a single track each, so
with ``min_songs = 2`` they collapse to OTHER and the class list is exactly
ten categories plus OTHER, i.e. the network's eleven outputs. Because every
track has every class at track level, the stratified split depends only on
the track count, not on the seed, so the work per run does not drift with
the seed.

Run as a script to write one workload's inputs:

    python3 perfbench/inputs.py --workload reduced_train --seed 0 --out DIR
"""

import argparse
import functools
import json
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE = 44100
# MedleyDB activation confidences sit on a 2048-sample hop grid.
ACTIVATION_STEP = 2048 / SAMPLE_RATE
ON_LEVEL = 0.5

# raw instrument name -> (category, tone fundamental Hz, low component Hz)
# The low component (5..55 Hz) survives the reduced net's 200-sample
# decimation; the fundamental and its harmonics carry the MFCC signal.
INSTRUMENTS = {
    "male singer": ("voice", 220, 7),
    "female singer": ("voice", 330, 9),
    "piano": ("piano", 262, 11),
    "drum set": ("drum set", 110, 13),
    "electric bass": ("electric bass", 55, 17),
    "acoustic guitar": ("acoustic guitar", 196, 19),
    "distorted electric guitar": ("distorted electric guitar", 147, 23),
    "violin": ("violin", 440, 29),
    "violin section": ("violin", 494, 31),
    "synthesizer": ("synthesizer", 523, 37),
    "electric piano": ("synthesizer", 392, 41),
    "flute": ("flute", 587, 43),
    "trumpet": ("trumpet", 349, 47),
}
KEPT_CATEGORIES = sorted({cat for cat, _, _ in INSTRUMENTS.values()})
NUM_CLASSES = len(KEPT_CATEGORIES) + 1  # plus OTHER


@dataclass(frozen=True)
class Sizes:
    """Input sizes and run settings of one workload."""

    tracks: int
    seconds_per_track: int
    nn: str | None            # None, "reduced" or "table1"
    epochs: int = 1
    batch_size: int = 16
    forest_trees: int = 0     # trees per label for the forest baseline

    @property
    def clips(self) -> int:
        return self.tracks * self.seconds_per_track


# Benchmark sizes; tests pass tiny ones through the same code.
SIZES = {
    "corpus_features": Sizes(tracks=3, seconds_per_track=180, nn=None, forest_trees=1),
    "reduced_train": Sizes(tracks=48, seconds_per_track=6, nn="reduced", epochs=4,
                           batch_size=16),
    "table1_step": Sizes(tracks=3, seconds_per_track=1, nn="table1", epochs=1, batch_size=2),
}
WORKLOAD_CODE = {"corpus_features": 1, "reduced_train": 2, "table1_step": 3}


def encode_wav_stereo16(left, right) -> bytes:
    """RIFF/WAVE bytes of 16-bit stereo PCM at 44.1 kHz; inputs in [-1, 1]."""
    frames = np.stack([left, right], axis=1)
    raw = np.clip(np.round(frames * 32767.0), -32768, 32767).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 2, SAMPLE_RATE, SAMPLE_RATE * 4, 4, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(raw)) + raw
    return b"RIFF" + struct.pack("<I", len(body)) + body


def activation_curves(rng, steps: int, seconds: int, columns: int) -> np.ndarray:
    """On/off confidence segments per instrument, each on at least once.

    Segments span 1..4 whole seconds, so every clip is either wholly on or
    wholly off and the labels carry no boundary noise; that keeps the
    baselines' work (tree sizes above all) the same from seed to seed. "On"
    levels sit in [0.6, 0.75] and "off" levels in [0, 0.2]: the 100 ms
    smoothing window straddling a boundary averages to below 0.5, so a
    segment never leaks into the clip before it.
    """
    second = (np.arange(steps) * ACTIVATION_STEP).astype(np.int64)
    conf = np.empty((steps, columns))
    for j in range(columns):
        levels = np.empty(seconds + 1)
        t = 0
        on = bool(rng.integers(2))
        while t <= seconds:
            length = int(rng.integers(1, 5))
            levels[t:t + length] = rng.uniform(0.6, 0.75) if on else rng.uniform(0.0, 0.2)
            t += length
            on = not on
        if levels[:seconds].max() < ON_LEVEL:  # force one on-second
            levels[int(rng.integers(seconds))] = rng.uniform(0.6, 0.75)
        conf[:, j] = levels[np.minimum(second, seconds)]
    return conf


@functools.lru_cache(maxsize=None)
def _tone(freq: int, low: int) -> np.ndarray:
    """One second of a harmonic tone; integer frequencies make it tile."""
    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    return (np.sin(2 * np.pi * freq * t) + 0.5 * np.sin(4 * np.pi * freq * t)
            + 0.25 * np.sin(6 * np.pi * freq * t) + 0.5 * np.sin(2 * np.pi * low * t))


def synth_track(rng, track_index: int, seconds: int):
    """Returns ``(wav_bytes, csv_text)`` for one track."""
    raws = []
    for cat in KEPT_CATEGORIES:
        options = sorted(name for name, (c, _, _) in INSTRUMENTS.items() if c == cat)
        raws.append(options[int(rng.integers(len(options)))])
    raws.append(f"rare instrument {track_index:03d}")
    steps = int(np.ceil(seconds / ACTIVATION_STEP)) + 2
    conf = activation_curves(rng, steps, seconds, len(raws))

    tones = [_tone(*INSTRUMENTS[name][1:]) for name in raws[:-1]]
    tones.append(_tone(600 + 7 * (track_index % 50), 3))
    tone_matrix = np.stack(tones, axis=1)  # [SAMPLE_RATE, instruments]
    on = (conf >= ON_LEVEL).astype(np.float64)
    samples_per_step = ACTIVATION_STEP * SAMPLE_RATE
    mix = np.empty((seconds, SAMPLE_RATE))
    for sec in range(seconds):
        step_index = (np.arange(sec * SAMPLE_RATE, (sec + 1) * SAMPLE_RATE)
                      / samples_per_step).astype(np.int64)
        mix[sec] = np.einsum("ti,ti->t", on[step_index], tone_matrix)
    mix = mix.ravel()
    n = len(mix)
    mix *= 0.9 / (len(raws) * 2.25)
    left = mix + rng.normal(0.0, 0.01, n)
    right = 0.9 * mix + rng.normal(0.0, 0.01, n)

    times = np.arange(steps) * ACTIVATION_STEP
    header = "time," + ",".join(raws)
    rows = [f"{ti:.10f}," + ",".join(f"{c:.4f}" for c in row) for ti, row in zip(times, conf)]
    csv = header + "\n" + "\n".join(rows) + "\n"
    return encode_wav_stereo16(left, right), csv


def write_inputs(workload: str, seed: int, out: Path, sizes: Sizes | None = None) -> dict:
    """Write the inputs of one workload under ``out`` and return their summary.

    ``out`` gets ``audio/``, ``activations/``, ``categories.tsv`` and
    ``run.cfg``; the returned dict records the generated clip count per track
    and the byte sizes, which the benchmark checks the manifests against.
    """
    sizes = sizes or SIZES[workload]
    out = Path(out)
    audio_dir, act_dir = out / "audio", out / "activations"
    audio_dir.mkdir(parents=True, exist_ok=True)
    act_dir.mkdir(parents=True, exist_ok=True)
    clips_per_track = {}
    wav_bytes = 0
    for k in range(sizes.tracks):
        rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOAD_CODE[workload], k]))
        track_id = f"track{k:03d}"
        wav, csv = synth_track(rng, k, sizes.seconds_per_track)
        (audio_dir / f"{track_id}.wav").write_bytes(wav)
        (act_dir / f"{track_id}_ACTIVATION_CONF.lab").write_text(csv)
        clips_per_track[track_id] = sizes.seconds_per_track
        wav_bytes += len(wav)

    taxonomy = out / "categories.tsv"
    taxonomy.write_text("".join(f"{name}\t{cat}\n" for name, (cat, _, _) in INSTRUMENTS.items()))
    cfg = {
        "audio_dir": "audio", "activation_dir": "activations",
        "taxonomy_file": "categories.tsv", "output_dir": "out",
        "test_fraction": 0.2, "split_seed": seed, "min_songs": 2,
        "learning_rate": 0.01, "batch_size": sizes.batch_size, "epochs": sizes.epochs,
        "train_seed": seed, "drop_rate": 0.5,
        "reduced": "true" if sizes.nn == "reduced" else "false",
        "eval_each_epoch": "true",
    }
    (out / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    summary = {"workload": workload, "seed": seed, "tracks": sizes.tracks,
               "clips": sizes.clips, "wav_bytes": wav_bytes,
               "clips_per_track": clips_per_track}
    (out / "inputs.json").write_text(json.dumps(summary))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--sizes", help="JSON object overriding the workload's Sizes")
    args = parser.parse_args(argv)
    sizes = Sizes(**json.loads(args.sizes)) if args.sizes else None
    write_inputs(args.workload, args.seed, Path(args.out), sizes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
