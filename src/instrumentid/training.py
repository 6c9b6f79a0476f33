"""CNN training pipeline: clip loading, contrast normalization, the SGD loop."""

import itertools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import audio
from .audio import CLIP_SAMPLES
from .config import RunConfig
from .metrics import EvalReport, evaluate
from .nn import (
    FULL_INPUT_LENGTH, NUM_CLASSES, REDUCED_INPUT_LENGTH,
    backward, bce_loss, forward, init_params, param_shapes,
    load_checkpoint, reduced_layers, save_checkpoint, sgd_step, table1_layers,
)

GCN_STD_FLOOR = 1e-8


def global_contrast_normalize(clip):
    """Per-clip standardization to zero mean, unit variance (guarded divide)."""
    clip = np.asarray(clip)
    x = clip.astype(np.float64)
    centered = x - x.mean()
    std = x.std()
    out = centered / max(std, GCN_STD_FLOOR)
    return out.astype(clip.dtype if clip.dtype.kind == "f" else np.float64)


def architecture(config: RunConfig):
    """Layer specs plus expected input length for the configured variant."""
    if config.reduced:
        return reduced_layers(config.drop_rate), REDUCED_INPUT_LENGTH
    return table1_layers(config.drop_rate), FULL_INPUT_LENGTH


def reduce_clip(samples, input_length: int) -> np.ndarray:
    """Decimate a full one-second clip down to the reduced input length."""
    stride = CLIP_SAMPLES // input_length
    return samples[::stride][:input_length]


@dataclass
class LoadedDataset:
    clips: np.ndarray   # [n, 1, input_length] float32, GCN applied
    labels: np.ndarray  # [n, n_classes] uint8
    ids: list           # "track:clip" strings, manifest order


def iter_raw_clips(rows):
    """Yield the raw one-second clips named by manifest rows, in row order.

    Each clip decodes only its own bytes; consecutive rows of one
    ``source_path`` share one open track.
    """
    for path, track_rows in itertools.groupby(rows, key=lambda row: row.source_path):
        with audio.WavFile(path) as track:
            for row in track_rows:
                yield track.clip(row.clip_index)


def load_dataset(rows, input_length: int) -> LoadedDataset:
    """Decode, decimate if reduced, and contrast-normalize manifest clips."""
    if not rows:
        raise ValueError("empty manifest row list")
    clips = np.empty((len(rows), 1, input_length), dtype=np.float32)
    labels = np.empty((len(rows), len(rows[0].labels)), dtype=np.uint8)
    ids = []
    for i, (row, clip) in enumerate(zip(rows, iter_raw_clips(rows))):
        if input_length != CLIP_SAMPLES:
            clip = reduce_clip(clip, input_length)
        clips[i, 0] = global_contrast_normalize(clip)
        labels[i] = row.labels
        ids.append(f"{row.track_id}:{row.clip_index}")
    return LoadedDataset(clips, labels, ids)


def check_params_match(params, specs, input_length: int) -> None:
    """Reject checkpoints whose tensors do not fit the configured architecture."""
    expected = param_shapes(specs, input_length, 1)
    got = [(w.shape, b.shape) for w, b in zip(params.weights, params.biases)]
    if got != expected:
        raise ValueError(
            f"checkpoint parameter shapes {got} do not match the configured "
            f"architecture {expected}; check the 'reduced' config flag"
        )


def predict_probs(params, specs, clips) -> np.ndarray:
    """Eval-mode network probabilities; ``forward``'s split bounds the memory."""
    preds, _ = forward(params, specs, clips, mode="eval")
    return preds


def evaluate_model(params, specs, data: LoadedDataset, threshold: float) -> EvalReport:
    probs = predict_probs(params, specs, data.clips)
    return evaluate((probs >= threshold).astype(np.uint8), data.labels)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    report: EvalReport | None


def _epoch_rng(seed: int, epoch: int, stream: int):
    return np.random.default_rng(np.random.SeedSequence([seed, epoch, stream]))


def train_model(config: RunConfig, train_data: LoadedDataset,
                test_data: LoadedDataset | None = None,
                resume_from=None, log=print) -> list[EpochStats]:
    """Seeded SGD over shuffled clips; one checkpoint per epoch.

    The shuffle order and dropout stream are derived from (seed, epoch), so
    an interrupted run resumed from its last checkpoint reproduces exactly
    the losses of an uninterrupted one. The best checkpoint by test F-micro
    is tracked as a ``best.ckpt`` symlink; that tracking restarts on resume
    (pre-resume epochs are not reconsidered). A non-finite batch loss, or a
    non-finite gradient behind a finite one, stops the run before its
    update, naming the epoch, step and clips; that epoch writes no
    checkpoint.
    """
    specs, input_length = architecture(config)
    sgd = config.sgd()
    if train_data.labels.shape[1] != NUM_CLASSES:
        raise ValueError(
            f"manifest has {train_data.labels.shape[1]} classes, network outputs {NUM_CLASSES}"
        )

    if resume_from is not None:
        params, saved_sgd, start_epoch = load_checkpoint(resume_from)
        if saved_sgd.seed != sgd.seed:
            log(f"warn resume-seed={saved_sgd.seed} config-seed={sgd.seed}")
        check_params_match(params, specs, input_length)
    else:
        params = init_params(specs, input_length, seed=sgd.seed)
        start_epoch = 0
    ckpt_dir = config.checkpoint_dir()
    ckpt_dir.mkdir(parents=True, exist_ok=True)

    n = len(train_data.clips)
    history = []
    best_f_micro = -1.0
    for epoch in range(start_epoch, sgd.epochs):
        order = _epoch_rng(sgd.seed, epoch, 0).permutation(n)
        drop_rng = _epoch_rng(sgd.seed, epoch, 1)
        total_loss = 0.0
        for start in range(0, n, sgd.batch_size):
            idx = order[start:start + sgd.batch_size]
            batch = train_data.clips[idx]
            targets = train_data.labels[idx]
            preds, cache = forward(params, specs, batch, mode="train", rng=drop_rng)
            loss, grad_pred = bce_loss(preds, targets)
            where = f"epoch {epoch + 1} step {start // sgd.batch_size + 1}"
            clips = [train_data.ids[i] for i in idx]
            if not math.isfinite(loss):
                raise FloatingPointError(
                    f"{where}: loss {loss} on clips {clips}; no checkpoint written")
            grads = backward(cache, grad_pred)
            del cache  # the filter spectra need not live through the update
            for kind, tensors in (("weight", grads.weights), ("bias", grads.biases)):
                for i, g in enumerate(tensors):
                    if not np.isfinite(g).all():  # exact: a sum can overflow on finite values
                        raise FloatingPointError(
                            f"{where}: non-finite {kind} gradient {i} behind finite loss "
                            f"{loss} on clips {clips}; no checkpoint written")
            params = sgd_step(params, grads, sgd.learning_rate)
            del grads  # nor the gradients through the next step
            total_loss += float(loss) * len(idx)
        train_loss = total_loss / n

        completed = epoch + 1
        ckpt_path = ckpt_dir / f"epoch_{completed:04d}.ckpt"
        save_checkpoint(ckpt_path, params, sgd, completed)

        report = None
        if test_data is not None and config.eval_each_epoch:
            report = evaluate_model(params, specs, test_data, config.eval_threshold)
            log(f"epoch={completed} train_loss={train_loss:.6f} "
                f"test_f_micro={report.f_micro:.6f} test_accuracy={report.hamming_accuracy:.6f}")
            if report.f_micro > best_f_micro:
                best_f_micro = report.f_micro
                _point_best(ckpt_dir, ckpt_path)
        else:
            log(f"epoch={completed} train_loss={train_loss:.6f}")
            _point_best(ckpt_dir, ckpt_path)
        history.append(EpochStats(completed, train_loss, report))
    return history


def _point_best(ckpt_dir: Path, target: Path) -> None:
    """Swap ``best.ckpt`` to ``target`` in one rename, so it is never missing."""
    tmp = ckpt_dir / "best.ckpt.tmp"
    tmp.unlink(missing_ok=True)
    os.symlink(target.name, tmp)
    os.replace(tmp, ckpt_dir / "best.ckpt")
