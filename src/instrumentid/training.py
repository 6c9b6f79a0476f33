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
    """Per-clip standardization to zero mean, unit variance (guarded divide).

    The clip is centred once: the std is ``np.std``'s own arithmetic on the
    centred values, and the quotient goes into the squares' buffer."""
    clip = np.asarray(clip)
    centered = clip.astype(np.float64)  # a copy, centred in place
    centered -= centered.mean()
    squares = np.multiply(centered, centered)
    std = np.sqrt(np.add.reduce(squares, axis=None) / centered.size)
    out = np.divide(centered, max(std, GCN_STD_FLOOR), out=squares)
    return out.astype(clip.dtype if clip.dtype.kind == "f" else np.float64)


def architecture(config: RunConfig):
    """Layer specs plus expected input length for the configured variant."""
    if config.reduced:
        return reduced_layers(config.drop_rate), REDUCED_INPUT_LENGTH
    return table1_layers(config.drop_rate), FULL_INPUT_LENGTH


@dataclass
class LoadedDataset:
    clips: np.ndarray   # [n, 1, input_length] float32, GCN applied
    labels: np.ndarray  # [n, n_classes] uint8
    ids: list           # "track:clip" strings, manifest order


def iter_raw_clips(rows, length: int = CLIP_SAMPLES):
    """Yield the raw one-second clips named by manifest rows, in row order.

    Each clip decodes only its own ``length`` picked frames (see
    ``audio.WavFile.clip``); consecutive rows of one ``source_path`` share
    one open track.
    """
    for path, track_rows in itertools.groupby(rows, key=lambda row: row.source_path):
        with audio.WavFile(path) as track:
            for row in track_rows:
                yield track.clip(row.clip_index, length)


def load_dataset(rows, input_length: int) -> LoadedDataset:
    """Decode ``input_length`` samples of each manifest clip and contrast-normalize them."""
    if not rows:
        raise ValueError("empty manifest row list")
    clips = np.empty((len(rows), 1, input_length), dtype=np.float32)
    labels = np.empty((len(rows), len(rows[0].labels)), dtype=np.uint8)
    ids = []
    for i, (row, clip) in enumerate(zip(rows, iter_raw_clips(rows, input_length))):
        clips[i, 0] = global_contrast_normalize(clip)
        labels[i] = row.labels
        ids.append(f"{row.track_id}:{row.clip_index}")
    return LoadedDataset(clips, labels, ids)


def check_params_match(params, specs, input_length: int, path=None) -> None:
    """Reject checkpoints whose tensors do not fit the configured
    architecture, naming the checkpoint ``path`` when given."""
    expected = param_shapes(specs, input_length, 1)
    got = [(w.shape, b.shape) for w, b in zip(params.weights, params.biases)]
    if got != expected:
        where = "" if path is None else f"{path}: "
        raise ValueError(
            f"{where}checkpoint parameter shapes {got} do not match the configured "
            f"architecture {expected}; check the 'reduced' config flag"
        )


def predict_probs(params, specs, clips) -> np.ndarray:
    """Eval-mode network probabilities; ``forward``'s clip groups bound the memory."""
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


def load_resume(config: RunConfig, path, log=print):
    """``(params, completed epochs)`` of checkpoint ``path``, for
    :func:`train_model` to resume from; a checkpoint that does not fit the
    configured network, or that has no epoch left to train, is refused,
    naming ``path``."""
    params, saved_sgd, epoch = load_checkpoint(path)
    if saved_sgd.seed != config.train_seed:
        log(f"warn resume-seed={saved_sgd.seed} config-seed={config.train_seed}")
    specs, input_length = architecture(config)
    check_params_match(params, specs, input_length, path)
    if epoch >= config.epochs:
        raise ValueError(f"{path}: epoch {epoch} is done and 'epochs' is {config.epochs}; "
                         "nothing is left to train")
    return params, epoch


def train_model(config: RunConfig, train_data: LoadedDataset,
                test_data: LoadedDataset | None = None,
                resume=None, log=print) -> list[EpochStats]:
    """Seeded SGD over shuffled clips; one checkpoint per epoch.

    The shuffle order and dropout stream are derived from (seed, epoch), so
    an interrupted run resumed from its last checkpoint (``resume``, from
    :func:`load_resume`) reproduces exactly the losses of an uninterrupted
    one. Each epoch is scored on ``test_data`` if and only if it is given,
    and the best checkpoint by test F-micro is tracked as a ``best.ckpt``
    symlink; without test data it follows the latest epoch. The tracking
    restarts on resume (pre-resume epochs are not reconsidered).

    Each step is ``forward``, the loss, and ``backward`` with the learning
    rate, which runs every layer once over the batch and checks and steps
    each gradient in place as it is handed over (an FFT conv's weights
    chunk by chunk), so the ``sgd_step`` that ends the step finds nothing
    left to apply. A non-finite batch loss, or a non-finite gradient behind
    a finite one, stops the run, naming the epoch, step and clips, and that
    epoch writes no checkpoint. A non-finite loss stops it before any
    update, and a non-finite gradient before its own step, but after all
    handed over before it, the layers nearer the output among them, was
    stepped in memory, in the parameters being trained (a resumed run's too).
    """
    specs, input_length = architecture(config)
    sgd = config.sgd()
    if train_data.labels.shape[1] != NUM_CLASSES:
        raise ValueError(
            f"manifest has {train_data.labels.shape[1]} classes, network outputs {NUM_CLASSES}"
        )

    if resume is not None:
        params, start_epoch = resume
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
            try:
                grads = backward(cache, grad_pred, sgd.learning_rate)
            except FloatingPointError as err:
                raise FloatingPointError(f"{where}: {err} behind finite loss {loss} on clips "
                                         f"{clips}; no checkpoint written") from None
            del cache  # spent: backward freed its arrays as it went
            params = sgd_step(params, grads, sgd.learning_rate)  # every slot None: stepped in backward
            total_loss += float(loss) * len(idx)
        train_loss = total_loss / n

        completed = epoch + 1
        ckpt_path = ckpt_dir / f"epoch_{completed:04d}.ckpt"
        save_checkpoint(ckpt_path, params, sgd, completed)

        report = None
        if test_data is not None:
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
