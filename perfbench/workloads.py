"""The three benchmark workloads, driven through the program's public API.

Each workload is one closed-loop iteration from one caller: every phase
starts when the previous one returns, in the order a user's CLI run goes
through them. An iteration returns its phase timings and a fingerprint (the
fixed-seed loss trajectory and F-micro scores) and records every output check
in a :class:`Checker`.

- ``corpus_features``: few long tracks, so many clips share each decode and
  each activation table. prepare, full-length load, MFCC features for every
  clip, logistic / forest / majority baselines, evaluate. No network.
- ``reduced_train``: many short tracks of a few clips each. prepare,
  decimated load, several epochs of ``train_model`` on the reduced net with
  per-epoch eval and checkpoints, evaluate, ``analyze_filters``. Tiny
  kernels: time goes to per-clip dispatch, training, checkpoints, metrics.
- ``table1_step``: the Table-1 (production) net on full-length clips: one SGD
  step at batch 2 through ``train_model``, then an eval forward. Time goes
  to the conv and pool kernels.
"""

import math
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from instrumentid import analysis, baselines, dataset, features, metrics, training
from instrumentid.audio import CLIP_SAMPLES
from instrumentid.config import load_config
from instrumentid.nn import checkpoint

from inputs import NUM_CLASSES, Sizes
from reference import wall_clock

# Baseline settings: the CLI defaults, except far fewer forest trees (the
# default 200 trees x 11 labels takes minutes at this corpus size).
LOGISTIC_LR = 0.5
LOGISTIC_EPOCHS = 500
BASELINE_SEED = 0


class Checker:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return bool(ok)


@dataclass
class Iteration:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    reference: list = field(default_factory=list)   # CPU seconds of each reference pass
    phases: dict = field(default_factory=dict)      # phase -> seconds
    counts: dict = field(default_factory=dict)      # clips per phase etc.
    steps: list = field(default_factory=list)       # SGD step seconds
    fingerprint: dict = field(default_factory=dict)


class Phases:
    """Accumulates wall time per named phase of one iteration."""

    def __init__(self, it: Iteration):
        self.it = it

    def run(self, name, fn, *args, **kwargs):
        start = wall_clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.it.phases[name] = self.it.phases.get(name, 0.0) + wall_clock() - start


def _quiet(_line):
    pass


def loop_report(pred, truth) -> dict:
    """Independent multi-label scores by explicit per-cell loops."""
    n, labels = len(pred), len(pred[0])
    per = [[0, 0, 0, 0] for _ in range(labels)]  # tp, fp, fn, tn
    exact = 0
    for i in range(n):
        row_ok = True
        for j in range(labels):
            p, t = int(pred[i][j]), int(truth[i][j])
            per[j][0 if p and t else 1 if p else 2 if t else 3] += 1
            row_ok = row_ok and p == t
        exact += row_ok
    tp = sum(c[0] for c in per)
    fp = sum(c[1] for c in per)
    fn = sum(c[2] for c in per)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1s = [2 * c[0] / (2 * c[0] + c[1] + c[2]) if 2 * c[0] + c[1] + c[2] else 0.0 for c in per]
    return {
        "per_label": per,
        "hamming_accuracy": sum(c[0] + c[3] for c in per) / (n * labels),
        "exact_match": exact / n,
        "f_micro": 2 * prec * rec / (prec + rec) if prec + rec else 0.0,
        "f_macro": sum(f1s) / labels,
    }


def check_report(check: Checker, report, pred, truth, what: str) -> None:
    ref = loop_report(pred, truth)
    ok = np.asarray(report.per_label).tolist() == ref["per_label"] and all(
        math.isclose(getattr(report, k), ref[k], rel_tol=1e-12, abs_tol=1e-12)
        for k in ("hamming_accuracy", "exact_match", "f_micro", "f_macro"))
    check.check(ok, f"{what}: metrics.evaluate disagrees with the loop count")


def check_probabilities(check: Checker, probs, rows: int, what: str) -> None:
    probs = np.asarray(probs)
    check.check(probs.shape == (rows, NUM_CLASSES) and np.isfinite(probs).all()
                and probs.min() >= 0.0 and probs.max() <= 1.0,
                f"{what}: predictions not finite in [0, 1] with shape ({rows}, {NUM_CLASSES})")


@dataclass
class Context:
    """What one run's iterations share: the generated inputs and settings."""

    sizes: Sizes
    seed: int
    clips_per_track: dict
    config_path: Path

    def fresh_config(self, out_dir: Path):
        cfg = load_config(self.config_path)
        if out_dir.exists():
            shutil.rmtree(out_dir)
        cfg.output_dir = out_dir
        return cfg


def prepare_and_load(ctx: Context, cfg, input_length: int, ph: Phases, check: Checker):
    """prepare -> read manifests -> load_dataset for both sides, all checked."""
    it = ph.it
    train_path, test_path = ph.run("prepare", dataset.prepare_dataset, cfg, log=_quiet)
    train_rows, classes = ph.run("read_manifest", dataset.read_manifest, train_path)
    test_rows, test_classes = ph.run("read_manifest", dataset.read_manifest, test_path)
    rows = train_rows + test_rows
    check.check(classes == test_classes and len(classes) == NUM_CLASSES,
                f"manifest classes {classes} / {test_classes} are not one list of {NUM_CLASSES}")
    per_track = Counter(r.track_id for r in rows)
    check.check(dict(per_track) == ctx.clips_per_track,
                f"manifest clips per track {dict(per_track)} != generated {ctx.clips_per_track}")
    check.check(not {r.track_id for r in train_rows} & {r.track_id for r in test_rows},
                "a track appears on both sides of the split")
    check.check(train_rows and test_rows, "empty train or test manifest")
    it.counts["clips"] = len(rows)
    it.counts["train_clips"] = len(train_rows)
    it.counts["test_clips"] = len(test_rows)

    train = ph.run("load", training.load_dataset, train_rows, input_length)
    test = ph.run("load", training.load_dataset, test_rows, input_length)
    for data, side_rows, side in ((train, train_rows, "train"), (test, test_rows, "test")):
        check.check(data.clips.shape == (len(side_rows), 1, input_length)
                    and np.isfinite(data.clips).all(),
                    f"{side} clips not finite with shape ({len(side_rows)}, 1, {input_length})")
        check.check(np.array_equal(data.labels, np.stack([r.labels for r in side_rows])),
                    f"{side} clip labels differ from the manifest")
    return train_rows, test_rows, train, test


def corpus_features(ctx: Context, out_dir: Path, check: Checker, it: Iteration) -> None:
    ph = Phases(it)
    cfg = ctx.fresh_config(out_dir)
    train_rows, test_rows, train, test = prepare_and_load(ctx, cfg, CLIP_SAMPLES, ph, check)
    y_train, y_test = train.labels, test.labels
    del train, test  # the baseline commands never hold the clip tensor

    mcfg = cfg.mfcc()
    x = {}
    for side, rows in (("train", train_rows), ("test", test_rows)):
        x[side] = ph.run("features", lambda r: np.stack(
            [features.clip_features(c, mcfg) for c in training.iter_raw_clips(r)]), rows)
        check.check(x[side].shape == (len(rows), mcfg.feature_dim) and np.isfinite(x[side]).all(),
                    f"{side} feature rows not finite with {mcfg.feature_dim} dims")

    model = ph.run("logistic_train", baselines.logistic_train, x["train"], y_train,
                   learning_rate=LOGISTIC_LR, epochs=LOGISTIC_EPOCHS, seed=BASELINE_SEED)
    logit = ph.run("logistic_predict", baselines.logistic_predict, model, x["test"])
    forest_cfg = baselines.ForestConfig(trees=ctx.sizes.forest_trees, seed=BASELINE_SEED)
    forest = ph.run("forest_train", baselines.forest_train, x["train"], y_train, forest_cfg)
    votes = ph.run("forest_predict", baselines.forest_predict, forest, x["test"])
    fixed = ph.run("majority", baselines.majority_baseline, y_train)
    it.counts["forest_trees"] = ctx.sizes.forest_trees * y_train.shape[1]
    it.counts["forest_rows"] = len(y_train)
    it.counts["feature_dims"] = mcfg.feature_dim

    scored = {"logistic": logit, "forest": votes,
              "majority": np.tile(fixed, (len(y_test), 1)).astype(np.float64)}
    for name, probs in scored.items():
        check_probabilities(check, probs, len(y_test), name)
        pred = (np.asarray(probs) >= 0.5).astype(np.uint8)
        report = ph.run("evaluate", metrics.evaluate, pred, y_test)
        check_report(check, report, pred, y_test, name)
        it.fingerprint[f"f_micro.{name}"] = report.f_micro


def network(ctx: Context, out_dir: Path, check: Checker, it: Iteration) -> None:
    """reduced_train and table1_step: prepare, load, train, evaluate."""
    ph = Phases(it)
    cfg = ctx.fresh_config(out_dir)
    specs, input_length = training.architecture(cfg)
    train_rows, test_rows, train, test = prepare_and_load(ctx, cfg, input_length, ph, check)

    # The reduced net scores the test side after every epoch; the Table-1
    # step is too slow for that and gets one eval forward below instead.
    per_epoch_eval = test if cfg.reduced else None
    history = ph.run("train", training.train_model, cfg, train, per_epoch_eval, log=_quiet)
    losses = [h.train_loss for h in history]
    check.check(len(losses) == cfg.epochs and all(math.isfinite(v) for v in losses),
                f"loss trajectory {losses} is not {cfg.epochs} finite values")
    it.fingerprint["losses"] = losses
    it.fingerprint["epoch_f_micro"] = [h.report.f_micro for h in history if h.report]
    it.counts["train_steps_clips"] = cfg.epochs * len(train_rows)

    params, _, _ = ph.run("load_checkpoint", checkpoint.load_checkpoint,
                              cfg.checkpoint_dir() / "best.ckpt")
    training.check_params_match(params, specs, input_length)
    probs = ph.run("eval", training.predict_probs, params, specs, test.clips)
    check_probabilities(check, probs, len(test_rows), "network")
    pred = (probs >= cfg.eval_threshold).astype(np.uint8)
    report = ph.run("evaluate", metrics.evaluate, pred, test.labels)
    check_report(check, report, pred, test.labels, "network")
    it.fingerprint["f_micro"] = report.f_micro

    if cfg.reduced:
        spectra = ph.run("analyze", analysis.analyze_filters, params, out_dir / "filters")
        bins = [s.dominant_bin for s in spectra]
        check.check(len(spectra) == params.weights[0].shape[0] and bins == sorted(bins)
                    and all(0.0 <= s.rescaled.min() and s.rescaled.max() <= 1.0 for s in spectra),
                    "filter spectra not one sorted [0, 1] row per first-layer filter")


WORKLOADS = {
    "corpus_features": corpus_features,
    "reduced_train": network,
    "table1_step": network,
}
