"""Command-line entry points for the full pipeline.

Subcommands: prepare-dataset, extract-features, train, evaluate, baseline,
analyze-filters. Every subcommand takes --config pointing at a flat
key=value file; outputs land under the configured output directory.
"""

import argparse
import hashlib
import inspect
import sys
from pathlib import Path

import numpy as np

from .analysis import analyze_filters
from .baselines import (
    ForestConfig, check_logistic_settings, forest_predict, forest_train,
    logistic_predict, logistic_train, majority_baseline,
)
from .config import RunConfig, load_config
from .dataset import prepare_dataset, read_manifest
from .features import FEATURE_CACHE_VERSION, clip_features
from .metrics import evaluate, format_report, format_report_row
from .nn.checkpoint import load_checkpoint, write_archive
from .training import (
    architecture, check_params_match, evaluate_model, iter_raw_clips,
    load_dataset, load_resume, train_model,
)


def _write_report(config: RunConfig, stem: str, report, classes, log) -> None:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = format_report(report, classes)
    (out / f"{stem}_report.txt").write_text(text, encoding="utf-8")
    (out / f"{stem}_row.csv").write_text(format_report_row(report), encoding="utf-8")
    for line in text.splitlines():
        if not line.startswith("#"):
            log(line)


def _manifest_features(config: RunConfig, split: str, rows, log):
    """Per-clip feature matrix for one manifest, cached in ``features_{split}.npz``.

    The archive holds ``key``, the sha256 of the cache version, the MFCC
    config, each row's clip in order and each source file's size and
    modification time, and ``features``, float32
    ``[clips, dims]``. A missing, unreadable or stale cache is recomputed and
    replaced. The result is always float32-rounded, so the baselines see the
    same features with or without a cache.
    """
    cfg = config.mfcc()
    digest = hashlib.sha256(f"{FEATURE_CACHE_VERSION}\n{cfg!r}\n".encode())
    for row in rows:
        digest.update(f"{row.source_path}\t{row.clip_index}\n".encode())
    for path in dict.fromkeys(row.source_path for row in rows):  # audio rewritten in place
        stat = Path(path).stat()
        digest.update(f"{path}\t{stat.st_size}\t{stat.st_mtime_ns}\n".encode())
    key = digest.hexdigest()
    cache = Path(config.output_dir) / f"features_{split}.npz"
    if cache.exists():
        try:
            with open(cache, "rb") as fh, np.load(fh, allow_pickle=False) as archive:
                cached_key, matrix = str(archive["key"]), archive["features"]
        except Exception as err:  # any file that does not load is rebuilt
            log(f"warn unreadable-feature-cache path={cache} error={err!r}")
        else:
            if cached_key == key:
                return matrix.astype(np.float64)
            log(f"warn stale-feature-cache path={cache}")
    matrix = np.stack([clip_features(clip, cfg) for clip in iter_raw_clips(rows)])
    matrix = matrix.astype(np.float32)
    write_archive(cache, key=np.array(key), features=matrix)
    log(f"features split={split} clips={len(rows)} dims={matrix.shape[1]} cache={cache}")
    return matrix.astype(np.float64)


def _manifest_clips(manifest):
    """``(rows, classes)`` of a manifest that must hold clips."""
    rows, classes = read_manifest(manifest)
    if not rows:
        raise ValueError(f"{manifest}: manifest has no clips")
    return rows, classes


def _test_rows(config: RunConfig, classes, read=read_manifest):
    """Rows of the test manifest as ``read`` gives them, whose class list
    must equal ``classes``."""
    rows, test_classes = read(config.test_manifest())
    if test_classes != classes:
        raise ValueError("train/test manifests disagree on the class list")
    return rows


def cmd_prepare_dataset(config: RunConfig, args, log) -> None:
    prepare_dataset(config, log=log)


def cmd_extract_features(config: RunConfig, args, log) -> None:
    # both manifests are checked before either cache is written
    splits = {"train": _manifest_clips(config.train_manifest())[0],
              "test": _manifest_clips(config.test_manifest())[0]}
    for split, rows in splits.items():
        _manifest_features(config, split, rows, log)


def cmd_train(config: RunConfig, args, log) -> None:
    train_rows, classes = _manifest_clips(config.train_manifest())
    log_path = Path(config.output_dir) / "train_log.txt"

    def tee(line):
        log(line)
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    # a checkpoint that cannot resume is refused before any clip is decoded
    start = None if args.resume is None else load_resume(config, args.resume, tee)
    _, input_length = architecture(config)
    train_data = load_dataset(train_rows, input_length)
    test_data = None
    if config.eval_each_epoch and config.test_manifest().exists():
        test_rows = _test_rows(config, classes)
        if test_rows:
            test_data = load_dataset(test_rows, input_length)
    train_model(config, train_data, test_data, resume=start, log=tee)


def cmd_evaluate(config: RunConfig, args, log) -> None:
    ckpt = config.checkpoint_dir() / "best.ckpt"
    params, _, epoch = load_checkpoint(ckpt)
    specs, input_length = architecture(config)
    check_params_match(params, specs, input_length, ckpt)
    rows, classes = _manifest_clips(config.test_manifest())
    data = load_dataset(rows, input_length)
    report = evaluate_model(params, specs, data, config.eval_threshold)
    log(f"evaluate checkpoint={ckpt} epoch={epoch} clips={len(rows)}")
    _write_report(config, "cnn", report, classes, log)


def cmd_baseline(config: RunConfig, args, log) -> None:
    train_rows, classes = _manifest_clips(config.train_manifest())
    test_rows = _test_rows(config, classes, _manifest_clips)
    y_train = np.stack([r.labels for r in train_rows])
    y_test = np.stack([r.labels for r in test_rows])

    if args.kind == "majority":
        predicted = np.tile(majority_baseline(y_train), (len(y_test), 1))
    else:
        # settings fail before any clip is decoded or cache written
        if args.kind == "logistic":
            check_logistic_settings(args.logistic_lr, args.logistic_epochs, args.seed)
        else:
            forest_config = ForestConfig(trees=args.trees, seed=args.seed)
        x_train = _manifest_features(config, "train", train_rows, log)
        x_test = _manifest_features(config, "test", test_rows, log)
        if args.kind == "logistic":
            model = logistic_train(x_train, y_train, learning_rate=args.logistic_lr,
                                   epochs=args.logistic_epochs, seed=args.seed)
            scores = logistic_predict(model, x_test)
        else:
            scores = forest_predict(forest_train(x_train, y_train, forest_config), x_test)
        predicted = (scores >= 0.5).astype(np.uint8)

    report = evaluate(predicted, y_test)
    log(f"baseline kind={args.kind} train_clips={len(y_train)} test_clips={len(y_test)}")
    _write_report(config, f"baseline_{args.kind}", report, classes, log)


def cmd_analyze_filters(config: RunConfig, args, log) -> None:
    ckpt = config.checkpoint_dir() / "best.ckpt"
    params, _, _ = load_checkpoint(ckpt)
    out_dir = Path(config.output_dir) / "filters"
    spectra = analyze_filters(params, out_dir)
    log(f"analyze-filters checkpoint={ckpt} filters={len(spectra)} out={out_dir}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="instrumentid",
        description="Instrument recognition on raw audio: dataset prep, CNN "
                    "training, baselines, evaluation, filter analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to key=value config file")
        p.set_defaults(run=run)
        return p

    with_config("prepare-dataset", cmd_prepare_dataset,
                "build taxonomy, split tracks, write clip manifests")
    with_config("extract-features", cmd_extract_features,
                "compute and cache MFCC Gaussian features")

    p = with_config("train", cmd_train, "train the CNN on the prepared manifests")
    p.add_argument("--resume", help="checkpoint to continue from")

    with_config("evaluate", cmd_evaluate,
                "score best.ckpt on the test manifest into cnn_report.txt and cnn_row.csv")

    p = with_config("baseline", cmd_baseline, "train and score a shallow baseline")
    p.add_argument("--kind", required=True, choices=("logistic", "forest", "majority"))
    p.add_argument("--trees", type=int, default=ForestConfig.trees, help="forest size")
    logistic = inspect.signature(logistic_train).parameters
    p.add_argument("--logistic-lr", type=float, default=logistic["learning_rate"].default)
    p.add_argument("--logistic-epochs", type=int, default=logistic["epochs"].default)
    p.add_argument("--seed", type=int, default=0)

    with_config("analyze-filters", cmd_analyze_filters,
                "emit sorted first-layer filter spectra of best.ckpt")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a console that cannot show a name (a class, a path) escapes it, as stderr does
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        config = load_config(args.config)
        if args.run is not cmd_prepare_dataset:  # which checks its own inputs
            config.validate(require_inputs=False)
        args.run(config, args, print)
        return 0
    except (ValueError, FloatingPointError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
