import gc
import os
from pathlib import Path

import numpy as np
import pytest

from instrumentid import audio, cli
from instrumentid.audio import parse_wav_header
from instrumentid.cli import _manifest_features, main
from instrumentid.config import load_config
from instrumentid.dataset import read_manifest
from instrumentid.nn import load_checkpoint, save_checkpoint

from helpers import descriptors_on, eleven_class_corpus, write_config, write_corpus


@pytest.fixture
def workspace(tmp_path):
    eleven_class_corpus(tmp_path)
    cfg = write_config(
        tmp_path / "run.cfg",
        audio_dir="audio", activation_dir="activations", output_dir="out",
        min_songs=1, test_fraction=0.34, split_seed=1,
        reduced="true", epochs=2, batch_size=8, learning_rate=0.1,
        train_seed=0, drop_rate=0.5,
    )
    return tmp_path, cfg


def test_full_pipeline(workspace, capsys):
    tmp_path, cfg = workspace
    out = tmp_path / "out"

    assert main(["prepare-dataset", "--config", str(cfg)]) == 0
    train_rows, classes = read_manifest(out / "train_manifest.tsv")
    test_rows, _ = read_manifest(out / "test_manifest.tsv")
    assert len(classes) == 11
    assert classes[-1] == "OTHER"
    assert len(train_rows) + len(test_rows) == 18
    assert (out / "taxonomy_resolved.tsv").exists()
    assert (out / "split_train.txt").exists()

    assert main(["train", "--config", str(cfg)]) == 0
    assert (out / "checkpoints" / "epoch_0002.ckpt").exists()
    assert (out / "checkpoints" / "best.ckpt").exists()
    log_text = (out / "train_log.txt").read_text()
    assert "epoch=1 train_loss=" in log_text
    assert "test_f_micro=" in log_text

    assert main(["evaluate", "--config", str(cfg)]) == 0
    report = (out / "cnn_report.txt").read_text()
    assert "accuracy=" in report and "f_macro=" in report
    row = (out / "cnn_row.csv").read_text().splitlines()
    values = [float(v) for v in row[1].split(",")]
    assert len(values) == 6
    assert all(0.0 <= v <= 1.0 for v in values)

    for kind, extra in (("majority", []),
                        ("logistic", ["--logistic-epochs", "50"]),
                        ("forest", ["--trees", "10"])):
        assert main(["baseline", "--config", str(cfg), "--kind", kind] + extra) == 0
        assert (out / f"baseline_{kind}_report.txt").exists()
        assert (out / f"baseline_{kind}_row.csv").exists()
    assert (out / "features_train.npz").exists()
    assert (out / "features_test.npz").exists()

    assert main(["analyze-filters", "--config", str(cfg)]) == 0
    for name in ("spectra.csv", "spectra.pgm", "filters_smoothed.csv"):
        assert (out / "filters" / name).exists()
    capsys.readouterr()


def test_extract_features_caches(workspace, capsys):
    tmp_path, cfg = workspace
    out = tmp_path / "out"
    assert main(["prepare-dataset", "--config", str(cfg)]) == 0
    assert main(["extract-features", "--config", str(cfg)]) == 0
    first = (out / "features_train.npz").read_bytes()
    # a second run reuses the cache and must not rewrite it differently
    assert main(["extract-features", "--config", str(cfg)]) == 0
    assert (out / "features_train.npz").read_bytes() == first
    capsys.readouterr()


@pytest.fixture
def prepared(workspace, capsys):
    """The workspace after prepare-dataset: its config and manifest rows."""
    _, cfg = workspace
    assert main(["prepare-dataset", "--config", str(cfg)]) == 0
    capsys.readouterr()
    config = load_config(cfg)
    train_rows, _ = read_manifest(config.train_manifest())
    test_rows, _ = read_manifest(config.test_manifest())
    return config, train_rows, test_rows


def _spy_clip_features(monkeypatch):
    calls = []
    clip_features = cli.clip_features

    def spy(clip, cfg):
        calls.append(cfg)
        return clip_features(clip, cfg)

    monkeypatch.setattr(cli, "clip_features", spy)
    return calls


def test_feature_cache_recomputes_for_changed_mfcc_config(prepared):
    config, rows, _ = prepared
    logs = []
    assert _manifest_features(config, "train", rows, logs.append).shape == (len(rows), 819)
    config.mfcc_num_coeffs = 12
    assert _manifest_features(config, "train", rows, logs.append).shape == (len(rows), 702)
    assert any(line.startswith("warn stale-feature-cache") for line in logs)


def test_feature_cache_recomputes_for_other_rows_of_same_count(prepared):
    config, rows, test_rows = prepared
    logs = []
    _manifest_features(config, "train", rows, logs.append)
    changed = rows[:-1] + test_rows[:1]
    matrix = _manifest_features(config, "train", changed, logs.append)
    assert any(line.startswith("warn stale-feature-cache") for line in logs)
    want = _manifest_features(config, "test", test_rows, logs.append)[0]
    np.testing.assert_array_equal(matrix[-1], want)


def test_feature_cache_recomputes_for_audio_rewritten_in_place(prepared):
    # same path, same size, new samples: only the file's timestamp changes
    config, rows, _ = prepared
    logs = []
    before = _manifest_features(config, "train", rows, logs.append)
    path = Path(rows[0].source_path)
    data = bytearray(path.read_bytes())
    _, frames, _, channels, bits, offset = parse_wav_header(bytes(data))
    assert bits == 16
    samples = np.frombuffer(data, "<i2", frames * channels, offset)
    data[offset:offset + samples.nbytes] = (samples // 2).tobytes()
    stat = path.stat()
    path.write_bytes(data)
    # a filesystem with a coarse clock may stamp the rewrite with the old time
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
    assert path.stat().st_size == stat.st_size

    after = _manifest_features(config, "train", rows, logs.append)
    assert [line for line in logs if line.startswith("warn")] == [
        f"warn stale-feature-cache path={config.output_dir / 'features_train.npz'}"]
    rewritten = np.array([row.source_path == rows[0].source_path for row in rows])
    assert (after[rewritten] != before[rewritten]).any(axis=1).all()
    np.testing.assert_array_equal(after[~rewritten], before[~rewritten])
    (config.output_dir / "features_train.npz").unlink()
    np.testing.assert_array_equal(_manifest_features(config, "train", rows, logs.append), after)


def test_fresh_and_cached_features_are_bit_identical(prepared, monkeypatch):
    config, rows, _ = prepared
    fresh = _manifest_features(config, "train", rows, lambda line: None)
    calls = _spy_clip_features(monkeypatch)
    cached = _manifest_features(config, "train", rows, lambda line: None)
    assert calls == []
    assert fresh.dtype == cached.dtype == np.float64
    np.testing.assert_array_equal(fresh, cached)


def test_baseline_reuses_extracted_features(workspace, monkeypatch, capsys):
    tmp_path, cfg = workspace
    assert main(["prepare-dataset", "--config", str(cfg)]) == 0
    assert main(["extract-features", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "features_train.npz").exists()
    calls = _spy_clip_features(monkeypatch)
    assert main(["baseline", "--config", str(cfg), "--kind", "logistic",
                 "--logistic-epochs", "5"]) == 0
    assert calls == []
    capsys.readouterr()


@pytest.mark.parametrize("corrupt", [
    lambda data: b"",
    lambda data: b"not an archive",
    lambda data: data[:len(data) // 2],
], ids=["empty", "garbage", "truncated"])
def test_unreadable_feature_cache_is_recomputed(prepared, corrupt):
    config, rows, _ = prepared
    logs = []
    fresh = _manifest_features(config, "train", rows, logs.append)
    cache = config.output_dir / "features_train.npz"
    cache.write_bytes(corrupt(cache.read_bytes()))
    open_at_warning = []

    def log(line):
        logs.append(line)
        if line.startswith("warn unreadable-feature-cache"):
            open_at_warning.append(descriptors_on(cache))

    gc.disable()  # so a leaked file is still open when counted, not closed by a collection
    try:
        again = _manifest_features(config, "train", rows, log)
    finally:
        gc.enable()
    assert open_at_warning == [0]
    np.testing.assert_array_equal(again, fresh)
    with np.load(cache, allow_pickle=False) as archive:
        np.testing.assert_array_equal(archive["features"], fresh.astype(np.float32))


@pytest.mark.parametrize("kind", ["logistic", "forest"])
def test_baseline_negative_seed_fails_cleanly(workspace, prepared, kind, capsys):
    _, cfg = workspace
    assert main(["baseline", "--config", str(cfg), "--kind", kind, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("kind, flags, message", [
    ("forest", ["--trees", "0"], "need at least one tree, got 0"),
    ("forest", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("logistic", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("logistic", ["--logistic-epochs", "0"], "epochs must be >= 1, got 0"),
    ("logistic", ["--logistic-lr", "nan"], "learning rate must be finite and > 0, got nan"),
])
def test_bad_baseline_settings_fail_before_any_feature_cache(workspace, prepared, kind, flags,
                                                             message, capsys):
    tmp_path, cfg = workspace
    assert main(["baseline", "--config", str(cfg), "--kind", kind] + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list((tmp_path / "out").glob("features_*"))


def test_train_without_per_epoch_eval_never_reads_the_test_audio(workspace, prepared, capsys):
    tmp_path, _ = workspace
    config, _, test_rows = prepared
    cfg = write_config(
        tmp_path / "no_eval.cfg",
        audio_dir="audio", activation_dir="activations", output_dir="out",
        min_songs=1, test_fraction=0.34, split_seed=1,
        reduced="true", epochs=1, batch_size=8, learning_rate=0.1,
        train_seed=0, drop_rate=0.5, eval_each_epoch="false",
    )
    Path(test_rows[0].source_path).unlink()
    assert main(["train", "--config", str(cfg)]) == 0
    assert "test_f_micro=" not in (tmp_path / "out" / "train_log.txt").read_text()
    best = config.checkpoint_dir() / "best.ckpt"
    assert os.readlink(best) == "epoch_0001.ckpt"
    capsys.readouterr()


def test_evaluate_missing_checkpoint_fails_cleanly(workspace, capsys):
    tmp_path, cfg = workspace
    assert main(["prepare-dataset", "--config", str(cfg)]) == 0
    assert main(["evaluate", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["extract-features"], ["baseline", "--kind", "majority"]])
def test_manifest_with_no_clips_is_named_before_any_cache(tmp_path, command, capsys):
    # one track: the split puts it in train and writes a test manifest with no rows
    write_corpus(tmp_path, {"t0": {"c00": (100.0, [(0.0, 3.0)])}})
    cfg = write_config(tmp_path / "run.cfg", audio_dir="audio", activation_dir="activations",
                       output_dir="out", min_songs=1, test_fraction=0.34, split_seed=1)
    assert main(["prepare-dataset", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main([command[0], "--config", str(cfg), *command[1:]]) == 1
    assert capsys.readouterr().err.endswith("test_manifest.tsv: manifest has no clips\n")
    assert not list((tmp_path / "out").glob("features_*.npz"))


def _full_config(tmp_path, **overrides):
    """The workspace's run under the Table-1 net, which a reduced checkpoint does not fit."""
    return write_config(
        tmp_path / "full.cfg",
        audio_dir="audio", activation_dir="activations", output_dir="out",
        min_songs=1, test_fraction=0.34, split_seed=1,
        reduced="false", epochs=3, batch_size=8, learning_rate=0.1,
        train_seed=0, drop_rate=0.5, **overrides,
    )


def test_checkpoint_of_another_architecture_is_named(workspace, capsys):
    tmp_path, cfg = workspace
    assert main(["prepare-dataset", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    full = _full_config(tmp_path, eval_each_epoch="false")
    checkpoints = load_config(full).checkpoint_dir()
    capsys.readouterr()
    assert main(["evaluate", "--config", str(full)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {checkpoints / 'best.ckpt'}: checkpoint parameter shapes")
    assert "check the 'reduced' config flag" in err
    resume = checkpoints / "epoch_0002.ckpt"
    assert main(["train", "--config", str(full), "--resume", str(resume)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {resume}: checkpoint parameter shapes")


def _spy_clip_decodes(monkeypatch):
    decoded = []
    clip = audio.WavFile.clip
    monkeypatch.setattr(audio.WavFile, "clip",
                        lambda self, *args: decoded.append(args) or clip(self, *args))
    return decoded


def test_resume_refuses_a_checkpoint_before_decoding_any_clip(workspace, capsys, monkeypatch):
    tmp_path, cfg = workspace
    assert main(["prepare-dataset", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    full = _full_config(tmp_path)  # evaluates each epoch, so test clips would decode too
    decoded = _spy_clip_decodes(monkeypatch)
    resume = load_config(full).checkpoint_dir() / "epoch_0001.ckpt"
    capsys.readouterr()
    assert main(["train", "--config", str(full), "--resume", str(resume)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {resume}: checkpoint parameter shapes")
    assert decoded == []


def test_resume_refuses_a_negative_epoch_before_decoding_any_clip(workspace, capsys,
                                                                  monkeypatch):
    tmp_path, cfg = workspace
    assert main(["prepare-dataset", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    params, sgd, _ = load_checkpoint(load_config(cfg).checkpoint_dir() / "epoch_0002.ckpt")
    resume = tmp_path / "negative.ckpt"
    save_checkpoint(resume, params, sgd, epoch=-3)
    decoded = _spy_clip_decodes(monkeypatch)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--resume", str(resume)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {resume}: stored 'epoch' -3 is outside")
    assert decoded == []


def test_unknown_config_key_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    assert main(["prepare-dataset", "--config", str(cfg)]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_resume_flag_continues_training(workspace, capsys):
    tmp_path, cfg = workspace
    out = tmp_path / "out"
    assert main(["prepare-dataset", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    ckpt = out / "checkpoints" / "epoch_0002.ckpt"
    cfg3 = write_config(
        tmp_path / "run3.cfg",
        audio_dir="audio", activation_dir="activations", output_dir="out",
        min_songs=1, test_fraction=0.34, split_seed=1,
        reduced="true", epochs=3, batch_size=8, learning_rate=0.1,
        train_seed=0, drop_rate=0.5,
    )
    assert main(["train", "--config", str(cfg3), "--resume", str(ckpt)]) == 0
    assert (out / "checkpoints" / "epoch_0003.ckpt").exists()
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_diverging_training_fails_cleanly(workspace, capsys):
    tmp_path, _ = workspace
    cfg = write_config(
        tmp_path / "diverge.cfg",
        audio_dir="audio", activation_dir="activations", output_dir="out",
        min_songs=1, test_fraction=0.34, split_seed=1,
        reduced="true", epochs=2, batch_size=8, learning_rate=1e30,
        train_seed=0, drop_rate=0.5,
    )
    assert main(["prepare-dataset", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "error: epoch 1 step " in err and "no checkpoint written" in err
    assert not list((tmp_path / "out" / "checkpoints").glob("epoch_*"))
