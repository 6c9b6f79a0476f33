import numpy as np
import pytest

from instrumentid import cli
from instrumentid.cli import _manifest_features, main
from instrumentid.config import load_config
from instrumentid.dataset import read_manifest

from helpers import eleven_class_corpus, write_config


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
    again = _manifest_features(config, "train", rows, logs.append)
    assert any(line.startswith("warn unreadable-feature-cache") for line in logs)
    np.testing.assert_array_equal(again, fresh)
    with np.load(cache, allow_pickle=False) as archive:
        np.testing.assert_array_equal(archive["features"], fresh.astype(np.float32))


def test_evaluate_missing_checkpoint_fails_cleanly(workspace, capsys):
    tmp_path, cfg = workspace
    assert main(["prepare-dataset", "--config", str(cfg)]) == 0
    assert main(["evaluate", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


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
