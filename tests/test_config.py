import re
from dataclasses import fields
from pathlib import Path

import pytest

from instrumentid.config import RunConfig, load_config, DEFAULT_TAXONOMY
from instrumentid.features import MfccConfig
from instrumentid.nn import SgdConfig

from helpers import write_config


def test_defaults_are_valid():
    cfg = RunConfig()
    cfg.validate(require_inputs=False)
    assert cfg.taxonomy_file == DEFAULT_TAXONOMY
    assert cfg.sgd().batch_size == 16
    assert cfg.mfcc().mel_bands == 40
    assert cfg.sgd() == SgdConfig()
    assert cfg.mfcc() == MfccConfig()


def test_parse_overrides_and_relative_paths(tmp_path):
    path = write_config(
        tmp_path / "run.cfg",
        audio_dir="audio", output_dir="out",
        test_fraction=0.25, split_seed=7,
        learning_rate=0.05, batch_size=4, epochs=3,
        reduced="true", drop_rate=0.25,
    )
    cfg = load_config(path)
    assert cfg.audio_dir == tmp_path / "audio"
    assert cfg.output_dir == tmp_path / "out"
    assert cfg.test_fraction == 0.25
    assert cfg.reduced is True
    assert cfg.sgd().learning_rate == 0.05
    assert cfg.sgd().epochs == 3


def test_every_field_set_from_file(tmp_path):
    values = {
        "audio_dir": "a", "activation_dir": "b", "taxonomy_file": tmp_path / "tax.tsv",
        "output_dir": "o", "test_fraction": 0.3, "split_seed": 5, "min_songs": 2,
        "learning_rate": 0.02, "batch_size": 3, "epochs": 4, "train_seed": 9,
        "drop_rate": 0.1, "reduced": "yes", "eval_threshold": 0.4, "eval_each_epoch": "off",
    }
    assert set(values) == {f.name for f in fields(RunConfig)}
    cfg = load_config(write_config(tmp_path / "run.cfg", **values))
    assert cfg == RunConfig(
        audio_dir=tmp_path / "a", activation_dir=tmp_path / "b",
        taxonomy_file=tmp_path / "tax.tsv", output_dir=tmp_path / "o",
        test_fraction=0.3, split_seed=5, min_songs=2, learning_rate=0.02, batch_size=3,
        epochs=4, train_seed=9, drop_rate=0.1, reduced=True, eval_threshold=0.4,
        eval_each_epoch=False,
    )
    for f in fields(RunConfig):
        assert isinstance(getattr(cfg, f.name), f.type), f.name


def test_comments_and_blank_lines_ignored(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# a comment\n\nepochs = 2  # trailing comment\n")
    assert load_config(p).epochs == 2


@pytest.mark.parametrize("key", [
    "learning_rte",
    # the labeling rule and the MFCC front end are constants, no longer keys
    "activation_window", "activation_threshold", "mfcc_frame_size", "mfcc_hop",
    "mfcc_mel_bands", "mfcc_num_coeffs",
])
def test_unknown_key_rejected(tmp_path, key):
    p = tmp_path / "run.cfg"
    p.write_text(f"epochs = 2\n{key} = 0.1\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:2: unknown config key {key!r}")):
        load_config(p)


def test_key_given_twice_names_both_lines(tmp_path):
    # the later line used to win without a word
    p = tmp_path / "run.cfg"
    p.write_text("epochs = 3\n# more\nepochs = 5\n")
    with pytest.raises(ValueError,
                       match=re.escape(f"{p}:3: config key 'epochs' already set at {p}:1")):
        load_config(p)


def test_bad_boolean_rejected(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("reduced = maybe\n")
    with pytest.raises(ValueError, match="boolean"):
        load_config(p)


@pytest.mark.parametrize("line, expected", [
    ("epochs = ten", "'epochs': expected an integer, got 'ten'"),
    ("learning_rate = fast", "'learning_rate': expected a number, got 'fast'"),
    ("reduced = maybe", "'reduced': expected a boolean, got 'maybe'"),
], ids=["int", "float", "bool"])
def test_bad_value_names_file_line_and_key(tmp_path, line, expected):
    p = tmp_path / "run.cfg"
    p.write_text(f"# header\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}:2: config key {expected}")):
        load_config(p)


def test_validate_rejects_negative_split_seed():
    with pytest.raises(ValueError, match="split_seed must be >= 0, got -1"):
        RunConfig(split_seed=-1).validate(require_inputs=False)


def test_validate_checks_ranges():
    cfg = RunConfig(test_fraction=1.5)
    with pytest.raises(ValueError, match="test_fraction"):
        cfg.validate(require_inputs=False)
    cfg = RunConfig(drop_rate=1.0)
    with pytest.raises(ValueError, match="drop_rate"):
        cfg.validate(require_inputs=False)


@pytest.mark.parametrize("key, value", [
    # a NaN rate would pass until a later loss is NaN, blamed on a batch's clips
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
])
def test_validate_rejects_out_of_range_or_nan(key, value):
    with pytest.raises(ValueError, match=key):
        RunConfig(**{key: value}).validate(require_inputs=False)


def test_validate_checks_paths(tmp_path):
    cfg = RunConfig(audio_dir=tmp_path / "nope")
    with pytest.raises(FileNotFoundError, match="audio_dir"):
        cfg.validate()


def test_default_taxonomy_ships_with_package():
    assert DEFAULT_TAXONOMY.exists()
    text = DEFAULT_TAXONOMY.read_text()
    assert "male singer\tvoice" in text


def test_readme_config_block_loads_and_names_every_key(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Write a flat `key = value` config file", 1)[1].split("```")[1]
    p = tmp_path / "run.cfg"
    p.write_text(block)
    load_config(p).validate(require_inputs=False)
    missing = [f.name for f in fields(RunConfig) if not re.search(rf"\b{f.name}\b", readme)]
    assert missing == []
