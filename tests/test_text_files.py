"""Every text file the program reads is UTF-8, and a byte that does not
decode names the file and the byte's offset."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import instrumentid
from instrumentid.cli import main
from instrumentid.config import RunConfig, load_config
from instrumentid.dataset import (
    MANIFEST_HEADER, ManifestRow, prepare_dataset, read_manifest, write_manifest,
)
from instrumentid.labeling import load_category_map, read_text

from helpers import eleven_class_corpus, write_config, write_corpus


def _spoil(path, offset):
    """Overwrite the byte at ``offset`` of ``path`` with 0xff, which no
    UTF-8 text holds."""
    data = bytearray(path.read_bytes())
    data[offset] = 0xff
    path.write_bytes(bytes(data))


def _message(path, offset):
    return f"{path}: not UTF-8 text: byte 0xff at offset {offset}"


def test_read_text_decodes_utf8(tmp_path):
    path = tmp_path / "names.txt"
    path.write_bytes("flûte\tflute\n".encode("utf-8"))
    assert read_text(path) == "flûte\tflute\n"


def test_manifest_is_written_as_read(tmp_path):
    path = tmp_path / "m.tsv"
    rows = [ManifestRow("björk", 0, "/x/björk.wav", np.array([1, 0], dtype=np.uint8))]
    write_manifest(path, rows, ["flûte", "OTHER"])
    assert "flûte".encode("utf-8") in path.read_bytes()
    back, classes = read_manifest(path)
    assert classes == ["flûte", "OTHER"] and back[0].source_path == "/x/björk.wav"


def test_config(tmp_path):
    path = write_config(tmp_path / "run.cfg", epochs=2, batch_size=8)
    _spoil(path, 12)
    with pytest.raises(ValueError) as err:
        load_config(path)
    assert str(err.value) == _message(path, 12)


def test_manifest(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text(f"{MANIFEST_HEADER}\n# classes: a,b\ntrackA\t0\t/x.wav\t1\t0\n")
    _spoil(path, len(MANIFEST_HEADER) + 5)
    with pytest.raises(ValueError) as err:
        read_manifest(path)
    assert str(err.value) == _message(path, len(MANIFEST_HEADER) + 5)


def test_taxonomy(tmp_path):
    path = tmp_path / "categories.tsv"
    path.write_text("# raw name -> category\nPiano\tpiano\n")
    _spoil(path, 25)
    with pytest.raises(ValueError) as err:
        load_category_map(path)
    assert str(err.value) == _message(path, 25)


def test_activation_csv(tmp_path):
    write_corpus(tmp_path, {"a": {"piano": (220.0, [(0.0, 3.0)])},
                            "b": {"piano": (330.0, [(0.0, 3.0)])}})
    path = tmp_path / "activations" / "b_ACTIVATION_CONF.lab"
    _spoil(path, 40)
    config = RunConfig(audio_dir=tmp_path / "audio", activation_dir=tmp_path / "activations",
                       output_dir=tmp_path / "out", min_songs=1)
    with pytest.raises(ValueError) as err:
        prepare_dataset(config, log=lambda *_: None)
    assert str(err.value) == _message(path, 40)


def test_cli_exits_1_naming_the_file(tmp_path, capsys):
    path = write_config(tmp_path / "run.cfg", epochs=2)
    _spoil(path, 3)
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {_message(path, 3)}\n"
    assert "Traceback" not in err


def test_every_text_artifact_is_utf8_under_an_ascii_locale(tmp_path):
    # Under the C locale with UTF-8 mode off, Python's default text encoding
    # is ASCII. A class named flügelhorn reaches the resolved taxonomy, the
    # manifests, the report and the console; every command still exits 0,
    # and every text file it writes is UTF-8.
    eleven_class_corpus(tmp_path)
    (tmp_path / "taxonomy.tsv").write_text("c00\tflügelhorn\n", encoding="utf-8")
    config = write_config(
        tmp_path / "run.cfg", audio_dir="audio", activation_dir="activations",
        output_dir="out", taxonomy_file="taxonomy.tsv", min_songs=1, test_fraction=0.34,
        split_seed=1, reduced="true", epochs=1, batch_size=8, train_seed=0)
    src = Path(instrumentid.__file__).parents[1]
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": str(src)}
    stdout = {}
    for command in ("prepare-dataset", "train", "evaluate", "analyze-filters"):
        done = subprocess.run([sys.executable, "-m", "instrumentid.cli", command,
                               "--config", str(config)],
                              cwd=tmp_path, env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, (command, done.stderr)
        stdout[command] = done.stdout
    assert b"label[fl\\xfcgelhorn]" in stdout["evaluate"]  # escaped, as stderr escapes
    out = tmp_path / "out"
    for name in ("taxonomy_resolved.tsv", "train_manifest.tsv", "cnn_report.txt"):
        assert "flügelhorn".encode("utf-8") in (out / name).read_bytes(), name
    written = [p for p in out.rglob("*") if p.suffix in (".tsv", ".txt", ".csv")]
    assert len(written) == 10
    for path in written:
        read_text(path)
