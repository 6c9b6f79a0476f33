import re
from pathlib import Path

import numpy as np
import pytest

from instrumentid.audio import WavFormatError
from instrumentid.config import RunConfig
from instrumentid.dataset import (
    MANIFEST_HEADER, ManifestRow, prepare_dataset, read_manifest, write_manifest,
    find_activation_file, track_instrument_presence,
)
from instrumentid.labeling import parse_activation_csv

from helpers import encode_wav, write_corpus


def make_config(tmp_path, **overrides):
    cfg = RunConfig(
        audio_dir=tmp_path / "audio",
        activation_dir=tmp_path / "activations",
        output_dir=tmp_path / "out",
        min_songs=2,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def always_on(freq):
    return (freq, [(0.0, 3.0)])


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        classes = ["piano", "voice", "OTHER"]
        rows = [
            ManifestRow("trackA", 0, "/x/trackA.wav", np.array([1, 0, 1], dtype=np.uint8)),
            ManifestRow("trackA", 1, "/x/trackA.wav", np.array([0, 0, 0], dtype=np.uint8)),
        ]
        path = tmp_path / "m.tsv"
        write_manifest(path, rows, classes)
        back, back_classes = read_manifest(path)
        assert back_classes == classes
        assert [(r.track_id, r.clip_index, r.source_path) for r in back] == \
            [("trackA", 0, "/x/trackA.wav"), ("trackA", 1, "/x/trackA.wav")]
        np.testing.assert_array_equal(back[0].labels, rows[0].labels)

    def test_missing_classes_header_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(f"{MANIFEST_HEADER}\ntrackA\t0\t/x.wav\t1\n")
        with pytest.raises(ValueError, match="classes"):
            read_manifest(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(f"{MANIFEST_HEADER}\n# classes: a,b\ntrackA\t0\t/x.wav\t1\n")
        with pytest.raises(ValueError, match="columns"):
            read_manifest(path)

    def test_negative_clip_index_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        write_manifest(path, [ManifestRow("t", -3, "t.wav", np.array([1, 0], dtype=np.uint8))],
                       ["a", "b"])
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: negative clip index -3")):
            read_manifest(path)

    @pytest.mark.parametrize("row, error", [
        ("trk\tx1\tt.wav\t1\t0", "clip index 'x1' is not an integer"),
        ("trk\t1\tt.wav\ty\t0", "label bits must be 0/1, got 'y'"),
    ], ids=["clip-index", "label-bit"])
    def test_non_integer_field_names_the_line(self, tmp_path, row, error):
        path = tmp_path / "m.tsv"
        path.write_text(f"{MANIFEST_HEADER}\n# classes: a,b\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: {error}")):
            read_manifest(path)

    def test_v1_manifest_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("# instrument clip manifest v1\n# classes: a,b\n"
                        "# columns: track_id\tclip_index\tsource_path\tbyte_offset\t"
                        "label:a\tlabel:b\ntrackA\t0\t/x.wav\t44\t1\t0\n")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*re-run prepare-dataset"):
            read_manifest(path)


class TestPrepare:
    def test_two_track_corpus_one_per_side(self, tmp_path):
        write_corpus(tmp_path, {
            "alpha": {"piano": always_on(440.0)},
            "beta": {"voice": always_on(330.0)},
        })
        cfg = make_config(tmp_path, min_songs=1, test_fraction=0.5)
        train_path, test_path = prepare_dataset(cfg, log=lambda *_: None)
        train_rows, classes = read_manifest(train_path)
        test_rows, _ = read_manifest(test_path)
        assert classes == ["piano", "voice", "OTHER"]
        assert {r.track_id for r in train_rows} != {r.track_id for r in test_rows}
        assert len(train_rows) == len(test_rows) == 3  # 3 s per track
        for rows, active in ((train_rows, None),):
            for r in rows:
                assert r.labels.sum() == 1

    def test_clip_counts_match_floor_of_duration(self, tmp_path):
        durations = [1.0, 2.5, 3.9, 4.0]
        tracks = {f"t{i}": {"piano": (440.0, [(0.0, d)])} for i, d in enumerate(durations)}
        # write each track with its own duration
        for i, d in enumerate(durations):
            write_corpus(tmp_path, {f"t{i}": tracks[f"t{i}"]}, duration=d)
        cfg = make_config(tmp_path, min_songs=1, test_fraction=0.25)
        train_path, test_path = prepare_dataset(cfg, log=lambda *_: None)
        train_rows, _ = read_manifest(train_path)
        test_rows, _ = read_manifest(test_path)
        assert len(train_rows) + len(test_rows) == sum(int(d) for d in durations)

    def test_wrong_sample_rate_rejected(self, tmp_path):
        write_corpus(tmp_path, {"alpha": {"piano": always_on(440.0)}})
        wav = tmp_path / "audio" / "alpha.wav"
        wav.write_bytes(encode_wav(np.zeros(3 * 48_000), sample_rate=48_000))
        cfg = make_config(tmp_path, min_songs=1, test_fraction=0.4)
        with pytest.raises(ValueError, match=re.escape(str(wav)) + ": sample rate 48000"):
            prepare_dataset(cfg, log=lambda *_: None)

    def test_silent_track_keeps_all_zero_labels(self, tmp_path):
        write_corpus(tmp_path, {
            "loud1": {"piano": always_on(440.0)},
            "loud2": {"piano": always_on(441.0)},
            "loud3": {"piano": always_on(442.0)},
            "quiet": {"piano": (440.0, [])},  # never active
        })
        cfg = make_config(tmp_path, min_songs=2, test_fraction=0.25)
        train_path, test_path = prepare_dataset(cfg, log=lambda *_: None)
        rows = read_manifest(train_path)[0] + read_manifest(test_path)[0]
        quiet_rows = [r for r in rows if r.track_id == "quiet"]
        assert len(quiet_rows) == 3
        assert all(not r.labels.any() for r in quiet_rows)

    def test_missing_activation_file_skips_track(self, tmp_path):
        write_corpus(tmp_path, {
            "good": {"piano": always_on(440.0)},
            "bad": {"piano": always_on(441.0)},
        })
        # a .csv file under the track's bare name is not read as its activations
        act = tmp_path / "activations"
        (act / "bad_ACTIVATION_CONF.lab").rename(act / "bad.csv")
        messages = []
        cfg = make_config(tmp_path, min_songs=1, test_fraction=0.5)
        train_path, test_path = prepare_dataset(cfg, log=messages.append)
        assert "skip track=bad reason=missing-activation-file" in messages
        rows = read_manifest(train_path)[0] + read_manifest(test_path)[0]
        assert {r.track_id for r in rows} == {"good"}

    def test_malformed_wav_error_names_the_file(self, tmp_path):
        write_corpus(tmp_path, {"alpha": {"piano": always_on(440.0)}})
        wav = tmp_path / "audio" / "alpha.wav"
        wav.write_bytes(wav.read_bytes()[:-100])
        cfg = make_config(tmp_path, min_songs=1, test_fraction=0.4)
        with pytest.raises(ValueError, match=re.escape(str(wav)) + ".*declares"):
            prepare_dataset(cfg, log=lambda *_: None)

    def test_empty_wav_error_names_the_file(self, tmp_path):
        write_corpus(tmp_path, {"alpha": {"piano": always_on(440.0)}})
        wav = tmp_path / "audio" / "alpha.wav"
        wav.write_bytes(b"")
        cfg = make_config(tmp_path, min_songs=1, test_fraction=0.4)
        with pytest.raises(WavFormatError, match=re.escape(str(wav)) + ": .*empty"):
            prepare_dataset(cfg, log=lambda *_: None)

    def test_reads_wav_headers_not_whole_files(self, tmp_path, monkeypatch):
        write_corpus(tmp_path, {f"t{i}": {"piano": always_on(440.0 + i)} for i in range(3)})
        read_bytes, read = Path.read_bytes, []

        def spy(path):
            read.append(path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", spy)
        train_path, test_path = prepare_dataset(make_config(tmp_path, min_songs=1),
                                                log=lambda *_: None)
        assert [p for p in read if p.suffix == ".wav"] == []
        assert len(read_manifest(train_path)[0]) + len(read_manifest(test_path)[0]) == 9

    def test_rare_instruments_collapse_to_other(self, tmp_path):
        tracks = {f"main{i}": {"piano": always_on(440.0 + i)} for i in range(3)}
        tracks["odd"] = {"zither": always_on(220.0), "piano": always_on(445.0)}
        write_corpus(tmp_path, tracks)
        cfg = make_config(tmp_path, min_songs=3, test_fraction=0.25)
        prepare_dataset(cfg, log=lambda *_: None)
        rows = read_manifest(cfg.train_manifest())[0] + read_manifest(cfg.test_manifest())[0]
        classes = read_manifest(cfg.train_manifest())[1]
        assert classes == ["piano", "OTHER"]
        odd = [r for r in rows if r.track_id == "odd"]
        assert odd and all(r.labels.tolist() == [1, 1] for r in odd)

    def test_deterministic_manifests(self, tmp_path):
        tracks = {f"t{i}": {"piano": always_on(440.0 + i), "voice": (330.0, [(0.0, 1.5)])}
                  for i in range(5)}
        write_corpus(tmp_path, tracks)
        cfg1 = make_config(tmp_path, min_songs=1, output_dir=tmp_path / "out1")
        cfg2 = make_config(tmp_path, min_songs=1, output_dir=tmp_path / "out2")
        prepare_dataset(cfg1, log=lambda *_: None)
        prepare_dataset(cfg2, log=lambda *_: None)
        for name in ("train_manifest.tsv", "test_manifest.tsv",
                     "taxonomy_resolved.tsv", "split_train.txt", "split_test.txt"):
            assert (tmp_path / "out1" / name).read_bytes() == \
                (tmp_path / "out2" / name).read_bytes(), name

    def test_each_track_smoothed_once(self, tmp_path, monkeypatch):
        # presence and all three clip labels of a track read one smoothing
        from instrumentid import dataset, labeling
        write_corpus(tmp_path, {f"t{i}": {"piano": always_on(440.0 + i)} for i in range(4)})
        smooth, calls = labeling.moving_average, []

        def spy(*args, **kwargs):
            calls.append(args)
            return smooth(*args, **kwargs)

        monkeypatch.setattr(labeling, "moving_average", spy)
        monkeypatch.setattr(dataset, "moving_average", spy, raising=False)
        prepare_dataset(make_config(tmp_path, min_songs=1), log=lambda *_: None)
        assert len(calls) == 4


def test_find_activation_file_variants(tmp_path):
    (tmp_path / "a_ACTIVATION_CONF.lab").write_text("x")
    (tmp_path / "b.csv").write_text("x")
    (tmp_path / "c.lab").write_text("x")
    assert find_activation_file(tmp_path, "a").name == "a_ACTIVATION_CONF.lab"
    # MedleyDB's name is the only one read
    assert find_activation_file(tmp_path, "b") is None
    assert find_activation_file(tmp_path, "c") is None
    assert find_activation_file(tmp_path, "d") is None


@pytest.mark.parametrize("spike, present", [(1.0, {"ghost", "steady"}), (0.9, {"steady"})])
def test_track_instrument_presence_uses_smoothed_peak(spike, present):
    # the 0.1 s window averages two 50 ms steps, so a one-step spike of 1.0
    # smooths to 0.5, which still reaches the threshold; a spike of 0.9
    # reaches it, but its smoothed peak of 0.45 does not
    text = "time,ghost,steady\n" + "\n".join(
        f"{i * 0.05:.2f},{spike if i == 10 else 0.0},0.9" for i in range(40))
    table = parse_activation_csv(text, "trk")
    assert table.smoothed.max(axis=0).tolist() == pytest.approx([spike / 2, 0.9])
    assert track_instrument_presence(table) == present
