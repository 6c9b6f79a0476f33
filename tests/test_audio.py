import struct

import numpy as np
import pytest

from instrumentid.audio import CLIP_SAMPLES, WavFormatError, decode_wav, parse_wav
from instrumentid.config import RunConfig
from instrumentid.dataset import prepare_dataset, read_manifest
from instrumentid.training import iter_raw_clips

from helpers import encode_wav, encode_int16_wav, write_corpus


def test_16bit_scaling_law():
    data = encode_int16_wav([0, 16384, -32768])
    buf = decode_wav(data)
    assert buf.sample_rate == 44100
    np.testing.assert_array_equal(buf.samples, np.array([0.0, 0.5, -1.0], dtype=np.float32))


def test_stereo_downmix_is_mean():
    frames = np.array([[1.0, 0.0], [0.5, -0.5], [-1.0, -1.0]])
    buf = decode_wav(encode_wav(frames, bits=16, channels=2))
    np.testing.assert_allclose(buf.samples, [0.5, 0.0, -1.0], atol=1e-4)


def test_data_chunk_longer_than_file_rejected():
    data = bytearray(encode_int16_wav([0, 1, 2]))
    # find the data chunk and inflate its declared size
    idx = data.index(b"data")
    struct.pack_into("<I", data, idx + 4, 10_000)
    with pytest.raises(WavFormatError, match="declares"):
        decode_wav(bytes(data))


def test_missing_fmt_chunk_rejected():
    raw = np.zeros(4, dtype="<i2").tobytes()
    body = b"data" + struct.pack("<I", len(raw)) + raw
    data = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    with pytest.raises(WavFormatError, match="missing fmt"):
        decode_wav(data)


def test_missing_data_chunk_rejected():
    fmt = struct.pack("<HHIIHH", 1, 1, 44100, 88200, 2, 16)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    data = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    with pytest.raises(WavFormatError, match="missing data"):
        decode_wav(data)


def test_non_pcm_codec_rejected():
    samples = np.zeros(4)
    data = bytearray(encode_wav(samples, bits=16))
    idx = data.index(b"fmt ")
    struct.pack_into("<H", data, idx + 8, 0x55)  # MP3 format tag
    with pytest.raises(WavFormatError, match="unsupported codec"):
        decode_wav(bytes(data))


def test_not_riff_rejected():
    with pytest.raises(WavFormatError, match="RIFF"):
        decode_wav(b"OggS" + b"\x00" * 40)


@pytest.mark.parametrize("bits", [16, 24, 32])
def test_integer_depths_decode(bits):
    rng = np.random.default_rng(bits)
    samples = rng.uniform(-0.9, 0.9, size=256)
    buf = decode_wav(encode_wav(samples, bits=bits))
    np.testing.assert_allclose(buf.samples, samples, atol=2.0 ** -(bits - 2))


def test_float32_decode():
    samples = np.array([0.25, -0.75, 1.0, -1.0])
    buf = decode_wav(encode_wav(samples, bits=32, format_code=3))
    np.testing.assert_allclose(buf.samples, samples, atol=1e-7)


def test_16bit_round_trip_exact():
    rng = np.random.default_rng(99)
    ints = rng.integers(-2 ** 15, 2 ** 15, size=1000).astype(np.int16)
    buf = decode_wav(encode_int16_wav(ints))
    back = np.round(buf.samples.astype(np.float64) * 2 ** 15).astype(np.int16)
    np.testing.assert_array_equal(back, ints)


def test_odd_sized_unknown_chunk_is_skipped():
    samples = np.array([0.5, -0.5])
    data = bytearray(encode_wav(samples, bits=16))
    extra = b"LIST" + struct.pack("<I", 3) + b"abc\x00"  # odd payload + pad
    insert_at = 12
    data[insert_at:insert_at] = extra
    struct.pack_into("<I", data, 4, len(data) - 8)
    buf = decode_wav(bytes(data))
    np.testing.assert_allclose(buf.samples, samples, atol=1e-4)


class TestSliceClips:
    """Clip slicing as prepare_dataset does it: whole seconds, remainder dropped."""

    def _rows(self, tmp_path, n, track_id="trk"):
        duration = n / CLIP_SAMPLES
        write_corpus(tmp_path, {track_id: {"piano": (440.0, [(0.0, duration)])}},
                     duration=duration)
        cfg = RunConfig(audio_dir=tmp_path / "audio", activation_dir=tmp_path / "activations",
                        output_dir=tmp_path / "out", min_songs=1, test_fraction=0.4)
        prepare_dataset(cfg, log=lambda *_: None)
        rows = read_manifest(cfg.train_manifest())[0] + read_manifest(cfg.test_manifest())[0]
        return sorted(rows, key=lambda r: r.clip_index)

    def test_remainder_discarded(self, tmp_path):
        rows = self._rows(tmp_path, 100_000)
        assert len(rows) == 2
        assert all(len(c) == CLIP_SAMPLES for c in iter_raw_clips(rows))

    def test_exactly_one_second(self, tmp_path):
        assert len(self._rows(tmp_path, 44100)) == 1

    def test_one_sample_short(self, tmp_path):
        assert self._rows(tmp_path, 44099) == []

    def test_provenance_fields(self, tmp_path):
        rows = self._rows(tmp_path, 90_000, track_id="song-1")
        assert [(r.track_id, r.clip_index) for r in rows] == [("song-1", 0), ("song-1", 1)]


def test_parse_wav_layout_reports_data_offset():
    samples = np.zeros(10)
    data = encode_wav(samples, bits=16)
    _, layout = parse_wav(data)
    assert layout.block_align == 2
    assert layout.frame_count == 10
    payload = data[layout.data_offset:layout.data_offset + 2 * layout.frame_count]
    assert payload == np.zeros(10, dtype="<i2").tobytes()
