import re
import struct

import numpy as np
import pytest

from instrumentid.audio import CLIP_SAMPLES, WavFile, WavFormatError, parse_wav_header
from instrumentid.config import RunConfig
from instrumentid.dataset import ManifestRow, prepare_dataset, read_manifest
from instrumentid.training import iter_raw_clips

from helpers import decode_wav, encode_wav, encode_int16_wav, write_corpus


def test_16bit_scaling_law():
    data = encode_int16_wav([0, 16384, -32768])
    sample_rate, samples = decode_wav(data)
    assert sample_rate == 44100
    np.testing.assert_array_equal(samples, np.array([0.0, 0.5, -1.0], dtype=np.float32))


def test_stereo_downmix_is_mean():
    frames = np.array([[1.0, 0.0], [0.5, -0.5], [-1.0, -1.0]])
    _, samples = decode_wav(encode_wav(frames, bits=16, channels=2))
    np.testing.assert_allclose(samples, [0.5, 0.0, -1.0], atol=1e-4)


def _mean_downmix(data, bits, channels, format_code):
    """The mean-of-channels decode, computed independently of parse_wav."""
    raw = data[data.index(b"data") + 8:]
    raw = raw[:len(raw) - len(raw) % (channels * bits // 8)]
    if format_code == 3:
        values = np.clip(np.frombuffer(raw, dtype="<f4").astype(np.float64), -1.0, 1.0)
    elif bits == 24:
        b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).astype(np.int64)
        ints = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        values = np.where(ints >= 1 << 23, ints - (1 << 24), ints) / 2.0 ** 23
    else:
        values = np.frombuffer(raw, dtype=f"<i{bits // 8}").astype(np.float64) / 2.0 ** (bits - 1)
    return values.reshape(-1, channels).mean(axis=1).astype(np.float32)


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("bits,format_code", [(16, 1), (24, 1), (32, 1), (32, 3)])
def test_downmix_bit_identical_to_channel_mean(bits, format_code, channels):
    rng = np.random.default_rng(bits + format_code + channels)
    samples = rng.uniform(-1.0, 1.0, size=(501, channels))
    samples[:4] = [[-1.0] * channels, [1.0] * channels, [0.0] * channels, [-1.0, 1.0][:channels]]
    data = encode_wav(samples, bits=bits, channels=channels, format_code=format_code)
    _, got = decode_wav(data)
    want = _mean_downmix(data, bits, channels, format_code)
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()
    assert parse_wav_header(data)[:2] == (44100, len(got))


def test_non_finite_float_samples_rejected():
    data = encode_wav(np.array([0.0, np.nan, 0.5]), bits=32, format_code=3)
    with pytest.raises(WavFormatError, match="non-finite"):
        decode_wav(data)


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
    _, got = decode_wav(encode_wav(samples, bits=bits))
    np.testing.assert_allclose(got, samples, atol=2.0 ** -(bits - 2))


def test_float32_decode():
    samples = np.array([0.25, -0.75, 1.0, -1.0])
    _, got = decode_wav(encode_wav(samples, bits=32, format_code=3))
    np.testing.assert_allclose(got, samples, atol=1e-7)


def test_16bit_round_trip_exact():
    rng = np.random.default_rng(99)
    ints = rng.integers(-2 ** 15, 2 ** 15, size=1000).astype(np.int16)
    _, got = decode_wav(encode_int16_wav(ints))
    back = np.round(got.astype(np.float64) * 2 ** 15).astype(np.int16)
    np.testing.assert_array_equal(back, ints)


def test_odd_sized_unknown_chunk_is_skipped():
    samples = np.array([0.5, -0.5])
    data = bytearray(encode_wav(samples, bits=16))
    extra = b"LIST" + struct.pack("<I", 3) + b"abc\x00"  # odd payload + pad
    insert_at = 12
    data[insert_at:insert_at] = extra
    struct.pack_into("<I", data, 4, len(data) - 8)
    _, got = decode_wav(bytes(data))
    np.testing.assert_allclose(got, samples, atol=1e-4)


def _without_chunk(data, cid):
    """``data`` with chunk ``cid`` cut out and the RIFF size fixed."""
    data = bytearray(data)
    idx = data.index(cid)
    (size,) = struct.unpack_from("<I", data, idx + 4)
    del data[idx:idx + 8 + size + (size & 1)]
    struct.pack_into("<I", data, 4, len(data) - 8)
    return bytes(data)


def _with_codec(data, tag):
    data = bytearray(data)
    struct.pack_into("<H", data, data.index(b"fmt ") + 8, tag)
    return bytes(data)


class TestWavFile:
    """The seeking reader: each clip against the whole-data oracle on the same bytes."""

    def _check_clips(self, path, data, bits, channels, format_code=1):
        want = _mean_downmix(data, bits, channels, format_code)
        track = WavFile(path)
        assert track.clips == len(want) // CLIP_SAMPLES >= 2
        for i in reversed(range(track.clips)):  # any order: each clip is its own range
            got = track.clip(i)
            assert got.tobytes() == want[i * CLIP_SAMPLES:(i + 1) * CLIP_SAMPLES].tobytes()

    def test_list_chunk_after_data(self, tmp_path):
        frames = np.random.default_rng(5).uniform(-1.0, 1.0, size=(2 * CLIP_SAMPLES + 99, 2))
        data = encode_wav(frames, bits=16, channels=2)
        tagged = bytearray(data) + b"LIST" + struct.pack("<I", 9) + b"INFOIART\x00\x00"
        struct.pack_into("<I", tagged, 4, len(tagged) - 8)
        path = tmp_path / "tagged.wav"
        path.write_bytes(bytes(tagged))
        self._check_clips(path, data, 16, 2)  # the oracle reads the untagged bytes

    def test_24bit_stereo_clip_offsets(self, tmp_path):
        # 6-byte frames: every clip starts inside the 3-byte sample packing's period
        frames = np.random.default_rng(6).uniform(-1.0, 1.0, size=(2 * CLIP_SAMPLES + 37, 2))
        data = encode_wav(frames, bits=24, channels=2)
        path = tmp_path / "deep.wav"
        path.write_bytes(data)
        self._check_clips(path, data, 24, 2)

    def test_file_truncated_mid_clip_names_the_file(self, tmp_path):
        data = encode_wav(np.zeros(3 * CLIP_SAMPLES), bits=16)
        path = tmp_path / "cut.wav"
        path.write_bytes(data[:data.index(b"data") + 8 + 3 * CLIP_SAMPLES])  # 1.5 clips
        row = ManifestRow("cut", 0, str(path), np.zeros(2, dtype=np.uint8))
        with pytest.raises(WavFormatError, match=re.escape(str(path)) + ": .*declares"):
            list(iter_raw_clips([row]))

    @pytest.mark.parametrize("damage,message", [
        (lambda d: b"", "empty"),
        (lambda d: d[:-100], "declares"),
        (lambda d: _without_chunk(d, b"fmt "), "missing fmt"),
        (lambda d: _without_chunk(d, b"data"), "missing data"),
        (lambda d: _with_codec(d, 0x55), "unsupported codec"),
        (lambda d: encode_wav(np.zeros(CLIP_SAMPLES), sample_rate=48_000), "sample rate 48000"),
    ])
    def test_open_errors_name_the_file(self, tmp_path, damage, message):
        path = tmp_path / "bad.wav"
        path.write_bytes(damage(encode_wav(np.zeros(2 * CLIP_SAMPLES), bits=16)))
        with pytest.raises(WavFormatError, match=re.escape(str(path)) + ": .*" + message):
            WavFile(path)

    def test_non_finite_sample_fails_only_its_clip(self, tmp_path):
        samples = np.zeros(2 * CLIP_SAMPLES + 500)
        samples[CLIP_SAMPLES + 7] = np.nan
        samples[-1] = np.inf  # in the part second after the last clip, which is never read
        path = tmp_path / "nan.wav"
        path.write_bytes(encode_wav(samples, bits=32, format_code=3))
        track = WavFile(path)
        np.testing.assert_array_equal(track.clip(0), np.zeros(CLIP_SAMPLES, np.float32))
        with pytest.raises(WavFormatError, match=re.escape(str(path)) + ": non-finite"):
            track.clip(1)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_index_outside_the_track_names_the_clip(self, tmp_path, index):
        path = tmp_path / "two.wav"
        path.write_bytes(encode_wav(np.zeros(2 * CLIP_SAMPLES + 10), bits=16))
        with pytest.raises(ValueError, match=re.escape(str(path)) + f": clip two:{index} "):
            WavFile(path).clip(index)


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

