import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import instrumentid.audio
from instrumentid.audio import (
    CLIP_SAMPLES, WavFile, WavFormatError, parse_wav, parse_wav_header,
)
from instrumentid.config import RunConfig
from instrumentid.dataset import ManifestRow, prepare_dataset, read_manifest
from instrumentid.nn import REDUCED_INPUT_LENGTH
from instrumentid.training import iter_raw_clips

from helpers import (decode_wav, descriptors_on, encode_wav, encode_int16_wav, traced_peak,
                     write_corpus)


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
    if format_code == 3:  # past +-1: each channel is clipped before the sum
        samples[4:6] = np.array([[1.5, -3.0], [-1e30, 1e30]])[:, :channels]
    data = encode_wav(samples, bits=bits, channels=channels, format_code=format_code)
    _, got = decode_wav(data)
    want = _mean_downmix(data, bits, channels, format_code)
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()
    assert parse_wav_header(data)[:2] == (44100, len(got))


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("bits", [16, 24, 32])
def test_integer_pcm_matches_float64_formula_at_the_extremes(bits, channels):
    lo, hi = -2 ** (bits - 1), 2 ** (bits - 1) - 1
    ints = np.random.default_rng(bits + channels).integers(lo, hi + 1, size=(CLIP_SAMPLES, channels))
    ints[:4] = np.array([[lo, lo], [hi, hi], [lo, hi], [hi, lo]])[:, :channels]
    if bits == 24:  # the low three bytes of each little-endian int32
        raw = ints.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        raw = ints.astype(f"<i{bits // 8}").tobytes()
    # every step exact in float64, then one rounding to float32
    want = (ints.astype(np.float64).sum(axis=1) / channels / 2.0 ** (bits - 1)).astype(np.float32)
    got, peak = traced_peak(parse_wav, raw, 1, channels, bits)
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()
    if bits == 16:  # no float64 copy of the samples, which takes 8 bytes a frame or more
        assert peak < 8 * len(ints), peak / len(ints)


def test_non_finite_float_samples_rejected():
    data = encode_wav(np.array([0.0, np.nan, 0.5]), bits=32, format_code=3)
    with pytest.raises(WavFormatError, match="non-finite"):
        decode_wav(data)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_float_samples_rejected(value):
    # clipped to [-1, 1] before the check, an inf would pass as +-1
    data = encode_wav(np.array([0.0, value, 0.5]), bits=32, format_code=3)
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


def _rss_file_kb():
    """Resident file-backed memory of this process, from /proc/self/status."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        status = ""
    field = re.search(r"^RssFile:\s+(\d+) kB", status, re.M)
    if field is None:
        pytest.skip("no RssFile in /proc/self/status")
    return int(field.group(1))


def _with_codec(data, tag):
    data = bytearray(data)
    struct.pack_into("<H", data, data.index(b"fmt ") + 8, tag)
    return bytes(data)


class TestWavFile:
    """The seeking reader: each clip against the whole-data oracle on the same bytes."""

    def _check_clips(self, path, data, bits, channels, format_code=1):
        want = _mean_downmix(data, bits, channels, format_code)
        with WavFile(path) as track:
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
        with pytest.raises(WavFormatError,
                           match=re.escape(str(path)) + ": .*" + message) as raised:
            WavFile(path)
        # closed by WavFile itself, not by freeing the frames the traceback holds
        assert descriptors_on(path) == 0, raised

    def test_leaving_the_with_block_closes_the_file(self, tmp_path):
        path = tmp_path / "two.wav"
        path.write_bytes(encode_wav(np.zeros(2 * CLIP_SAMPLES), bits=16))
        with WavFile(path) as track:
            track.clip(1)
            assert descriptors_on(path) == 1
        assert descriptors_on(path) == 0

    def test_decoding_a_whole_track_holds_none_of_its_pages(self, tmp_path):
        # 60 s of 16-bit stereo is 10.6 MB; a map sliced clip by clip would
        # keep every page read resident until the track is closed
        path = tmp_path / "long.wav"
        frames = np.random.default_rng(8).uniform(-0.5, 0.5, size=(60 * CLIP_SAMPLES, 2))
        path.write_bytes(encode_wav(frames, bits=16, channels=2))
        del frames
        with WavFile(path) as track:
            track.clip(0)  # code pages of the decode path come in before the baseline
            before = _rss_file_kb()
            for i in range(track.clips):
                track.clip(i)
            grown = _rss_file_kb() - before
        assert grown < 2 * 1024, f"RssFile grew {grown} kB"

    @pytest.mark.parametrize("length", [CLIP_SAMPLES, REDUCED_INPUT_LENGTH])
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("bits,format_code", [(16, 1), (24, 1), (32, 1), (32, 3)])
    def test_a_clip_outlives_the_next_read(self, tmp_path, bits, format_code, channels, length):
        frames = np.random.default_rng(bits + channels).uniform(
            -1.0, 1.0, size=(3 * CLIP_SAMPLES, channels))
        path = tmp_path / "any.wav"
        path.write_bytes(encode_wav(frames, bits=bits, channels=channels,
                                    format_code=format_code))
        with WavFile(path) as track:
            a = track.clip(0, length)
            kept = a.copy()
            b = track.clip(2, length)
            c = track.clip(1, length)
        np.testing.assert_array_equal(a, kept)
        assert not np.array_equal(a, b)
        assert not any(np.shares_memory(x, y) for x, y in ((a, b), (a, c), (b, c)))

    def test_file_cut_after_opening_names_the_clip(self, tmp_path, monkeypatch):
        data = encode_wav(np.random.default_rng(9).uniform(-1.0, 1.0, 3 * CLIP_SAMPLES), bits=16)
        path = tmp_path / "cut.wav"
        path.write_bytes(data)
        decoded = []
        decode = instrumentid.audio.parse_wav
        monkeypatch.setattr(instrumentid.audio, "parse_wav",
                            lambda raw, *layout: decoded.append(len(raw)) or decode(raw, *layout))
        with WavFile(path) as track:
            track.clip(2)  # the buffer now holds clip 2's bytes
            os.truncate(path, data.index(b"data") + 8 + 3 * CLIP_SAMPLES)  # 1.5 clips left
            want = _mean_downmix(data, 16, 1, 1)[:CLIP_SAMPLES]
            np.testing.assert_array_equal(track.clip(0), want)
            for i in (1, 2):
                with pytest.raises(WavFormatError,
                                   match=re.escape(f"{path}: clip cut:{i} is cut short")):
                    track.clip(i, REDUCED_INPUT_LENGTH)
        assert decoded == [2 * CLIP_SAMPLES] * 2  # clips 2 and 0; no stale bytes decoded

    def test_non_finite_sample_fails_only_its_clip(self, tmp_path):
        samples = np.zeros(2 * CLIP_SAMPLES + 500)
        samples[CLIP_SAMPLES + 7] = np.nan
        samples[-1] = np.inf  # in the part second after the last clip, which is never read
        path = tmp_path / "nan.wav"
        path.write_bytes(encode_wav(samples, bits=32, format_code=3))
        with WavFile(path) as track:
            np.testing.assert_array_equal(track.clip(0), np.zeros(CLIP_SAMPLES, np.float32))
            with pytest.raises(WavFormatError, match=re.escape(str(path)) + ": non-finite"):
                track.clip(1)

    @pytest.mark.parametrize("length", [CLIP_SAMPLES, REDUCED_INPUT_LENGTH])
    @pytest.mark.parametrize("frame", [0, 7, CLIP_SAMPLES - 1])
    def test_a_nan_anywhere_in_a_float_second_fails_its_clip(self, tmp_path, length, frame):
        # frame 7 is one a decimated clip skips; the whole second must still be finite
        samples = np.zeros((2 * CLIP_SAMPLES, 2))
        samples[CLIP_SAMPLES + frame, 1] = np.nan
        path = tmp_path / "nan.wav"
        path.write_bytes(encode_wav(samples, bits=32, channels=2, format_code=3))
        with WavFile(path) as track:
            np.testing.assert_array_equal(track.clip(0, length), np.zeros(length, np.float32))
            with pytest.raises(WavFormatError, match=re.escape(
                    f"{path}: non-finite sample values in clip nan:1") + "$"):
                track.clip(1, length)

    def test_a_full_length_float_clip_is_checked_for_finiteness_once(self, tmp_path,
                                                                     monkeypatch):
        path = tmp_path / "float.wav"
        path.write_bytes(encode_wav(np.zeros((CLIP_SAMPLES, 2)), bits=32, channels=2,
                                    format_code=3))
        checked = []
        isfinite = np.isfinite

        def spy(a, *args, **kwargs):
            checked.append(np.size(a))
            return isfinite(a, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", spy)
        with WavFile(path) as track:
            track.clip(0)
        assert checked == [2 * CLIP_SAMPLES]

    @pytest.mark.parametrize("bits,channels,format_code", [
        (16, 1, 1), (16, 2, 1), (24, 1, 1), (24, 2, 1),
        (32, 1, 1), (32, 2, 1), (32, 1, 3), (32, 2, 3),
    ])
    def test_short_clip_is_every_stride_th_sample(self, tmp_path, bits, channels, format_code):
        frames = np.random.default_rng(bits + channels).uniform(
            -1.0, 1.0, size=(2 * CLIP_SAMPLES + 3, channels))
        path = tmp_path / "any.wav"
        path.write_bytes(encode_wav(frames, bits=bits, channels=channels,
                                    format_code=format_code))
        with WavFile(path) as track:
            for i in range(track.clips):
                full = track.clip(i)
                for length in (REDUCED_INPUT_LENGTH, 300, 1, CLIP_SAMPLES):
                    got = track.clip(i, length)
                    assert got.dtype == np.float32
                    assert np.array_equal(got, full[::CLIP_SAMPLES // length][:length])

    @pytest.mark.parametrize("length", [0, -1, CLIP_SAMPLES + 1])
    def test_length_outside_the_clip_names_it(self, tmp_path, length):
        path = tmp_path / "two.wav"
        path.write_bytes(encode_wav(np.zeros(2 * CLIP_SAMPLES), bits=16))
        with WavFile(path) as track, pytest.raises(
                ValueError, match=re.escape(f"{path}: clip length {length} is outside 1..")):
            track.clip(0, length)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("frame", [7, 220], ids=["skipped", "picked"])
    def test_non_finite_sample_fails_a_reduced_load(self, tmp_path, value, frame):
        # a 200-sample clip picks every 220th frame, but the whole second must be finite
        samples = np.zeros(2 * CLIP_SAMPLES)
        samples[CLIP_SAMPLES + frame] = value
        path = tmp_path / "nan.wav"
        path.write_bytes(encode_wav(samples, bits=32, format_code=3))
        rows = [ManifestRow("nan", i, str(path), np.zeros(2, dtype=np.uint8)) for i in (0, 1)]
        clips = iter_raw_clips(rows, REDUCED_INPUT_LENGTH)
        np.testing.assert_array_equal(next(clips), np.zeros(REDUCED_INPUT_LENGTH, np.float32))
        # leaving the track's with block must not turn this into a BufferError
        with pytest.raises(WavFormatError, match=re.escape(str(path)) + ": non-finite"):
            next(clips)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_index_outside_the_track_names_the_clip(self, tmp_path, index):
        path = tmp_path / "two.wav"
        path.write_bytes(encode_wav(np.zeros(2 * CLIP_SAMPLES + 10), bits=16))
        with WavFile(path) as track, pytest.raises(
                ValueError, match=re.escape(str(path)) + f": clip two:{index} "):
            track.clip(index)


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

