"""WAV reading: :class:`WavFile` opens a track, checks its header once and
reads each one-second clip into one reused buffer, decoding only the frames
asked for, downmixed to mono."""

import contextlib
import mmap
import struct
from pathlib import Path

import numpy as np

SAMPLE_RATE = 44100
CLIP_SAMPLES = 44100  # one second at 44.1 kHz


class WavFormatError(ValueError):
    """Raised for malformed or unsupported RIFF/WAVE input."""


_NON_FINITE = "non-finite sample values"


def _scan_chunks(data: bytes):
    """Yield (chunk_id, payload_offset, payload_size) for every RIFF chunk."""
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        payload = pos + 8
        if payload + size > len(data):
            raise WavFormatError(
                f"chunk {cid!r} declares {size} bytes but only "
                f"{len(data) - payload} remain in the file"
            )
        yield cid, payload, size
        pos = payload + size + (size & 1)  # chunks are word-aligned
    if pos < len(data):
        # trailing bytes too short to be a chunk header
        raise WavFormatError(f"{len(data) - pos} stray bytes after last chunk")


def parse_wav_header(data):
    """Check a whole RIFF/WAVE file, as bytes or a read-only map, without decoding it.

    :returns: ``(sample_rate, frame_count, format_code, channels, bits, data_offset)``
    """
    if len(data) < 12 or data[:4] != b"RIFF":
        raise WavFormatError("missing RIFF header")
    if data[8:12] != b"WAVE":
        raise WavFormatError(f"not a WAVE form (got {data[8:12]!r})")

    fmt = None
    data_span = None
    for cid, payload, size in _scan_chunks(data):
        if cid == b"fmt ":
            if size < 16:
                raise WavFormatError(f"fmt chunk too short ({size} bytes)")
            fmt = struct.unpack_from("<HHIIHH", data, payload)
        elif cid == b"data":
            data_span = (payload, size)
    if fmt is None:
        raise WavFormatError("missing fmt chunk")
    if data_span is None:
        raise WavFormatError("missing data chunk")

    format_code, channels, sample_rate, _byte_rate, block_align, bits = fmt
    if format_code == 1:
        if bits not in (16, 24, 32):
            raise WavFormatError(f"unsupported PCM bit depth {bits}")
    elif format_code == 3:
        if bits != 32:
            raise WavFormatError(f"unsupported float bit depth {bits}")
    else:
        raise WavFormatError(f"unsupported codec (format tag {format_code}); PCM/float only")
    if channels not in (1, 2):
        raise WavFormatError(f"unsupported channel count {channels}")
    expected_align = channels * bits // 8
    if block_align != expected_align:
        raise WavFormatError(f"block align {block_align} != channels*bits/8 = {expected_align}")

    offset, size = data_span
    if size % block_align != 0:
        raise WavFormatError(f"data chunk size {size} not a multiple of block align {block_align}")
    return sample_rate, size // block_align, format_code, channels, bits, offset


def parse_wav(raw, format_code: int, channels: int, bits: int) -> np.ndarray:
    """Decode the sample bytes ``raw`` (whole frames, as bytes or a 1-D
    ``uint8`` array) to float32 mono; the result never shares its memory.

    Supports integer PCM at 16/24/32 bits and 32-bit IEEE float, 1 or 2
    channels. Each format gives its samples and a scale: integer samples
    are scaled by 1 / 2^(bits-1), float ones, clipped to [-1, 1], by 1.
    Stereo is downmixed to mono by the arithmetic mean of the channels. One
    tail serves every format but 16-bit PCM: it adds the channels, exactly
    as int64 for integers and as float64 for floats, multiplies by the
    scale over the channel count and rounds once to float32. 16-bit PCM is
    added and scaled in float32, which holds every value exactly, so no
    float64 copy of its samples is made.
    """
    if format_code == 3:
        samples = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        # integer PCM cannot hold NaN or inf, so only floats need the check;
        # it comes before the clip, which would turn an inf into +-1
        if not np.isfinite(samples).all():
            raise WavFormatError(_NON_FINITE)
        samples, scale = np.clip(samples, -1.0, 1.0), 1.0
    elif bits == 24:  # packed: a sample's 3 bytes atop a 4-byte word, shifted down with its sign
        words = np.zeros((len(raw) // 3, 4), dtype=np.uint8)
        words[:, 1:] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
        samples, scale = words.view("<i4")[:, 0] >> 8, 2.0 ** -23
    else:
        samples = np.frombuffer(raw, dtype="<i2" if bits == 16 else "<i4")
        scale = 2.0 ** (1 - bits)
    frames = samples.reshape(-1, channels)
    scale /= channels
    if bits == 16:
        # |left + right| <= 2^16: float32 holds every sum and its scaling exactly
        mono = frames[:, 0].astype(np.float32)
        if channels == 2:
            mono += frames[:, 1]
        mono *= np.float32(scale)
        return mono
    total = frames[:, 0]
    if channels == 2:  # exact in int64 for 32-bit samples
        total = total.astype(np.result_type(total, np.int64)) + frames[:, 1]
    return (total * scale).astype(np.float32)


class WavFile(contextlib.AbstractContextManager):
    """One 44.1 kHz track, open for reading, that decodes one clip at a time.

    Opening checks the header and the rate; ``clips`` counts whole seconds.
    Each clip's bytes are read with one positioned read into a buffer of one
    clip, made once per track and reused, so no page of the track stays
    held between clips. Every error names the file. Leaving a ``with`` block
    closes it.
    """

    def __init__(self, path):
        self.path = path
        with contextlib.ExitStack() as opened:
            self._file = opened.enter_context(open(path, "rb"))
            try:  # mmap refuses an empty file with a ValueError
                # the map is closed here: clips are read, never mapped
                with mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ) as whole:
                    rate, frames, *self._format, self._offset = parse_wav_header(whole)
                if rate != SAMPLE_RATE:
                    raise WavFormatError(f"sample rate {rate} != {SAMPLE_RATE}")
            except ValueError as err:
                raise WavFormatError(f"{path}: {err}") from None
            opened.pop_all()  # a good track stays open until __exit__
        self._buffer = np.empty(CLIP_SAMPLES * self._format[1] * self._format[2] // 8, np.uint8)
        self.clips = frames // CLIP_SAMPLES

    def clip(self, i: int, length: int = CLIP_SAMPLES) -> np.ndarray:
        """Seconds ``i`` to ``i + 1`` as ``length`` float32 mono samples.

        Sample ``k`` is frame ``k * (CLIP_SAMPLES // length)`` of the clip:
        every frame at full length, a plain decimation without an
        anti-alias filter below it. The whole second is read, but only the
        picked frames are decoded, and a float clip must be finite over the
        whole second. The result never shares memory with the read buffer.
        """
        if not 1 <= length <= CLIP_SAMPLES:
            raise ValueError(f"{self.path}: clip length {length} is outside 1..{CLIP_SAMPLES}")
        if not 0 <= i < self.clips:  # named as prepare_dataset names the track
            raise ValueError(f"{self.path}: clip {Path(self.path).stem}:{i} is outside "
                             f"its {self.clips} whole clips")
        raw = self._buffer
        self._file.seek(self._offset + i * len(raw))
        got = self._file.readinto(raw)
        if got != len(raw):  # cut since the header was checked; the buffer holds stale bytes
            raise WavFormatError(f"{self.path}: clip {Path(self.path).stem}:{i} is cut short: "
                                 f"the file ends {got} of its {len(raw)} bytes in")
        try:
            if length < CLIP_SAMPLES:
                # parse_wav checks the picked frames, but the whole second must be finite
                if self._format[0] == 3 and not np.isfinite(raw.view("<f4")).all():
                    raise WavFormatError(_NON_FINITE)
                # a copy of the picked frames alone
                raw = raw.reshape(CLIP_SAMPLES, -1)[::CLIP_SAMPLES // length][:length].tobytes()
            return parse_wav(raw, *self._format)
        except WavFormatError as err:  # parse_wav raises only for a non-finite sample
            raise WavFormatError(f"{self.path}: {err} in clip {Path(self.path).stem}:{i}") from None

    def __exit__(self, *exc):
        self._file.close()
