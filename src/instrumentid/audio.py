"""WAV reading: :class:`WavFile` maps a track, checks its header once and
decodes only the bytes of the one-second clip asked for, downmixed to mono."""

import contextlib
import mmap
import struct
from pathlib import Path

import numpy as np

SAMPLE_RATE = 44100
CLIP_SAMPLES = 44100  # one second at 44.1 kHz


class WavFormatError(ValueError):
    """Raised for malformed or unsupported RIFF/WAVE input."""


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
    """Decode the sample bytes ``raw`` (whole frames) to float32 mono.

    Supports integer PCM at 16/24/32 bits and 32-bit IEEE float, 1 or 2
    channels. Integer samples are scaled by 1 / 2^(bits-1); stereo is
    downmixed to mono by the arithmetic mean of the channels.
    """
    if format_code == 3:
        values = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        values = np.clip(values, -1.0, 1.0)
        # integer PCM cannot hold NaN or inf, so only floats need the check
        if not np.isfinite(values).all():
            raise WavFormatError("non-finite sample values in data chunk")
    elif bits == 16:
        values = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 2.0 ** 15
    elif bits == 32:
        values = np.frombuffer(raw, dtype="<i4").astype(np.float64) / 2.0 ** 31
    else:  # 24-bit packed
        b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).astype(np.uint32)
        u = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        signed = u.astype(np.int32)
        signed = np.where(signed >= 1 << 23, signed - (1 << 24), signed)
        values = signed.astype(np.float64) / 2.0 ** 23

    # the mean of the channels, (left + right) / 2, without a reduction
    # along the short channel axis, which is several times slower
    frames = values.reshape(-1, channels)
    mono = frames[:, 0]
    if channels == 2:
        mono = mono + frames[:, 1]
        mono /= 2
    return mono.astype(np.float32)


class WavFile(contextlib.AbstractContextManager):
    """One 44.1 kHz track, mapped read-only, that decodes one clip at a time.

    Opening checks the header and the rate; ``clips`` counts whole seconds.
    Every error names the file. Leaving a ``with`` block unmaps the track.
    """

    def __init__(self, path):
        self.path = path
        try:  # mmap refuses an empty file with a ValueError
            with open(path, "rb") as f:
                self._map = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            rate, frames, *self._format, self._offset = parse_wav_header(self._map)
            if rate != SAMPLE_RATE:
                raise WavFormatError(f"sample rate {rate} != {SAMPLE_RATE}")
        except ValueError as err:
            raise WavFormatError(f"{path}: {err}") from None
        self._clip_bytes = CLIP_SAMPLES * self._format[1] * self._format[2] // 8
        self.clips = frames // CLIP_SAMPLES

    def clip(self, i: int) -> np.ndarray:
        """Seconds ``i`` to ``i + 1`` as float32 mono, decoded from their own bytes."""
        if not 0 <= i < self.clips:  # named as prepare_dataset names the track
            raise ValueError(f"{self.path}: clip {Path(self.path).stem}:{i} is outside "
                             f"its {self.clips} whole clips")
        start = self._offset + i * self._clip_bytes
        try:
            return parse_wav(self._map[start:start + self._clip_bytes], *self._format)
        except WavFormatError as err:
            raise WavFormatError(f"{self.path}: {err}") from None

    def __exit__(self, *exc):
        self._map.close()
