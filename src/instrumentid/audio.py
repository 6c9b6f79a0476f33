"""WAV decoding and mono downmix."""

import struct
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 44100
CLIP_SAMPLES = 44100  # one second at 44.1 kHz


class WavFormatError(ValueError):
    """Raised for malformed or unsupported RIFF/WAVE input."""


@dataclass
class AudioBuffer:
    """Mono audio, samples in [-1, 1]."""

    sample_rate: int
    samples: np.ndarray


@dataclass
class WavLayout:
    """Byte-level layout of the decoded file, for manifest offsets."""

    sample_rate: int
    channels: int
    bits_per_sample: int
    format_code: int
    block_align: int
    data_offset: int
    frame_count: int


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
    if pos != len(data) and pos < len(data):
        # trailing bytes too short to be a chunk header
        raise WavFormatError(f"{len(data) - pos} stray bytes after last chunk")


def parse_wav(data: bytes):
    """Decode a RIFF/WAVE byte string.

    Supports integer PCM at 16/24/32 bits and 32-bit IEEE float, 1 or 2
    channels. Integer samples are scaled by 1 / 2^(bits-1); stereo is
    downmixed to mono by the arithmetic mean of the channels.

    :returns: ``(AudioBuffer, WavLayout)``
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
    frame_count = size // block_align
    raw = data[offset:offset + size]

    if format_code == 3:
        values = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        values = np.clip(values, -1.0, 1.0)
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

    if not np.isfinite(values).all():
        raise WavFormatError("non-finite sample values in data chunk")
    frames = values.reshape(frame_count, channels)
    mono = frames.mean(axis=1).astype(np.float32)

    layout = WavLayout(sample_rate, channels, bits, format_code, block_align, offset, frame_count)
    return AudioBuffer(sample_rate, mono), layout


def decode_wav(data: bytes) -> AudioBuffer:
    buf, _ = parse_wav(data)
    return buf
