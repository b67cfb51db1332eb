"""Multimodal columns: opaque binary payloads + typed metadata.

The container has no image/audio libraries, so the *decode kernels* are
deterministic stubs behind an import-try (PIL is used when present), while
the Ray-side plumbing — binary Arrow columns, actor-pool map_batches
stages with per-actor init, small batch sizes for wide rows, schema of the
outputs — is real and tested. The synthetic payload format is:

    magic(4B: b"OPRI" image / b"OPRA" audio) | width u16 | height u16 |
    n_frames u16 | payload bytes

mirroring how a real pipeline would treat JPEG/WAV headers.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

try:  # pragma: no cover - not present in this container
    from PIL import Image  # noqa: F401

    _HAS_PIL = True
except ImportError:
    _HAS_PIL = False

MAGIC_IMAGE = b"OPRI"
MAGIC_AUDIO = b"OPRA"


# ---------------------------------------------------------------------------
# Real BMP codec (pure numpy — no image libraries needed)
#
# 24bpp bottom-up uncompressed BMP: BITMAPFILEHEADER (14 B) +
# BITMAPINFOHEADER (40 B) + BGR rows padded to 4-byte multiples. This
# gives the decode/resize stages one GENUINE format; JPEG/PNG/audio
# remain gated behind the PIL import-try.
# ---------------------------------------------------------------------------


def encode_bmp(img: np.ndarray) -> bytes:
    """(H, W, 3) uint8 RGB array → 24bpp BMP bytes."""
    h, w, c = img.shape
    assert c == 3 and img.dtype == np.uint8
    row_bytes = w * 3
    pad = (-row_bytes) % 4
    stride = row_bytes + pad
    pixel_bytes = stride * h
    # BGR order, bottom-up rows, each padded to 4 bytes
    bgr = img[::-1, :, ::-1]
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, :row_bytes] = bgr.reshape(h, row_bytes)
    file_header = struct.pack("<2sIHHI", b"BM", 14 + 40 + pixel_bytes, 0, 0, 14 + 40)
    info_header = struct.pack(
        "<IiiHHIIiiII", 40, w, h, 1, 24, 0, pixel_bytes, 2835, 2835, 0, 0
    )
    return file_header + info_header + rows.tobytes()


def decode_bmp(payload: bytes) -> np.ndarray:
    """24bpp uncompressed BMP bytes → (H, W, 3) uint8 RGB array."""
    if payload[:2] != b"BM":
        raise ValueError("not a BMP")
    (data_offset,) = struct.unpack_from("<I", payload, 10)
    header_size, w, h, _planes, bpp, compression = struct.unpack_from(
        "<IiiHHI", payload, 14
    )
    if bpp != 24 or compression != 0:
        raise ValueError(f"unsupported BMP variant (bpp={bpp}, comp={compression})")
    bottom_up = h > 0
    h = abs(h)
    row_bytes = w * 3
    stride = row_bytes + ((-row_bytes) % 4)
    px = np.frombuffer(payload, dtype=np.uint8, count=stride * h, offset=data_offset)
    rows = px.reshape(h, stride)[:, :row_bytes].reshape(h, w, 3)
    if bottom_up:
        rows = rows[::-1]
    return rows[:, :, ::-1].copy()  # BGR → RGB


# ---------------------------------------------------------------------------
# Real PNG codec (stdlib zlib — no PIL)
#
# The reference re-encodes raw PDF image rasters as PNG via PIL
# (src/openparse/text/pdfminer/core.py:160-206); this is the same
# capability from scratch: the encoder writes filter-0 scanlines into a
# single zlib IDAT, the decoder handles bit-depth-8 RGB/RGBA/gray with
# ALL five scanline filters (None/Sub/Up/Average/Paeth), so it reads
# real-world PNGs of those shapes, not just its own output.
# ---------------------------------------------------------------------------

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _png_chunk(tag: bytes, body: bytes) -> bytes:
    import zlib as _z

    return (
        struct.pack(">I", len(body))
        + tag
        + body
        + struct.pack(">I", _z.crc32(tag + body) & 0xFFFFFFFF)
    )


def encode_png(img: np.ndarray) -> bytes:
    """(H, W) or (H, W, {1,3,4}) uint8 array → PNG bytes (filter 0)."""
    import zlib as _z

    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    assert img.dtype == np.uint8 and c in (1, 3, 4)
    color_type = {1: 0, 3: 2, 4: 6}[c]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    # filter byte 0 prepended to each scanline
    raw = np.zeros((h, 1 + w * c), dtype=np.uint8)
    raw[:, 1:] = img.reshape(h, w * c)
    return (
        _PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", _z.compress(raw.tobytes(), 6))
        + _png_chunk(b"IEND", b"")
    )


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a.astype(np.int16) + b.astype(np.int16) - c.astype(np.int16)
    pa_, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    out = np.where((pa_ <= pb) & (pa_ <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


def decode_png(payload: bytes) -> np.ndarray:
    """PNG bytes → (H, W, C) uint8 array. Bit depth 8, color types
    0/2/6 (gray/RGB/RGBA), non-interlaced; all five scanline filters."""
    import zlib as _z

    if payload[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    pos = 8
    idat = bytearray()
    w = h = None
    color_type = None
    while pos < len(payload):
        (ln,) = struct.unpack_from(">I", payload, pos)
        tag = payload[pos + 4 : pos + 8]
        body = payload[pos + 8 : pos + 8 + ln]
        pos += 12 + ln
        if tag == b"IHDR":
            w, h, depth, color_type, comp, filt, interlace = struct.unpack(
                ">IIBBBBB", body
            )
            if depth != 8 or interlace != 0 or color_type not in (0, 2, 6):
                raise ValueError("unsupported PNG variant")
        elif tag == b"IDAT":
            idat += body
        elif tag == b"IEND":
            break
    c = {0: 1, 2: 3, 6: 4}[color_type]
    raw = np.frombuffer(_z.decompress(bytes(idat)), dtype=np.uint8)
    stride = 1 + w * c
    rows = raw.reshape(h, stride)
    out = np.zeros((h, w * c), dtype=np.uint8)
    prev = np.zeros(w * c, dtype=np.uint8)
    for y in range(h):
        ftype = int(rows[y, 0])
        cur = rows[y, 1:].copy()
        if ftype == 0:
            pass
        elif ftype == 2:  # Up
            cur += prev
        elif ftype in (1, 3, 4):  # Sub / Average / Paeth: sequential in x
            left = np.zeros(c, dtype=np.uint8)
            for x in range(0, w * c, c):
                seg = cur[x : x + c]
                if ftype == 1:
                    seg += left
                elif ftype == 3:
                    seg += (
                        (left.astype(np.int16) + prev[x : x + c].astype(np.int16))
                        // 2
                    ).astype(np.uint8)
                else:
                    up_left = (
                        prev[x - c : x] if x >= c else np.zeros(c, dtype=np.uint8)
                    )
                    seg += _paeth(left, prev[x : x + c], up_left)
                left = seg
        else:
            raise ValueError(f"bad filter {ftype}")
        out[y] = cur
        prev = cur
    return out.reshape(h, w, c)


def process_raw_image(
    data: bytes, width: int, height: int, mode: str = "RGB"
) -> Optional[bytes]:
    """Raw raster bytes → PNG bytes, the reference's `_process_png_image`
    analog (core.py:160-206): map the color space to an array shape,
    build the image, return PNG — or None on any failure (the reference
    logs and returns None rather than raising)."""
    try:
        channels = {"L": 1, "RGB": 3, "RGBA": 4}[mode]
        arr = np.frombuffer(data, dtype=np.uint8, count=width * height * channels)
        return encode_png(arr.reshape(height, width, channels))
    except Exception:
        return None


def resize_nearest(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Vectorized nearest-neighbor resize (pure numpy fancy indexing)."""
    h, w = img.shape[:2]
    yi = (np.arange(out_h) * h // out_h).clip(0, h - 1)
    xi = (np.arange(out_w) * w // out_w).clip(0, w - 1)
    return img[yi[:, None], xi[None, :]]


# ---------------------------------------------------------------------------
# Real video container: length-prefixed BMP frames
#
#   b"BMPV" | n_frames u16 | [ frame_len u32 | bmp bytes ]*
#
# A deliberately simple but GENUINE multi-frame format: every frame is a
# real decodable BMP, so frame sampling + per-frame kernels exercise the
# actual decode path (a real pipeline would seek keyframes in MP4 the
# same way: container walk → per-frame decode).
# ---------------------------------------------------------------------------

MAGIC_VIDEO = b"BMPV"


def encode_bmpv(frames) -> bytes:
    """List of (H, W, 3) uint8 arrays → BMPV container bytes."""
    parts = [MAGIC_VIDEO, struct.pack("<H", len(frames))]
    for f in frames:
        b = encode_bmp(f)
        parts.append(struct.pack("<I", len(b)))
        parts.append(b)
    return b"".join(parts)


def iter_bmpv_frames(payload: bytes, stride: int = 1):
    """Yield (frame_idx, decoded RGB array) for every ``stride``-th frame
    WITHOUT decoding skipped frames (container walk is length-prefixed)."""
    if payload[:4] != MAGIC_VIDEO:
        raise ValueError("not a BMPV container")
    (n_frames,) = struct.unpack_from("<H", payload, 4)
    pos = 6
    for fi in range(n_frames):
        (flen,) = struct.unpack_from("<I", payload, pos)
        start = pos + 4
        pos = start + flen
        if fi % stride == 0:
            yield fi, decode_bmp(payload[start : start + flen])


# ---------------------------------------------------------------------------
# Real PCM WAV codec (pure numpy / struct)
# ---------------------------------------------------------------------------


def encode_wav(samples: np.ndarray, rate: int = 16000) -> bytes:
    """Mono int16 samples → RIFF/WAVE (PCM) bytes."""
    assert samples.dtype == np.int16 and samples.ndim == 1
    data = samples.tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, rate, rate * 2, 2, 16)
    chunks = (
        b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(data)) + data
    )
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def decode_wav(payload: bytes):
    """RIFF/WAVE PCM bytes → (rate, mono int16 samples). Walks the chunk
    list (tolerates extra chunks like LIST/INFO)."""
    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a WAV")
    pos, rate, samples = 12, None, None
    while pos + 8 <= len(payload):
        cid = payload[pos : pos + 4]
        (size,) = struct.unpack_from("<I", payload, pos + 4)
        body = payload[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            audio_fmt, channels, rate = struct.unpack_from("<HHI", body, 0)
            bits = struct.unpack_from("<H", body, 14)[0]
            if audio_fmt != 1 or channels != 1 or bits != 16:
                raise ValueError("unsupported WAV variant")
        elif cid == b"data":
            samples = np.frombuffer(body, dtype=np.int16)
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if rate is None or samples is None:
        raise ValueError("missing fmt/data chunk")
    return rate, samples


def make_payload(i: int, kind: str = "image") -> bytes:
    """Deterministic media blob for doc index ``i``. kind='bmp' yields a
    REAL decodable 24bpp BMP; 'image'/'audio' yield the synthetic
    header format stubs."""
    rng = np.random.RandomState(i * 2654435761 % (2**31))
    w, h, frames = 8 + (i % 32), 8 + (i * 3 % 32), 1 + (i % 5)
    if kind == "bmp":
        img = rng.randint(0, 256, size=(h, w, 3), dtype=np.uint8)
        return encode_bmp(img)
    if kind == "wav":
        n = 400 + (i % 23) * 100
        t = np.arange(n, dtype=np.float64)
        sig = 8000 * np.sin(2 * np.pi * (110 + i % 40) * t / 16000)
        sig += rng.randint(-500, 500, size=n)
        return encode_wav(sig.astype(np.int16), rate=16000)
    if kind == "bmpv":
        fw, fh = 6 + (i % 8), 6 + (i * 3 % 8)
        return encode_bmpv(
            [
                rng.randint(0, 256, size=(fh, fw, 3), dtype=np.uint8)
                for _ in range(frames + 1)
            ]
        )
    body = rng.bytes(w * h)
    magic = MAGIC_IMAGE if kind == "image" else MAGIC_AUDIO
    return magic + struct.pack("<HHH", w, h, frames) + body


def media_table(sf_dir_or_n, kind: str = "image"):
    """Synthetic media dataset: (media_id, kind, payload binary)."""
    import ray.data as rd

    if isinstance(sf_dir_or_n, int):
        n = sf_dir_or_n
    else:
        from open_parse_ray.sources.pages import sf_from_dir

        n = max(50, int(round(20_000 * sf_from_dir(sf_dir_or_n))))

    def gen(batch) -> pa.Table:
        ids = [int(v) for v in batch["id"]]
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array([kind] * len(ids), pa.string()),
                pa.array([make_payload(i, kind) for i in ids], pa.binary()),
            ],
            names=["media_id", "kind", "payload"],
        )

    return rd.range(n).map_batches(gen, batch_format="numpy", batch_size=512)


class DecodeMedia:
    """Decode stage. BMP, PNG and baseline JPEG decode are REAL (pure
    numpy / stdlib zlib / functions/jpeg.py); the OPRI/OPRA synthetic
    formats decode by header parse. The signature, init, and output
    schema are identical in every case."""

    def __init__(self):
        self.has_pil = _HAS_PIL
        self.header = struct.Struct("<HHH")

    def _decode(self, payload: bytes):
        if payload[:2] == b"BM":  # real BMP decode, pure numpy
            img = decode_bmp(payload)
            h, w = img.shape[:2]
            return w, h, 1, img.tobytes()
        if payload[:8] == _PNG_SIG:  # real PNG decode, stdlib zlib
            img = decode_png(payload)
            h, w = img.shape[:2]
            return w, h, 1, img.tobytes()
        if payload[:3] == b"\xff\xd8\xff":  # real baseline JPEG decode
            from open_parse_ray.functions.jpeg import decode_jpeg

            img = decode_jpeg(payload)
            h, w = img.shape[:2]
            return w, h, 1, img.tobytes()
        magic, rest = payload[:4], payload[4:]
        if magic not in (MAGIC_IMAGE, MAGIC_AUDIO):
            raise ValueError("unknown magic")
        w, h, frames = self.header.unpack(rest[: self.header.size])
        body = rest[self.header.size :]
        return w, h, frames, body

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, widths, heights, frames_, nbytes, checksums, statuses = (
            [], [], [], [], [], [], [],
        )
        for media_id, payload in zip(
            batch["media_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            ids.append(media_id)
            try:
                w, h, f, body = self._decode(payload)
                widths.append(w)
                heights.append(h)
                frames_.append(f)
                nbytes.append(len(body))
                checksums.append(hashlib.md5(body).hexdigest()[:12])
                statuses.append("ok")
            except Exception as exc:
                widths.append(0)
                heights.append(0)
                frames_.append(0)
                nbytes.append(0)
                checksums.append("")
                statuses.append(f"error:{type(exc).__name__}")
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(widths, pa.int32()),
                pa.array(heights, pa.int32()),
                pa.array(frames_, pa.int32()),
                pa.array(nbytes, pa.int64()),
                pa.array(checksums, pa.string()),
                pa.array(statuses, pa.string()),
            ],
            names=["media_id", "width", "height", "n_frames", "n_bytes", "checksum", "status"],
        )


class ResizeStub:
    """Feature-extract/resize stage shape: consumes decoded meta + payload,
    emits fixed-size 'thumbnail' bytes. Deterministic stand-in for a
    vectorized resize kernel."""

    def __init__(self, out_size: int = 64):
        self.out_size = out_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        thumbs = []
        for payload in batch["payload"].to_pylist():
            digest = hashlib.sha256(payload).digest()
            reps = (self.out_size + len(digest) - 1) // len(digest)
            thumbs.append((digest * reps)[: self.out_size])
        return batch.append_column("thumb", pa.array(thumbs, pa.binary()))


def frame_sample(batch: pa.Table, stride: int = 2) -> pa.Table:
    """Video-style frame sampling: explode payload into every
    ``stride``-th frame row (frames = equal slices of the body)."""
    hdr = struct.Struct("<HHH")
    out = {"media_id": [], "frame_idx": [], "frame_bytes": []}
    for media_id, payload in zip(
        batch["media_id"].to_pylist(), batch["payload"].to_pylist()
    ):
        w, h, n_frames, = hdr.unpack(payload[4 : 4 + hdr.size])
        body = payload[4 + hdr.size :]
        if n_frames <= 0 or not body:
            continue
        fsize = max(1, len(body) // n_frames)
        for fi in range(0, n_frames, stride):
            out["media_id"].append(media_id)
            out["frame_idx"].append(fi)
            out["frame_bytes"].append(len(body[fi * fsize : (fi + 1) * fsize]))
    return pa.Table.from_arrays(
        [
            pa.array(out["media_id"], pa.int64()),
            pa.array(out["frame_idx"], pa.int32()),
            pa.array(out["frame_bytes"], pa.int64()),
        ],
        names=["media_id", "frame_idx", "frame_bytes"],
    )


class ThumbnailBmp:
    """REAL resize stage: decode BMP → vectorized nearest-neighbor
    resize → re-encode BMP thumbnail. Actor-pool kernel (per-actor init
    holds the target size); rows that aren't decodable BMPs error into
    the status column rather than failing the block."""

    def __init__(self, out_w: int = 16, out_h: int = 16):
        self.out_w, self.out_h = out_w, out_h

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, tw, th, thumbs, statuses = [], [], [], [], []
        for media_id, payload in zip(
            batch["media_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            ids.append(media_id)
            try:
                img = decode_bmp(payload)
                small = resize_nearest(img, self.out_w, self.out_h)
                thumbs.append(encode_bmp(np.ascontiguousarray(small)))
                tw.append(self.out_w)
                th.append(self.out_h)
                statuses.append("ok")
            except Exception as exc:
                thumbs.append(b"")
                tw.append(0)
                th.append(0)
                statuses.append(f"error:{type(exc).__name__}")
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(tw, pa.int32()),
                pa.array(th, pa.int32()),
                pa.array(thumbs, pa.binary()),
                pa.array(statuses, pa.string()),
            ],
            names=["media_id", "thumb_w", "thumb_h", "thumb_bmp", "status"],
        )


def spectral_features(x: np.ndarray, rate: int) -> tuple:
    """(centroid_hz, rolloff85_hz): real FFT-based spectral shape — the
    magnitude-weighted mean frequency and the 85%-energy rolloff point,
    the two classic audio-classification descriptors. Deterministic,
    vectorized (one rfft); (0, 0) for silent/empty signals."""
    if len(x) == 0:
        return 0, 0
    mag = np.abs(np.fft.rfft(x))
    total = mag.sum()
    if total <= 0:
        return 0, 0
    freqs = np.fft.rfftfreq(len(x), d=1.0 / rate)
    centroid = float((freqs * mag).sum() / total)
    cum = np.cumsum(mag)
    roll_idx = int(np.searchsorted(cum, 0.85 * total))
    rolloff = float(freqs[min(roll_idx, len(freqs) - 1)])
    return int(round(centroid)), int(round(rolloff))


class AudioFeatures:
    """REAL audio feature-extraction stage: decode PCM WAV → vectorized
    RMS energy + zero-crossing count + duration + FFT spectral centroid
    and 85% rolloff. The numpy kernels are what a real
    fingerprinting/VAD/classification stage computes; swap in an ML
    feature extractor with the same actor shape."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, n_samp, dur_ms, rms, zc, cent, roll, statuses = (
            [], [], [], [], [], [], [], [],
        )
        for media_id, payload in zip(
            batch["media_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            ids.append(media_id)
            try:
                rate, s = decode_wav(payload)
                x = s.astype(np.float64)
                n_samp.append(len(s))
                dur_ms.append(int(len(s) * 1000 / rate))
                rms.append(int(np.sqrt(np.mean(x * x))) if len(s) else 0)
                zc.append(int(np.count_nonzero(np.signbit(x[1:]) != np.signbit(x[:-1]))))
                c, r = spectral_features(x, rate)
                cent.append(c)
                roll.append(r)
                statuses.append("ok")
            except Exception as exc:
                n_samp.append(0)
                dur_ms.append(0)
                rms.append(0)
                zc.append(0)
                cent.append(0)
                roll.append(0)
                statuses.append(f"error:{type(exc).__name__}")
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(n_samp, pa.int64()),
                pa.array(dur_ms, pa.int64()),
                pa.array(rms, pa.int64()),
                pa.array(zc, pa.int64()),
                pa.array(cent, pa.int64()),
                pa.array(roll, pa.int64()),
                pa.array(statuses, pa.string()),
            ],
            names=[
                "media_id",
                "n_samples",
                "duration_ms",
                "rms",
                "zero_crossings",
                "spectral_centroid_hz",
                "rolloff85_hz",
                "status",
            ],
        )


class SampleFrames:
    """REAL video frame-sampling stage: walk the BMPV container, decode
    every ``stride``-th frame (skipped frames are never decoded — the
    container walk is length-prefixed), emit per-frame stats. One row in,
    many rows out (flat-map shape)."""

    def __init__(self, stride: int = 2):
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, fidx, ws, hs, means = [], [], [], [], []
        for media_id, payload in zip(
            batch["media_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            try:
                for fi, img in iter_bmpv_frames(payload, self.stride):
                    ids.append(media_id)
                    fidx.append(fi)
                    hs.append(img.shape[0])
                    ws.append(img.shape[1])
                    means.append(int(img.mean()))
            except Exception:
                continue  # poison container: contributes no frames
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(fidx, pa.int32()),
                pa.array(ws, pa.int32()),
                pa.array(hs, pa.int32()),
                pa.array(means, pa.int32()),
            ],
            names=["media_id", "frame_idx", "width", "height", "mean_pixel"],
        )


def video_frame_pipeline(sf_dir: str, stride: int = 2):
    """Real video pipeline: BMPV media → task-pool frame sample + decode
    → per-frame stats table (no stubs on this path)."""
    ds = media_table(sf_dir, kind="bmpv")
    return ds.map_batches(
        SampleFrames(stride=stride),  # stateless → task pool
        batch_format="pyarrow",
        batch_size=128,
        num_cpus=1,
    )


def wav_features_pipeline(sf_dir: str):
    """Real audio pipeline: WAV media → task-pool decode + vectorized
    feature extraction (no stubs on this path)."""
    ds = media_table(sf_dir, kind="wav")
    return ds.map_batches(
        AudioFeatures(),  # stateless → task pool
        batch_format="pyarrow",
        batch_size=256,
        num_cpus=1,
    )


def bmp_thumbnail_pipeline(sf_dir: str, out_w: int = 16, out_h: int = 16):
    """Real image pipeline: BMP media → task-pool decode+resize+encode →
    thumbnail table. Every byte is genuinely decoded and re-encoded (no
    stubs on this path)."""
    ds = media_table(sf_dir, kind="bmp")
    return ds.map_batches(
        ThumbnailBmp(out_w=out_w, out_h=out_h),  # stateless → task pool
        batch_format="pyarrow",
        batch_size=256,
        num_cpus=1,
    )


def decode_meta_pipeline(sf_dir: str):
    """media → decode stage → meta table. Small batch size: wide
    binary rows must not blow a worker's heap."""
    ds = media_table(sf_dir)
    return ds.map_batches(
        DecodeMedia,
        batch_format="pyarrow",
        batch_size=256,
        concurrency=(1, 4),
        num_cpus=1,
    )


# ---------------------------------------------------------------------------
# Perceptual image dedup (dHash)
# ---------------------------------------------------------------------------


def _dup_base_img(i: int) -> np.ndarray:
    """Base image for the near-dup corpus: same size law as
    make_payload, pixels capped at 239 so the planted +6 brightness
    variant can never clip (clipping would break the luma-shift
    invariance argument below)."""
    rng = np.random.RandomState(i * 2654435761 % (2**31))
    w, h = 8 + (i % 32), 8 + (i * 3 % 32)
    return rng.randint(0, 240, size=(h, w, 3), dtype=np.uint8)


def make_dup_bmp(i: int) -> bytes:
    """Deterministic near-dup image corpus: ids with i % 7 == 3 are a
    uniform +6 brightness shift of image i−1 (i−1 is always a base);
    everything else is an independent random image. A REAL decodable
    BMP either way."""
    if i % 7 == 3:
        return encode_bmp(_dup_base_img(i - 1) + np.uint8(6))
    return encode_bmp(_dup_base_img(i))


def dhash64(img: np.ndarray) -> int:
    """64-bit difference hash: integer luma → 9×8 nearest resize →
    horizontal adjacent-pixel comparisons, MSB-first row-major.

    Brightness invariance is EXACT, not approximate: a uniform +k on
    all channels shifts luma by precisely k (the weights sum to 1000,
    so (L·1000 + 1000k)//1000 = L + k), leaving every comparison bit
    unchanged — which is why the planted +6 variants hash identically
    while any structural edit flips bits."""
    luma = (
        299 * img[:, :, 0].astype(np.int64)
        + 587 * img[:, :, 1].astype(np.int64)
        + 114 * img[:, :, 2].astype(np.int64)
    ) // 1000
    g = resize_nearest(luma, 9, 8)
    bits = (g[:, 1:] > g[:, :-1]).ravel()
    return int(np.packbits(bits).view(">u8")[0])


def dup_image_table(sf_dir_or_n):
    """(media_id, kind, payload) table over the near-dup image corpus."""
    import ray.data as rd

    if isinstance(sf_dir_or_n, int):
        n = sf_dir_or_n
    else:
        from open_parse_ray.sources.pages import sf_from_dir

        n = max(50, int(round(20_000 * sf_from_dir(sf_dir_or_n))))

    def gen(batch) -> pa.Table:
        ids = [int(v) for v in batch["id"]]
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(["bmp"] * len(ids), pa.string()),
                pa.array([make_dup_bmp(i) for i in ids], pa.binary()),
            ],
            names=["media_id", "kind", "payload"],
        )

    return rd.range(n).map_batches(gen, batch_format="numpy", batch_size=512)


def image_dhash_dupes(sf_dir: str):
    """Perceptual image dedup — the multimodal twin of exact_dedup:
    decode every image (real BMP decode), compute its 64-bit dHash
    (difference hash: brightness-invariant by exact integer argument,
    structural edits flip bits), group by hash, keep groups of ≥2.
    Returns (dhash, n_imgs, rep_media_id = min id).

    Scale shape: the decode+hash stage is a stateless TASK-pool map
    (small batches — wide binary rows); only the 8-byte (dhash,
    media_id) pairs enter the single hash-salted exchange, where
    per-partition grouping is exact (a hash's rows are co-located by
    construction). Images never move after decode. Gate: exact group
    equality vs a local brute-force dHash pass + the planted-pair
    recovery property (pytest; binary decode is not SQL-expressible,
    so this is a pytest-pinned tail query)."""
    import pandas as pd

    from open_parse_ray.stages.dedup import salted_groupby

    def hash_partial(t: pa.Table) -> pa.Table:
        ids, hs = [], []
        for mid, payload in zip(t["media_id"], t["payload"]):
            img = decode_bmp(payload.as_py())
            ids.append(mid.as_py())
            hs.append(dhash64(img))
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(np.array(hs, dtype=np.uint64).view(np.int64)),
            ],
            names=["media_id", "dhash"],
        )

    pairs = dup_image_table(sf_dir).map_batches(
        hash_partial, batch_format="pyarrow", batch_size=256, num_cpus=1
    )

    def group(g: "pd.DataFrame") -> "pd.DataFrame":
        agg = g.groupby("dhash", as_index=False).agg(
            n_imgs=("media_id", "size"), rep_media_id=("media_id", "min")
        )
        agg = agg[agg["n_imgs"] >= 2]
        return pd.DataFrame(
            {
                "dhash": agg["dhash"].to_numpy(dtype=np.int64),
                "n_imgs": agg["n_imgs"].to_numpy(dtype=np.int64),
                "rep_media_id": agg["rep_media_id"].to_numpy(dtype=np.int64),
            }
        )

    return salted_groupby(pairs, "dhash", group)
