"""Image cube type, MSR file IO, synthetic scenes, and patch extraction.

A raster is an H x W x B cube of finite 64-bit floats, nominally in
[0, 1], band-interleaved-by-pixel (C order). It is the carrier for every
image in the toolkit: multispectral cubes, single-band panchromatic
images, fused outputs, and feature maps.

MSR file layout:
    bytes 0-3    magic ``MSR1``
    bytes 4-7    little-endian u32 header length N
    bytes 8-8+N  UTF-8 JSON {"width": W, "height": H, "bands": B, "dtype": "f64"}
    payload      W*H*B little-endian float64, row-major, band-interleaved

The magic + length + JSON header framing is shared with the CSW weights
format of :mod:`panfuse.features`.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    HeaderError,
    MagicError,
    MissingFileError,
    NonFiniteDataError,
    NonFiniteRasterError,
    PayloadSizeError,
    RasterIOError,
    RasterShapeError,
    ShapeMismatchError,
    UsageError,
)

MSR_MAGIC = b"MSR1"


@dataclass(frozen=True)
class Raster:
    """Immutable H x W x B image cube of finite float64 values."""

    data: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _checked(np.array(self.data, dtype=np.float64, order="C")))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> Raster:
        """Wrap ``arr``, an array no other code holds, without the copy the
        constructor makes; the checks are the same."""
        raster = object.__new__(cls)
        object.__setattr__(raster, "data", _checked(np.asarray(arr, dtype=np.float64, order="C")))
        return raster

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> int:
        return self.data.shape[2]

    def band(self, b: int) -> np.ndarray:
        """Read-only 2-D view of band ``b``."""
        return self.data[:, :, b]


def _checked(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a read-only H x W x B cube, or the error it breaks."""
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise RasterShapeError(f"raster data must be 2-D or 3-D, got ndim={arr.ndim}")
    if min(arr.shape) < 1:
        raise RasterShapeError(f"raster dimensions must all be >= 1, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteRasterError("raster data contains non-finite values")
    arr.flags.writeable = False
    return arr


def _check_same_shape(a: Raster, b: Raster) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(
            f"raster shapes differ: {a.data.shape} vs {b.data.shape}"
        )


def _check_scale_pair(lr: Raster, hr: Raster, ratio: int, pan: bool = True) -> None:
    """Raise unless ``hr`` is ``ratio`` times ``lr`` in height and width and is
    a single pan band (``pan``) or has as many bands as ``lr`` (``not pan``)."""
    if ratio < 1:
        raise UsageError(f"ratio must be >= 1, got {ratio}")
    if pan and hr.bands != 1:
        raise ShapeMismatchError(f"pan must be single band, got {hr.bands} bands")
    if not pan and hr.bands != lr.bands:
        raise ShapeMismatchError(f"band counts differ: {hr.bands} vs {lr.bands}")
    if (hr.height, hr.width) != (ratio * lr.height, ratio * lr.width):
        raise ShapeMismatchError(
            f"{'pan' if pan else 'high-resolution'} dims {hr.height}x{hr.width} != "
            f"ratio {ratio} * {lr.height}x{lr.width}"
        )


class Patch(NamedTuple):
    lrms: Raster
    pan: Raster
    reference: Optional[Raster]


@dataclass(frozen=True)
class PatchSet:
    """Aligned (lrms, pan, reference) tiles cut from one scene."""

    patches: tuple[Patch, ...]
    ratio: int

    def __post_init__(self) -> None:
        for p in self.patches:
            _check_scale_pair(p.lrms, p.pan, self.ratio)
            if p.reference is not None:
                _check_scale_pair(p.lrms, p.reference, self.ratio, pan=False)


def _write_framed(
    path: str | Path,
    magic: bytes,
    header: dict,
    chunks: Iterable[bytes | memoryview],
    what: str,
) -> None:
    """Write ``magic``, the u32 header length, the JSON header, then ``chunks``."""
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(magic)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise RasterIOError(f"cannot write {what} to {path}: {exc}") from exc


def _read_framed(path: str | Path, magic: bytes, what: str) -> tuple[dict, np.ndarray]:
    """Read a file written by :func:`_write_framed`; return (header, payload).

    The payload is read straight into a fresh, aligned uint8 array, so a
    reader can view it as its element type without a copy.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"no such {what} file: {path}")
    try:
        with open(path, "rb") as fh:
            head = fh.read(8)
            if head[:4] != magic:
                raise MagicError(f"{path}: bad magic {head[:4]!r}, expected {magic!r}")
            if len(head) < 8:
                raise HeaderError(f"{path}: file too short for header length field")
            (header_len,) = struct.unpack("<I", head[4:])
            rest = os.fstat(fh.fileno()).st_size - 8
            if rest < header_len:
                raise HeaderError(
                    f"{path}: declared header length {header_len} exceeds file size"
                )
            raw = fh.read(header_len)
            payload = np.empty(rest - header_len, dtype=np.uint8)
            got = fh.readinto(payload)
    except OSError as exc:
        raise RasterIOError(f"cannot read {path}: {exc}") from exc
    if len(raw) != header_len or got != payload.size:
        raise RasterIOError(f"{path}: file changed while it was read")
    # ValueError covers bad UTF-8, bad JSON and integer literals too long to
    # convert; RecursionError covers a header nested too deep to decode.
    try:
        header = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise HeaderError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise HeaderError(f"{path}: header is not a JSON object")
    return header, payload


def _check_positive_ints(where: object, fields: object, keys: Sequence[str]) -> None:
    """``fields`` must be a JSON object whose ``keys`` are integers >= 1.

    The test is ``type(v) is int``: JSON ``true`` parses to a bool, which
    ``isinstance(v, int)`` would accept.
    """
    for key in keys:
        value = fields.get(key) if isinstance(fields, dict) else None
        if type(value) is not int or value < 1:
            raise HeaderError(f"{where}: header field {key!r} missing or invalid")


def write_raster(raster: Raster, path: str | Path) -> None:
    """Write ``raster`` to ``path`` in MSR format (bit-exact round trip)."""
    header = {
        "width": raster.width,
        "height": raster.height,
        "bands": raster.bands,
        "dtype": "f64",
    }
    payload = memoryview(np.ascontiguousarray(raster.data, dtype="<f8")).cast("B")
    _write_framed(path, MSR_MAGIC, header, [payload], "raster")


def read_raster(path: str | Path) -> Raster:
    """Read an MSR file, validating magic, header, payload size, and finiteness."""
    header, payload = _read_framed(path, MSR_MAGIC, "raster")
    _check_positive_ints(path, header, ("width", "height", "bands"))
    if header.get("dtype") != "f64":
        raise HeaderError(f"{path}: unsupported dtype {header.get('dtype')!r}")

    w, h, b = header["width"], header["height"], header["bands"]
    expected = w * h * b * 8
    if len(payload) != expected:
        raise PayloadSizeError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}"
        )
    try:
        return Raster._adopt(payload.view("<f8").reshape(h, w, b))
    except NonFiniteRasterError as exc:
        raise NonFiniteDataError(f"{path}: payload contains non-finite values") from exc


def pan_from_weights(hrms: Raster, pan_weights: Sequence[float]) -> Raster:
    """Simulate a panchromatic band as the normalized weighted band sum."""
    w = np.asarray(pan_weights, dtype=np.float64)
    if w.shape != (hrms.bands,):
        raise UsageError(
            f"pan_weights length {w.size} does not match band count {hrms.bands}"
        )
    if np.any(w < 0):
        raise UsageError("pan_weights must be nonnegative")
    total = w.sum()
    if total <= 0:
        raise UsageError("pan_weights must have a positive sum")
    pan = np.tensordot(hrms.data, w / total, axes=([2], [0]))
    return Raster(pan[:, :, None])


def synth_scene(
    width: int,
    height: int,
    bands: int,
    seed: int,
    pan_weights: Sequence[float],
) -> tuple[Raster, Raster]:
    """Generate a deterministic (hrms, pan) pair for pipeline experiments.

    Each band is a linear gradient plus a handful of smoothed ellipses,
    clipped to [0, 1], so scenes carry both low-frequency content and
    edges. The pan band is the normalized ``pan_weights`` combination of
    the multispectral bands. Identical arguments give bit-identical
    output.
    """
    if width < 8 or height < 8:
        raise UsageError(f"scene dimensions must be >= 8, got {width}x{height}")
    if bands < 1:
        raise UsageError(f"band count must be >= 1, got {bands}")
    w = np.asarray(pan_weights, dtype=np.float64)
    if w.shape != (bands,):
        raise UsageError(f"pan_weights length {w.size} does not match bands {bands}")
    if np.any(w < 0) or w.sum() <= 0:
        raise UsageError("pan_weights must be nonnegative with a positive sum")

    rng = np.random.default_rng(seed)
    # A 1 x W row and an H x 1 column; each expression broadcasts them to
    # H x W with the operands in the order a full meshgrid would use.
    xx = np.linspace(0.0, 1.0, width)[None, :]
    yy = np.linspace(0.0, 1.0, height)[:, None]
    cube = np.empty((height, width, bands), dtype=np.float64)
    for b in range(bands):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        base = rng.uniform(0.35, 0.55)
        grad_amp = rng.uniform(0.1, 0.25)
        img = base + grad_amp * (
            (xx - 0.5) * np.cos(theta) + (yy - 0.5) * np.sin(theta)
        )
        for _ in range(6):
            cx, cy = rng.uniform(0.1, 0.9, size=2)
            rx, ry = rng.uniform(0.06, 0.25, size=2)
            phi = rng.uniform(0.0, np.pi)
            amp = rng.uniform(-0.3, 0.3)
            soft = rng.uniform(0.01, 0.05)
            dx, dy = xx - cx, yy - cy
            u = (dx * np.cos(phi) + dy * np.sin(phi)) / rx
            v = (-dx * np.sin(phi) + dy * np.cos(phi)) / ry
            d = np.sqrt(u * u + v * v)
            # The soft edge amp / (1 + exp(clip((d - 1) / soft, -60, 60))), in place.
            d -= 1.0
            d /= soft
            np.clip(d, -60.0, 60.0, out=d)
            np.exp(d, out=d)
            d += 1.0
            img += np.divide(amp, d, out=d)
        cube[:, :, b] = np.clip(img, 0.0, 1.0)

    hrms = Raster(cube)
    return hrms, pan_from_weights(hrms, pan_weights)


def patchify(ms: Raster, pan: Raster, patch: int, ratio: int) -> PatchSet:
    """Cut non-overlapping aligned tiles; partial edge tiles are discarded.

    Pan tiles are ``patch`` x ``patch``; the matching ms tiles are
    ``patch/ratio`` squared. References stay empty until a degradation
    step fills them. Pixel values are exact sub-windows of the inputs.
    """
    _check_scale_pair(ms, pan, ratio)
    if patch % ratio != 0:
        raise UsageError(f"patch size {patch} not divisible by ratio {ratio}")
    mp = patch // ratio
    patches = []
    for py in range(pan.height // patch):
        for px in range(pan.width // patch):
            pr, pc = py * patch, px * patch
            mr, mc = py * mp, px * mp
            patches.append(
                Patch(
                    lrms=Raster(ms.data[mr : mr + mp, mc : mc + mp, :]),
                    pan=Raster(pan.data[pr : pr + patch, pc : pc + patch, :]),
                    reference=None,
                )
            )
    return PatchSet(patches=tuple(patches), ratio=ratio)
