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
import numbers
import operator
import os
import struct
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Generic, Iterable, NamedTuple, Optional, Sequence, TypeVar

import numpy as np

from ._strips import _row_strips
from .errors import (
    HeaderError,
    MagicError,
    MissingFileError,
    NonFiniteDataError,
    NonFiniteRasterError,
    ParameterError,
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
        object.__setattr__(self, "data", _checked(_real_array("raster data", self.data)))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> Raster:
        """Wrap ``arr``, an array no other code holds, without the copy the
        constructor makes; the checks are the same."""
        raster = object.__new__(cls)
        object.__setattr__(raster, "data", _checked(_real_array("raster data", arr, copy=False)))
        return raster

    def __reduce__(self) -> tuple:
        """Copy and unpickle through the constructor, so a copy's data is
        checked and read-only too."""
        return (Raster, (self.data,))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> int:
        return self.data.shape[2]


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a read-only view whose every base array is read-only too:
    numpy lets the writeable flag of an array that owns its memory, or of a
    view with a writeable base, be set again, but not of such a view."""
    base = arr
    while isinstance(base, np.ndarray):
        base.flags.writeable = False
        base = base.base
    return arr.view()


def _checked(arr: np.ndarray) -> np.ndarray:
    """``arr``, a :func:`_real_array`, as an H x W x B cube, or the shape error it breaks."""
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise RasterShapeError(f"raster data must be 2-D or 3-D, got ndim={arr.ndim}")
    if min(arr.shape) < 1:
        raise RasterShapeError(f"raster dimensions must all be >= 1, got {arr.shape}")
    return arr


_T = TypeVar("_T")


class _LastTwo(Generic[_T]):
    """``compute``, remembering the values of its last two calls.

    A call matches an entry when each argument that is an int or a str equals
    the entry's and every other argument is the entry's object itself, held
    through a weak reference, which an object that died never matches; the
    rasters and conv stacks it is given are immutable, so a match holds what
    computing again would give. The entries are one tuple, replaced whole: a
    thread can only lose an entry, which is then computed again.
    """

    def __init__(self, compute: Callable[..., _T]) -> None:
        self.compute = compute
        self.entries: tuple = ()  # ((key, value), ...), most recent first

    def __call__(self, *args: object) -> _T:
        entries = self.entries
        for key, value in entries:
            if all(k() is a if isinstance(k, weakref.ref) else k == a for k, a in zip(key, args)):
                return value
        value = self.compute(*args)
        key = tuple(a if isinstance(a, (int, str)) else weakref.ref(a) for a in args)
        self.entries = ((key, value), *entries[:1])
        return value


def _positive_int(name: str, value: object, minimum: int = 1) -> int:
    """``value`` as a plain ``int`` >= ``minimum``: the one rule for every
    integer parameter. A bool, float or other non-integer breaks it too, with
    an error that is both a usage error and a ``ValueError``."""
    if isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    try:
        number = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if number < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {number}")
    return number


def _real(name: str, value: object) -> float:
    """``value`` as a plain ``float`` unless it is a bool or no real number: the
    type half of :func:`_finite_real`, which a discriminator score follows too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ParameterError(f"{name} must be finite: {exc}") from None


def _finite_real(name: str, value: object, positive: bool = False) -> float:
    """``value`` as a finite ``float``, above 0 if ``positive``: the one rule for
    every real parameter (weight, slope, step), with the integer rule's error."""
    number = _real(name, value)
    if not np.isfinite(number) or (positive and number <= 0):
        raise ParameterError(f"{name} must be finite{' and positive' * positive}, got {number}")
    return number


def _real_array(name: str, value: object, copy: bool = True) -> np.ndarray:
    """``value`` as a :func:`_frozen` C-ordered float64 array, copied unless not ``copy``:
    the one rule for every input array. A bool, int or float array is cast in that one
    copy; any other value gets the integer rule's error, and a NaN or infinity a non-finite one."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:  # ValueError: a ragged list
        raise ParameterError(f"{name} must be an array of real numbers: {exc}") from None
    if arr.dtype.kind not in "biuf":
        raise ParameterError(f"{name} must be an array of real numbers, got dtype {arr.dtype}")
    arr = (np.array if copy else np.asarray)(arr, dtype=np.float64, order="C")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteRasterError(f"{name} contains non-finite values")
    return _frozen(arr)


def _choice(name: str, value: object, choices: Sequence[str]) -> str:
    """``value`` if it is a ``str`` in ``choices``, the one rule for every mode, method,
    loss id and extractor name; else the integer rule's error, naming the choices."""
    if isinstance(value, str) and value in choices:
        return value
    accepted = ", ".join(repr(c) for c in choices) or "none"
    raise ParameterError(f"{name} must be one of {accepted}; got {value!r}")


def _check_bands(what: str, bands: int, minimum: int, exact: bool = False) -> int:
    """``bands`` if at least ``minimum``, or exactly it if ``exact``: the one band-count rule."""
    if bands != minimum if exact else bands < minimum:
        need = f"{'exactly' if exact else 'at least'} {minimum} band{'s' * (minimum != 1)}"
        raise ShapeMismatchError(f"{what} requires {need}, got {bands}")
    return bands


def _band_sum(cube: np.ndarray) -> np.ndarray:
    """The per-pixel band sum of an H x W x B array, with the bits of
    ``np.sum(cube, axis=2)``. Below 8 bands numpy adds the bands in order
    onto +0.0, which adding whole band slices onto ``cube[:, :, 0] + 0.0``
    repeats without a per-pixel loop (the +0.0 turns an all -0.0 pixel into
    +0.0, as numpy does). From 8 bands on numpy sums pairwise, so this calls
    it."""
    if cube.shape[2] >= 8:
        return np.sum(cube, axis=2)
    total = cube[:, :, 0] + 0.0
    for b in range(1, cube.shape[2]):
        total += cube[:, :, b]
    return total


def _check_same_shape(a: Raster, b: Raster) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(
            f"raster shapes differ: {a.data.shape} vs {b.data.shape}"
        )


def _check_scale_pair(lr: Raster, hr: Raster, ratio: int, pan: bool = True) -> int:
    """``ratio`` as a plain int; raise unless ``hr`` is ``ratio`` times ``lr`` in
    height and width and is a single pan band (``pan``) or has as many bands as
    ``lr`` (``not pan``)."""
    ratio = _positive_int("ratio", ratio)
    if pan:
        _check_bands("pan", hr.bands, 1, exact=True)
    elif hr.bands != lr.bands:
        raise ShapeMismatchError(f"band counts differ: {hr.bands} vs {lr.bands}")
    if (hr.height, hr.width) != (ratio * lr.height, ratio * lr.width):
        raise ShapeMismatchError(
            f"{'pan' if pan else 'high-resolution'} dims {hr.height}x{hr.width} != "
            f"ratio {ratio} * {lr.height}x{lr.width}"
        )
    return ratio


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
        object.__setattr__(self, "ratio", _positive_int("ratio", self.ratio))
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
    """``fields`` must be a JSON object whose ``keys`` are integers >= 1."""
    for key in keys:
        try:
            _positive_int(key, fields.get(key) if isinstance(fields, dict) else None)
        except ParameterError:
            raise HeaderError(f"{where}: header field {key!r} missing or invalid") from None


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


def _normalized_weights(pan_weights: Sequence[float], bands: int) -> np.ndarray:
    """``pan_weights`` over their sum, or the usage error they break: one
    finite, nonnegative weight per band with a finite positive sum."""
    weights = np.asarray(pan_weights, dtype=object)
    if weights.shape != (bands,):
        raise UsageError(f"pan_weights length {weights.size} does not match band count {bands}")
    w = np.array([_finite_real("pan weight", v) for v in weights], dtype=np.float64)
    if np.any(w < 0):
        raise UsageError("pan_weights must be nonnegative")
    with np.errstate(over="ignore"):
        total = w.sum()
    if not np.isfinite(total) or total <= 0:
        raise UsageError("pan_weights must have a finite positive sum")
    return w / total


def pan_from_weights(hrms: Raster, pan_weights: Sequence[float]) -> Raster:
    """Simulate a panchromatic band as the normalized weighted band sum."""
    w = _normalized_weights(pan_weights, hrms.bands)
    pan = np.tensordot(hrms.data, w, axes=([2], [0]))
    return Raster._adopt(pan[:, :, None])


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
    output. Every random parameter is drawn first; each band is then
    filled in the row strips of :func:`_row_strips`.
    """
    width, height = _positive_int("width", width, 8), _positive_int("height", height, 8)
    bands, seed = _positive_int("bands", bands), _positive_int("seed", seed, 0)
    _normalized_weights(pan_weights, bands)
    try:
        cube = np.empty((height, width, bands), dtype=np.float64)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        raise UsageError(f"scene {width}x{height}x{bands} too large to allocate") from exc

    rng = np.random.default_rng(seed)
    # Per band: (theta, base, gradient amplitude), then six ellipses.
    scene = []
    for _ in range(bands):
        gradient = (
            rng.uniform(0.0, 2.0 * np.pi),
            rng.uniform(0.35, 0.55),
            rng.uniform(0.1, 0.25),
        )
        ellipses = [
            (
                *rng.uniform(0.1, 0.9, size=2),
                *rng.uniform(0.06, 0.25, size=2),
                rng.uniform(0.0, np.pi),
                rng.uniform(-0.3, 0.3),
                rng.uniform(0.01, 0.05),
            )
            for _ in range(6)
        ]
        scene.append((gradient, ellipses))

    # A 1 x W row and a strip's column of y coordinates; each expression
    # broadcasts them with the operands in the order a full meshgrid would use.
    xx = np.linspace(0.0, 1.0, width)[None, :]
    y_all = np.linspace(0.0, 1.0, height)[:, None]
    for rows in _row_strips(height, width, 1):  # the strip arrays are per band
        yy = y_all[rows]
        for b, ((theta, base, grad_amp), ellipses) in enumerate(scene):
            img = base + grad_amp * (
                (xx - 0.5) * np.cos(theta) + (yy - 0.5) * np.sin(theta)
            )
            for cx, cy, rx, ry, phi, amp, soft in ellipses:
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
            cube[rows, :, b] = np.clip(img, 0.0, 1.0, out=img)

    hrms = Raster._adopt(cube)
    return hrms, pan_from_weights(hrms, pan_weights)


def patchify(ms: Raster, pan: Raster, patch: int, ratio: int) -> PatchSet:
    """Cut non-overlapping aligned tiles; partial edge tiles are discarded.

    Pan tiles are ``patch`` x ``patch``; the matching ms tiles are
    ``patch/ratio`` squared. References stay empty until a degradation
    step fills them. Pixel values are exact sub-windows of the inputs.
    """
    ratio, patch = _check_scale_pair(ms, pan, ratio), _positive_int("patch size", patch)
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
