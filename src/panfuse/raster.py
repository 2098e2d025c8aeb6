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

import functools
import json
import numbers
import operator
import os
import struct
import weakref
from dataclasses import dataclass, fields
from pathlib import Path
from typing import BinaryIO, Callable, Generic, Iterable, NamedTuple, Optional, Sequence, TypeVar

import numpy as np

from ._strips import _STRIP_ELEMENTS, _row_strips, _shaped
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


class _Carrier:
    """The one carrier rule for every frozen dataclass that carries arrays: a
    copy, deep copy or unpickle runs the constructor on the ``init`` fields,
    so it is checked and read-only too. Each carrier is declared ``eq=False``
    and so compares and hashes by identity, as arrays have no one truth value."""

    def __reduce__(self) -> tuple:
        return (type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init))


class _Cube:
    """The H x W x B geometry of a :class:`Raster` or :class:`_RowFile`, read off ``data.shape``."""

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True, eq=False)
class Raster(_Carrier, _Cube):
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

    A call hits an entry whose key equals its own: each int or str argument
    itself, every other one through a weak reference, which compares as its
    object does (by identity, for a carrier) and, once that object dies,
    equals only itself. The rasters and conv stacks it is given are immutable,
    so a hit holds what computing again would give. The entries are one tuple,
    replaced whole: a thread can only lose an entry, which is then computed
    again.
    """

    def __init__(self, compute: Callable[..., _T]) -> None:
        self.compute = compute
        self.entries: tuple = ()  # ((key, value), ...), most recent first

    def __call__(self, *args: object) -> _T:
        key = tuple(a if isinstance(a, (int, str)) else weakref.ref(a) for a in args)
        entries = self.entries
        for entry_key, value in entries:
            if entry_key == key:
                return value
        value = self.compute(*args)
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
    _check_finite(name, arr)
    return _frozen(arr)


def _check_finite(name: str, arr: np.ndarray) -> None:
    """The array rule's finiteness check of a C-ordered float64 array: a NaN or
    infinity is a non-finite error. It checks a strip at a time, so no mask of
    the array's size is made."""
    flat = arr.reshape(-1)
    for lo in range(0, flat.size, _STRIP_ELEMENTS):
        if not np.isfinite(flat[lo : lo + _STRIP_ELEMENTS]).all():
            raise NonFiniteRasterError(f"{name} contains non-finite values")


def _choice(name: str, value: object, choices: Sequence[str]) -> str:
    """``value`` if it is a ``str`` in ``choices``, the one rule for every mode, method,
    loss id and extractor name; else the integer rule's error, naming the choices."""
    if isinstance(value, str) and value in choices:
        return value
    accepted = ", ".join(repr(c) for c in choices) or "none"
    raise ParameterError(f"{name} must be one of {accepted}; got {value!r}")


def _finite_result(fn: Callable[..., _T]) -> Callable[..., _T]:
    """``fn`` under ``np.errstate(over="raise", invalid="raise")``: the one floating-point
    rule for every loss and metric. An overflow, an invalid operation, or a float or
    tuple-of-floats result that is not finite is a non-finite error naming ``fn``."""

    @functools.wraps(fn)
    def ruled(*args: object, **kwargs: object) -> _T:
        try:
            with np.errstate(over="raise", invalid="raise"):
                value = fn(*args, **kwargs)
            if isinstance(value, (float, tuple)) and not np.isfinite(value).all():
                raise FloatingPointError(f"{fn.__name__} returned {value}")
        except FloatingPointError as exc:
            raise NonFiniteRasterError(f"{fn.__name__} overflowed") from exc
        return value

    return ruled


def _check_bands(what: str, bands: int, minimum: int, exact: bool = False) -> int:
    """``bands`` if at least ``minimum``, or exactly it if ``exact``: the one band-count rule."""
    if bands != minimum if exact else bands < minimum:
        need = f"{'exactly' if exact else 'at least'} {minimum} band{'s' * (minimum != 1)}"
        raise ShapeMismatchError(f"{what} requires {need}, got {bands}")
    return bands


def _band_sum(cube: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The per-pixel band sum of an H x W x B array, into ``out`` if given, with
    the bits of ``np.sum(cube, axis=2)``. Below 8 bands numpy adds the bands in
    order onto +0.0, which adding whole band slices onto ``cube[:, :, 0] +
    0.0`` repeats without a per-pixel loop (the +0.0 turns an all -0.0 pixel
    into +0.0, as numpy does). From 8 bands on numpy sums pairwise, so this
    calls it."""
    if cube.shape[2] >= 8:
        return np.sum(cube, axis=2, out=out)
    total = np.add(cube[:, :, 0], 0.0, out=out)
    for b in range(1, cube.shape[2]):
        total += cube[:, :, b]
    return total


def _moments(arr: np.ndarray) -> tuple[np.float64, np.float64]:
    """(mean, variance) of a C-contiguous array, with the bits of ``np.mean``
    and ``np.var``: the one place a plane's moments are taken.

    numpy sums a contiguous array as one pairwise tree, which above 128
    elements splits at half the count rounded down to a multiple of 8. The
    variance's sum of squared deviations follows that tree down to leaves of
    at most ``_STRIP_ELEMENTS`` (:func:`_squared_deviations`), so it squares
    one leaf at a time instead of a whole deviation plane."""
    flat = arr.reshape(-1)
    mean = np.add.reduce(flat) / flat.size
    return mean, _squared_deviations(flat, mean, 0, flat.size) / flat.size


def _squared_deviations(flat: np.ndarray, mean: np.float64, lo: int, hi: int) -> np.float64:
    """The sum of ``(flat[lo:hi] - mean) ** 2`` in numpy's pairwise tree: a
    leaf is squared into a scratch of its size and summed by numpy. It
    recurses at module level: a nested function that called itself would be
    a reference cycle, keeping ``flat`` alive until the cyclic collector ran."""
    n = hi - lo
    if n <= _STRIP_ELEMENTS:
        d = np.subtract(flat[lo:hi], mean)
        return np.add.reduce(np.multiply(d, d, out=d))
    half = n // 2
    half -= half % 8
    left = _squared_deviations(flat, mean, lo, lo + half)
    return left + _squared_deviations(flat, mean, lo + half, hi)


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


@dataclass(frozen=True, eq=False)
class PatchSet(_Carrier):
    """Aligned (lrms, pan, reference) tiles cut from one scene, kept as a tuple."""

    patches: tuple[Patch, ...]
    ratio: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratio", _positive_int("ratio", self.ratio))
        patches = tuple(self.patches)
        for i, p in enumerate(patches):
            if not isinstance(p, Patch):
                raise ValueError(f"patch {i} must be a Patch, got {type(p).__name__}")
            _check_scale_pair(p.lrms, p.pan, self.ratio)
            if p.reference is not None:
                _check_scale_pair(p.lrms, p.reference, self.ratio, pan=False)
        object.__setattr__(self, "patches", patches)


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


def _existing(path: str | Path, what: str) -> Path:
    path = Path(path)
    if not path.is_file():
        if path.exists():
            raise RasterIOError(f"{what} path {path} exists but is not a file")
        raise MissingFileError(f"no such {what} file: {path}")
    return path


def _framed_header(fh: BinaryIO, path: Path, magic: bytes) -> tuple[dict, int]:
    """The header half of :func:`_read_framed`: check the magic and header
    length of ``fh``, an open framed file, and decode its JSON header. Returns
    the header and the payload's byte count, with ``fh`` at the payload."""
    head = fh.read(8)
    if head[:4] != magic:
        raise MagicError(f"{path}: bad magic {head[:4]!r}, expected {magic!r}")
    if len(head) < 8:
        raise HeaderError(f"{path}: file too short for header length field")
    (header_len,) = struct.unpack("<I", head[4:])
    rest = os.fstat(fh.fileno()).st_size - 8
    if rest < header_len:
        raise HeaderError(f"{path}: declared header length {header_len} exceeds file size")
    raw = fh.read(header_len)
    if len(raw) != header_len:
        raise RasterIOError(f"{path}: file changed while it was read")
    # ValueError covers bad UTF-8, bad JSON and integer literals too long to
    # convert; RecursionError covers a header nested too deep to decode.
    try:
        header = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise HeaderError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise HeaderError(f"{path}: header is not a JSON object")
    return header, rest - header_len


def _read_framed(path: str | Path, magic: bytes, what: str) -> tuple[dict, np.ndarray]:
    """Read a file written by :func:`_write_framed`; return (header, payload).

    The payload, the half after :func:`_framed_header`, is read straight into
    a fresh, aligned uint8 array, so a reader can view it as its element type
    without a copy.
    """
    path = _existing(path, what)
    try:
        with open(path, "rb") as fh:
            header, size = _framed_header(fh, path, magic)
            payload = np.empty(size, dtype=np.uint8)
            got = fh.readinto(payload)
    except OSError as exc:
        raise RasterIOError(f"cannot read {path}: {exc}") from exc
    if got != size:
        raise RasterIOError(f"{path}: file changed while it was read")
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


def _msr_shape(path: Path, header: dict, size: int) -> tuple[int, int, int]:
    """(height, width, bands) of an MSR ``header`` whose payload is ``size`` bytes,
    or the header or payload-size error it breaks."""
    _check_positive_ints(path, header, ("width", "height", "bands"))
    if header.get("dtype") != "f64":
        raise HeaderError(f"{path}: unsupported dtype {header.get('dtype')!r}")
    w, h, b = header["width"], header["height"], header["bands"]
    expected = w * h * b * 8
    if size != expected:
        raise PayloadSizeError(f"{path}: payload is {size} bytes, header implies {expected}")
    return h, w, b


def _non_finite(path: Path) -> NonFiniteDataError:
    return NonFiniteDataError(f"{path}: payload contains non-finite values")


def read_raster(path: str | Path) -> Raster:
    """Read an MSR file, validating magic, header, payload size, and finiteness."""
    header, payload = _read_framed(path, MSR_MAGIC, "raster")
    shape = _msr_shape(path, header, payload.size)
    try:
        return Raster._adopt(payload.view("<f8").reshape(shape))
    except NonFiniteRasterError as exc:
        raise _non_finite(path) from exc


class _RowFile(_Cube):
    """An MSR cube read by row strips from its file instead of held whole: it
    stands in for a :class:`Raster` (``height``, ``width``, ``bands``, and
    ``data``, which is the file itself) for code that reads ``data`` only in
    row slices, as every metric of ``eval`` does.

    Opening it checks the header as :func:`read_raster` does, then reads the
    payload once, strip by strip under the array rule, into one buffer, and
    keeps nothing, so a non-finite payload is refused before any metric runs.
    It holds one descriptor until :meth:`close`, or the end of its ``with``
    block. :meth:`read` reads whole rows into the caller's scratch, and
    ``data[lo:hi]`` and ``data[lo:hi, :c]`` into a fresh read-only array: each
    is one ``os.preadv`` under the array rule's finiteness check, so a file
    that shrank or took a NaN since it was opened is an IO error. Any other
    index is a ``TypeError``: nothing reads the whole cube by accident.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = _existing(path, "raster")
        try:
            self._fh = open(self.path, "rb")
        except OSError as exc:
            raise RasterIOError(f"cannot read {self.path}: {exc}") from exc
        try:
            header, size = _framed_header(self._fh, self.path, MSR_MAGIC)
            self.shape = _msr_shape(self.path, header, size)
            self._fd, self._offset = self._fh.fileno(), self._fh.tell()
            strips = _row_strips(*self.shape)
            buffer = _row_scratch(self, strips[0].stop)
            for rows in strips:
                self.read(rows, buffer)
        except BaseException:
            self._fh.close()
            raise

    @property
    def data(self) -> _RowFile:
        return self

    def read(self, rows: slice, buffer: np.ndarray) -> np.ndarray:
        """``data[rows]`` for a ``rows`` slice of step 1, read into the start of
        ``buffer``, a flat float64 scratch of at least that many values (see
        :func:`_row_scratch`), and returned as a writable view of it."""
        height, width, bands = self.shape
        lo, hi, _ = rows.indices(height)
        arr = _shaped(buffer, (max(hi - lo, 0), width, bands))
        try:
            got = os.preadv(self._fd, [arr], self._offset + lo * width * bands * 8)
        except OSError as exc:
            raise RasterIOError(f"cannot read {self.path}: {exc}") from exc
        if got != arr.nbytes:
            raise RasterIOError(f"{self.path}: file changed while it was read")
        arr = arr.view("<f8")  # the payload's byte order, on any host
        try:
            _check_finite("raster data", arr)
        except NonFiniteRasterError as exc:
            raise _non_finite(self.path) from exc
        return arr

    def __getitem__(self, index: slice | tuple[slice, slice]) -> np.ndarray:
        rows, cols = index if isinstance(index, tuple) and len(index) == 2 else (index, slice(None))
        if isinstance(rows, slice) and isinstance(cols, slice):
            lo, hi, step = rows.indices(self.height)
            start, stop, col_step = cols.indices(self.width)
            if step == col_step == 1 and start == 0:
                return _frozen(self.read(rows, _row_scratch(self, hi - lo)))[:, :stop]
        raise TypeError(f"{self.path} is read by row slices [lo:hi] or [lo:hi, :c], not {index!r}")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> _RowFile:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _row_scratch(data: np.ndarray | _RowFile, rows: int) -> Optional[np.ndarray]:
    """A flat float64 buffer to read ``rows`` rows of ``data`` into if it is a
    :class:`_RowFile`, else None: an array's rows are views and need none."""
    if isinstance(data, _RowFile):
        return np.empty(max(rows, 0) * data.width * data.bands)
    return None


def _rows(data: np.ndarray | _RowFile, rows: slice, buffer: Optional[np.ndarray]) -> np.ndarray:
    """``data[rows]`` in a strip: a view of an array's rows, or a row file's
    rows read into ``buffer``, the calling thread's scratch, which is never
    frozen and never leaves the strip that reads into it."""
    return data.read(rows, buffer) if isinstance(data, _RowFile) else data[rows]


def _normalized_weights(pan_weights: Sequence[float], bands: int) -> np.ndarray:
    """``pan_weights`` over their sum, or the usage error they break: one
    finite, nonnegative weight per band with a finite positive sum."""
    weights = np.asarray(pan_weights, dtype=object)
    if weights.shape != (bands,):
        raise ParameterError(f"pan_weights length {weights.size} does not match band count {bands}")
    w = np.array([_finite_real("pan weight", v) for v in weights], dtype=np.float64)
    if np.any(w < 0):
        raise ParameterError("pan_weights must be nonnegative")
    with np.errstate(over="ignore"):
        total = w.sum()
    if not np.isfinite(total) or total <= 0:
        raise ParameterError("pan_weights must have a finite positive sum")
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
    return PatchSet(patches=patches, ratio=ratio)
