"""Feature extractors for perceptual losses.

Either the identity (features are the image itself) or a small loadable
stack of strided convolutions with leaky-ReLU activations, standing in
for the bottleneck of a pretrained encoder. Weights come from CSW files;
training is out of scope, so extraction is deterministic inference only.

CSW file layout (the framing of :mod:`panfuse.raster`'s MSR files):
    bytes 0-3   magic ``CSW1``
    bytes 4-7   little-endian u32 JSON header length
    header      {"bands": B, "layers": [{"out", "in", "k", "stride", "slope"}, ...]}
    per layer   float32 weights (out*in*k*k, row-major) then out float32 biases
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .errors import HeaderError, NonFiniteDataError, NonFiniteRasterError, PayloadSizeError
from .raster import (
    Raster,
    _LastTwo,
    _check_bands,
    _check_positive_ints,
    _choice,
    _finite_real,
    _frozen,
    _positive_int,
    _read_framed,
    _real_array,
    _write_framed,
)

CSW_MAGIC = b"CSW1"

IDENTITY = "identity"


@dataclass(frozen=True, eq=False)
class ConvLayer:
    """One convolution layer: weights (out, in, k, k), per-out-channel bias.

    The layer holds read-only float64 copies of the weights and bias, so a
    caller's later edit of its own arrays does not reach it.
    """

    weights: np.ndarray
    bias: np.ndarray
    stride: int
    leaky_slope: float
    # The weights laid out (k, k, in, out), C-contiguous: a strided (in, out)
    # slice of the (out, in, k, k) weights would not reach BLAS.
    _taps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        w = _real_array("layer weights", self.weights)
        b = _real_array("layer bias", self.bias)
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ValueError(f"layer weights must be (out, in, k, k), got {w.shape}")
        if w.shape[2] % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {w.shape[2]}")
        if b.shape != (w.shape[0],):
            raise ValueError(f"bias shape {b.shape} does not match out={w.shape[0]}")
        stride = _positive_int("stride", self.stride)
        slope = _finite_real("leaky slope", self.leaky_slope)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_taps", _frozen(np.ascontiguousarray(w.transpose(2, 3, 1, 0))))
        object.__setattr__(self, "bias", b)
        object.__setattr__(self, "stride", stride)
        object.__setattr__(self, "leaky_slope", slope)

    def __reduce__(self) -> tuple:
        """Copy and unpickle through the constructor, so a copy's arrays are
        read-only too."""
        return (ConvLayer, (self.weights, self.bias, self.stride, self.leaky_slope))

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]


@dataclass(frozen=True, eq=False)
class ConvStackSpec:
    """Validated chain of conv layers, kept as a tuple, with a declared input
    band count."""

    bands: int
    layers: tuple[ConvLayer, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bands", _positive_int("declared bands", self.bands))
        layers = tuple(self.layers or ())
        if not layers:
            raise ValueError("conv stack needs at least one layer")
        expected = self.bands
        for i, layer in enumerate(layers):
            if not isinstance(layer, ConvLayer):
                raise ValueError(f"layer {i} must be a ConvLayer, got {type(layer).__name__}")
            if layer.in_channels != expected:
                raise ValueError(
                    f"layer {i} expects {layer.in_channels} input channels, "
                    f"previous stage provides {expected}"
                )
            expected = layer.out_channels
        object.__setattr__(self, "layers", layers)

    @property
    def out_channels(self) -> int:
        return self.layers[-1].out_channels


Extractor = Union[str, ConvStackSpec]


def save_conv_stack(spec: ConvStackSpec, path: str | Path) -> None:
    """Write ``spec`` as a CSW file. Weights are serialized as float32;
    values beyond the float32 range are refused before the file is opened."""
    header = {
        "bands": spec.bands,
        "layers": [
            {
                "out": l.out_channels,
                "in": l.in_channels,
                "k": l.kernel_size,
                "stride": l.stride,
                "slope": l.leaky_slope,
            }
            for l in spec.layers
        ],
    }
    chunks = []
    for i, layer in enumerate(spec.layers):
        for arr in (layer.weights, layer.bias):
            with np.errstate(over="ignore"):  # an overflow to inf is refused below
                f32 = arr.astype("<f4")
            if not np.all(np.isfinite(f32)):
                raise NonFiniteDataError(f"{path}: layer {i} has values beyond the float32 range")
            chunks.append(f32.tobytes(order="C"))
    _write_framed(path, CSW_MAGIC, header, chunks, "conv stack")


def load_conv_stack(path: str | Path) -> ConvStackSpec:
    """Load and validate a CSW weights file."""
    header, payload = _read_framed(path, CSW_MAGIC, "weights")
    _check_positive_ints(path, header, ("bands",))
    if not isinstance(header.get("layers"), list):
        raise HeaderError(f"{path}: header field 'layers' missing or not a list")

    offset = 0
    layers = []
    for i, meta in enumerate(header["layers"]):
        _check_positive_ints(f"{path}: layer {i}", meta, ("out", "in", "k", "stride"))
        out_c, in_c, k = meta["out"], meta["in"], meta["k"]
        n_w, n_b = out_c * in_c * k * k, out_c
        end = offset + 4 * (n_w + n_b)
        if end > len(payload):
            raise PayloadSizeError(f"{path}: layer {i} weights truncated")
        w = np.frombuffer(payload[offset : offset + 4 * n_w], dtype="<f4")
        b = np.frombuffer(payload[offset + 4 * n_w : end], dtype="<f4")
        try:
            layers.append(
                ConvLayer(
                    weights=w.reshape(out_c, in_c, k, k),
                    bias=b,
                    stride=meta["stride"],
                    leaky_slope=meta.get("slope"),
                )
            )
        except NonFiniteRasterError as exc:
            raise NonFiniteDataError(f"{path}: layer {i} has non-finite weights") from exc
        except ValueError as exc:
            raise HeaderError(f"{path}: layer {i}: {exc}") from exc
        offset = end
    if offset != len(payload):
        raise PayloadSizeError(f"{path}: {len(payload) - offset} trailing bytes")
    try:
        return ConvStackSpec(bands=header["bands"], layers=tuple(layers))
    except ValueError as exc:
        raise HeaderError(f"{path}: {exc}") from exc


def _leaky_relu(out: np.ndarray, slope: float) -> None:
    """x -> x if x > 0 else slope * x, in place.

    One elementwise max (slope <= 1) or min (slope > 1) of x and slope * x:
    the bits of multiplying the x <= 0 entries by the slope, without a branch
    per element. A slope whose sign bit is set keeps that masked multiply:
    there x and slope * x of a zero x are zeros of opposite signs, and numpy
    leaves open which of the two a max or min returns.
    """
    if math.copysign(1.0, slope) < 0:
        np.multiply(out, slope, out=out, where=out <= 0)
    elif slope <= 1.0:
        np.maximum(out * slope, out, out=out)
    else:
        np.minimum(out * slope, out, out=out)


def _apply_layer(arr: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Zero-padded strided cross-correlation + bias + leaky-ReLU.

    One (H'*W' x C) @ (C x O) product per tap (i, j), on a strided view of
    the padded input, accumulated in (i, j) order onto the bias.
    """
    k, s = layer.kernel_size, layer.stride
    pad = k // 2
    height, width = arr.shape[:2]
    padded = np.zeros((height + 2 * pad, width + 2 * pad, arr.shape[2]))
    padded[pad : pad + height, pad : pad + width] = arr
    h, w = (height - 1) // s + 1, (width - 1) // s + 1
    out = np.empty((h, w, layer.out_channels))
    out[...] = layer.bias
    term = np.empty_like(out)
    for i in range(k):
        for j in range(k):
            np.matmul(padded[i::s, j::s][:h, :w], layer._taps[i, j], out=term)
            out += term
    _leaky_relu(out, layer.leaky_slope)
    return out


def extract_features(x: Raster, extractor: Extractor) -> Raster:
    """Map an image into feature space.

    ``extractor`` is either the string ``"identity"`` (features are the
    raster itself, bit-equal) or a :class:`ConvStackSpec`, applied layer by
    layer. Dropout from training-time variants is never applied here. A
    stack's read-only features of ``x`` are remembered: asked again for
    ``x`` itself with the same stack, as one of the last two such calls in
    the process, it returns the same ``Raster`` object.
    """
    if not isinstance(extractor, ConvStackSpec):
        _choice("extractor", extractor, (IDENTITY,))
        return x
    _check_bands("extractor", x.bands, extractor.bands, exact=True)
    return _stack_features(x, extractor)


@_LastTwo
def _stack_features(x: Raster, stack: ConvStackSpec) -> Raster:
    """The features of ``x`` through every layer of ``stack``."""
    arr = x.data
    with np.errstate(over="ignore", invalid="ignore"):  # Raster rejects a non-finite result
        for layer in stack.layers:
            arr = _apply_layer(arr, layer)
    return Raster._adopt(arr)
