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

from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import (
    HeaderError,
    NonFiniteDataError,
    PayloadSizeError,
    ShapeMismatchError,
    UsageError,
)
from .raster import Raster, _check_positive_ints, _read_framed, _write_framed

CSW_MAGIC = b"CSW1"

IDENTITY = "identity"


@dataclass(frozen=True, eq=False)
class ConvLayer:
    """One convolution layer: weights (out, in, k, k), per-out-channel bias."""

    weights: np.ndarray
    bias: np.ndarray
    stride: int
    leaky_slope: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ValueError(f"layer weights must be (out, in, k, k), got {w.shape}")
        if w.shape[2] % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {w.shape[2]}")
        if b.shape != (w.shape[0],):
            raise ValueError(f"bias shape {b.shape} does not match out={w.shape[0]}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("layer weights must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

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
    """Validated chain of conv layers with a declared input band count."""

    bands: int
    layers: tuple[ConvLayer, ...]

    def __post_init__(self) -> None:
        if self.bands < 1:
            raise ValueError(f"declared bands must be >= 1, got {self.bands}")
        if not self.layers:
            raise ValueError("conv stack needs at least one layer")
        expected = self.bands
        for i, layer in enumerate(self.layers):
            if layer.in_channels != expected:
                raise ValueError(
                    f"layer {i} expects {layer.in_channels} input channels, "
                    f"previous stage provides {expected}"
                )
            expected = layer.out_channels

    @property
    def out_channels(self) -> int:
        return self.layers[-1].out_channels


Extractor = Union[str, ConvStackSpec]


def save_conv_stack(spec: ConvStackSpec, path: str | Path) -> None:
    """Write ``spec`` as a CSW file. Weights are serialized as float32."""
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
    chunks = (
        arr.astype("<f4").tobytes(order="C")
        for layer in spec.layers
        for arr in (layer.weights, layer.bias)
    )
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
        try:
            slope = float(meta["slope"])
        except (KeyError, TypeError, ValueError) as exc:
            raise HeaderError(f"{path}: layer {i} metadata invalid: {exc}") from exc
        out_c, in_c, k = meta["out"], meta["in"], meta["k"]
        n_w, n_b = out_c * in_c * k * k, out_c
        end = offset + 4 * (n_w + n_b)
        if end > len(payload):
            raise PayloadSizeError(f"{path}: layer {i} weights truncated")
        w = np.frombuffer(payload[offset : offset + 4 * n_w], dtype="<f4").astype(np.float64)
        b = np.frombuffer(payload[offset + 4 * n_w : end], dtype="<f4").astype(np.float64)
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise NonFiniteDataError(f"{path}: layer {i} has non-finite weights")
        try:
            layers.append(
                ConvLayer(
                    weights=w.reshape(out_c, in_c, k, k),
                    bias=b,
                    stride=meta["stride"],
                    leaky_slope=slope,
                )
            )
        except ValueError as exc:
            raise HeaderError(f"{path}: layer {i}: {exc}") from exc
        offset = end
    if offset != len(payload):
        raise PayloadSizeError(f"{path}: {len(payload) - offset} trailing bytes")
    try:
        return ConvStackSpec(bands=header["bands"], layers=tuple(layers))
    except ValueError as exc:
        raise HeaderError(f"{path}: {exc}") from exc


def _apply_layer(arr: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Zero-padded strided cross-correlation + bias + leaky-ReLU."""
    k = layer.kernel_size
    pad = k // 2
    padded = np.pad(arr, ((pad, pad), (pad, pad), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(0, 1))
    windows = windows[:: layer.stride, :: layer.stride]
    out = np.einsum("hwcij,ocij->hwo", windows, layer.weights) + layer.bias
    return np.where(out > 0, out, layer.leaky_slope * out)


def extract_features(x: Raster, extractor: Extractor) -> Raster:
    """Map an image into feature space.

    ``extractor`` is either the string ``"identity"`` (features are the
    raster itself, bit-equal) or a :class:`ConvStackSpec`, applied layer by
    layer. Dropout from training-time variants is never applied here.
    """
    if isinstance(extractor, str):
        if extractor != IDENTITY:
            raise UsageError(f"unknown extractor {extractor!r}")
        return x
    if x.bands != extractor.bands:
        raise ShapeMismatchError(
            f"raster has {x.bands} bands, extractor expects {extractor.bands}"
        )
    arr = x.data
    with np.errstate(over="ignore", invalid="ignore"):  # Raster rejects a non-finite result
        for layer in extractor.layers:
            arr = _apply_layer(arr, layer)
    return Raster(arr)
