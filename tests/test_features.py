"""Feature extractors: identity, conv stacks, and the CSW weights format."""

import json
import struct

import numpy as np
import pytest

from panfuse import (
    ConvLayer,
    ConvStackSpec,
    IDENTITY,
    Raster,
    extract_features,
    load_conv_stack,
    save_conv_stack,
)
from panfuse.errors import HeaderError, MagicError, ShapeMismatchError
from helpers import random_raster


def single_layer(weights, bias, stride=1, slope=0.0, bands=None):
    w = np.asarray(weights, dtype=np.float64)
    layer = ConvLayer(weights=w, bias=np.asarray(bias, dtype=np.float64),
                      stride=stride, leaky_slope=slope)
    return ConvStackSpec(bands=bands if bands is not None else w.shape[1],
                         layers=(layer,))


def random_stack(seed):
    rng = np.random.default_rng(seed)

    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32).astype(np.float64)

    l0 = ConvLayer(weights=f32(3, 2, 3, 3), bias=f32(3), stride=1, leaky_slope=0.1)
    l1 = ConvLayer(weights=f32(5, 3, 5, 5), bias=f32(5), stride=2, leaky_slope=0.2)
    return ConvStackSpec(bands=2, layers=(l0, l1))


class TestIdentity:
    def test_identity_is_exact(self):
        x = random_raster(0, 8, 8, 3)
        out = extract_features(x, IDENTITY)
        assert out is x


class TestConvStack:
    def test_one_by_one_identity_kernel(self):
        spec = single_layer(np.ones((1, 1, 1, 1)), [0.0])
        x = random_raster(1, 8, 8, 1)
        out = extract_features(x, spec)
        assert np.abs(out.data - x.data).max() < 1e-15

    def test_averaging_kernel_on_constant(self):
        w = np.full((1, 1, 3, 3), 0.05)
        spec = single_layer(w, [0.25], slope=1.0)
        x = Raster(np.full((6, 6, 1), 0.4))
        out = extract_features(x, spec)
        # interior: 0.4 * 9 * 0.05 + 0.25; zero padding shrinks border sums
        assert abs(out.data[3, 3, 0] - (0.4 * 9 * 0.05 + 0.25)) < 1e-12

    def test_matches_direct_convolution_oracle(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal(2)
        spec = single_layer(w, b, slope=1.0)
        x = random_raster(3, 5, 5, 3)
        out = extract_features(x, spec).data
        padded = np.pad(x.data, ((1, 1), (1, 1), (0, 0)))
        for oy in range(5):
            for ox in range(5):
                for oc in range(2):
                    acc = b[oc]
                    for c in range(3):
                        for i in range(3):
                            for j in range(3):
                                acc += w[oc, c, i, j] * padded[oy + i, ox + j, c]
                    assert abs(out[oy, ox, oc] - acc) < 1e-12

    def test_stride_two_shape(self):
        spec = single_layer(np.ones((2, 1, 3, 3)), [0.0, 0.0], stride=2)
        out = extract_features(random_raster(4, 8, 8, 1), spec)
        assert out.data.shape == (4, 4, 2)

    def test_composed_shape_formula(self):
        spec = random_stack(5)
        out = extract_features(random_raster(6, 9, 7, 2), spec)
        # 9 -> ceil(9/1)=9 -> ceil(9/2)=5; 7 -> 7 -> 4
        assert out.data.shape == (5, 4, 5)

    def test_leaky_relu_negative_slope(self):
        spec = single_layer(-np.ones((1, 1, 1, 1)), [0.0], slope=0.5)
        x = Raster(np.full((2, 2, 1), 0.8))
        out = extract_features(x, spec)
        assert np.allclose(out.data, -0.4, atol=1e-15)

    def test_slope_one_is_linear(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((2, 2, 3, 3))
        spec = single_layer(w, [0.0, 0.0], slope=1.0)
        x = random_raster(8, 6, 6, 2)
        scaled = extract_features(Raster(3.0 * x.data), spec).data
        base = extract_features(x, spec).data
        assert np.abs(scaled - 3.0 * base).max() < 1e-9

    def test_band_mismatch_rejected(self):
        spec = single_layer(np.ones((1, 2, 1, 1)), [0.0])
        with pytest.raises(ShapeMismatchError):
            extract_features(random_raster(9, 4, 4, 3), spec)


class TestSpecValidation:
    def test_layer_chain_checked(self):
        l0 = ConvLayer(weights=np.ones((3, 2, 1, 1)), bias=np.zeros(3), stride=1, leaky_slope=0.0)
        l1 = ConvLayer(weights=np.ones((4, 2, 1, 1)), bias=np.zeros(4), stride=1, leaky_slope=0.0)
        with pytest.raises(ValueError):
            ConvStackSpec(bands=2, layers=(l0, l1))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            ConvLayer(weights=np.ones((1, 1, 2, 2)), bias=np.zeros(1), stride=1, leaky_slope=0.0)

    def test_nonfinite_weights_rejected(self):
        w = np.ones((1, 1, 1, 1))
        w[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ConvLayer(weights=w, bias=np.zeros(1), stride=1, leaky_slope=0.0)


class TestCswIO:
    def test_roundtrip(self, tmp_path):
        spec = random_stack(10)
        path = tmp_path / "stack.csw"
        save_conv_stack(spec, path)
        back = load_conv_stack(path)
        assert back.bands == spec.bands
        assert len(back.layers) == len(spec.layers)
        for got, want in zip(back.layers, spec.layers):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.bias, want.bias)
            assert got.stride == want.stride
            assert got.leaky_slope == want.leaky_slope

    def test_identity_kernel_file(self, tmp_path):
        spec = single_layer(np.ones((1, 1, 1, 1)), [0.0])
        path = tmp_path / "id.csw"
        save_conv_stack(spec, path)
        x = random_raster(11, 4, 4, 1)
        out = extract_features(x, load_conv_stack(path))
        assert np.abs(out.data - x.data).max() < 1e-15

    def test_chain_mismatch_rejected_on_load(self, tmp_path):
        spec = random_stack(12)
        path = tmp_path / "bad.csw"
        save_conv_stack(spec, path)
        blob = bytearray(path.read_bytes())
        # corrupt the declared band count so layer 0 no longer chains
        header_len = int.from_bytes(blob[4:8], "little")
        header = blob[8 : 8 + header_len].decode()
        blob[8 : 8 + header_len] = header.replace('"bands":2', '"bands":9').encode()
        path.write_bytes(bytes(blob))
        with pytest.raises(HeaderError):
            load_conv_stack(path)

    @pytest.mark.parametrize("field, value", [("out", 0), ("k", True), ("stride", 1.5)])
    def test_bad_layer_field_rejected_on_load(self, tmp_path, field, value):
        meta = {"out": 1, "in": 1, "k": 1, "stride": 1, "slope": 0.0, field: value}
        header = json.dumps({"bands": 1, "layers": [meta]}).encode()
        path = tmp_path / "bad.csw"
        path.write_bytes(b"CSW1" + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        with pytest.raises(HeaderError):
            load_conv_stack(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.csw"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(MagicError):
            load_conv_stack(path)
