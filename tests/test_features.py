"""Feature extractors: identity, conv stacks, and the CSW weights format."""

import copy
import json
import pickle
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panfuse import (
    ConvLayer,
    ConvStackSpec,
    IDENTITY,
    Raster,
    extract_features,
    gm_perceptual_loss,
    load_conv_stack,
    perceptual_loss,
    save_conv_stack,
)
from panfuse import features
from panfuse.errors import (
    HeaderError,
    MagicError,
    NonFiniteDataError,
    PanfuseError,
    ShapeMismatchError,
)
from helpers import (
    CLONES,
    JSON_VALUES,
    born_at_dead_id,
    framed,
    random_raster,
    reborn_at_dead_id,
    same_bits,
)


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


@pytest.fixture(scope="module")
def bench_stack(tmp_path_factory):
    """The gan-step-64 benchmark's stack: 4 -> 8 channels at stride 1, then
    8 -> 16 at stride 2, 3 x 3 kernels, slope 0.2, through a CSW round trip."""
    rng = np.random.default_rng(7)
    layers = []
    for c_in, c_out, stride in ((4, 8, 1), (8, 16, 2)):
        layers.append(ConvLayer(weights=rng.normal(0.0, 0.3, (c_out, c_in, 3, 3)),
                                bias=rng.normal(0.0, 0.05, c_out), stride=stride,
                                leaky_slope=0.2))
    path = tmp_path_factory.mktemp("stack") / "stack.csw"
    save_conv_stack(ConvStackSpec(bands=4, layers=tuple(layers)), path)
    return load_conv_stack(path)


def fresh(spec):
    """A new spec with ``spec``'s layers, on which no memo entry is keyed."""
    return ConvStackSpec(bands=spec.bands, layers=spec.layers)


@pytest.fixture
def empty_memo():
    """The feature memo, shared by every stack, starts and ends the test
    empty."""
    features._stack_features.entries = ()
    yield features._stack_features
    features._stack_features.entries = ()


def stack_of(seed, bands, strides):
    """A random stack on ``bands`` input bands, one 3 x 3 layer per stride."""
    rng = np.random.default_rng(seed)
    layers, c_in = [], bands
    for i, stride in enumerate(strides):
        c_out = 6 - i
        layers.append(ConvLayer(weights=rng.normal(0.0, 0.3, (c_out, c_in, 3, 3)),
                                bias=rng.normal(0.0, 0.05, c_out), stride=stride,
                                leaky_slope=0.2))
        c_in = c_out
    return ConvStackSpec(bands=bands, layers=tuple(layers))


def count_layer_calls(monkeypatch):
    """A list that grows by one on every ``features._apply_layer`` call."""
    calls = []
    apply_layer = features._apply_layer

    def counted(arr, layer):
        calls.append(layer)
        return apply_layer(arr, layer)

    monkeypatch.setattr(features, "_apply_layer", counted)
    return calls


@pytest.mark.usefixtures("empty_memo")
class TestMemo:
    """The features of the last two (raster, stack) extractions are
    remembered."""

    def test_hit_returns_the_same_read_only_features(self, bench_stack):
        spec = fresh(bench_stack)
        x = random_raster(30, 64, 64, 4)
        first = extract_features(x, spec)
        assert extract_features(x, spec) is first
        assert first.data.flags.writeable is False
        assert np.array_equal(first.data, extract_features(x, fresh(spec)).data)

    def test_equal_bytes_in_another_raster_are_extracted_afresh(self, bench_stack, monkeypatch):
        spec = fresh(bench_stack)
        x = random_raster(31, 16, 16, 4)
        twin = Raster(x.data)
        calls = count_layer_calls(monkeypatch)
        a, b = extract_features(x, spec), extract_features(twin, spec)
        assert b is not a
        assert len(calls) == 2 * len(spec.layers)
        assert np.array_equal(a.data, b.data)

    def test_a_dead_raster_never_hits_even_at_its_old_id(self, bench_stack):
        spec = fresh(bench_stack)
        old, y = reborn_at_dead_id(random_raster(32, 16, 16, 4).data,
                                   random_raster(33, 16, 16, 4).data,
                                   lambda x: extract_features(x, spec))
        got = extract_features(y, spec)
        assert got is not old
        assert np.array_equal(got.data, extract_features(y, fresh(spec)).data)
        assert not np.array_equal(got.data, old.data)

    def test_at_most_two_entries(self, bench_stack, monkeypatch):
        spec = fresh(bench_stack)
        xs = [random_raster(40 + i, 8, 8, 4) for i in range(4)]
        for x in xs:
            extract_features(x, spec)
            assert len(features._stack_features.entries) <= 2
        assert [key[0]() for key, _ in features._stack_features.entries] == [xs[3], xs[2]]
        calls = count_layer_calls(monkeypatch)
        extract_features(xs[2], spec)
        assert calls == []
        got = extract_features(xs[1], spec)
        assert len(calls) == len(spec.layers)
        assert np.array_equal(got.data, extract_features(xs[1], fresh(spec)).data)

    def test_perceptual_then_gram_run_each_input_once(self, bench_stack, monkeypatch):
        spec = fresh(bench_stack)
        f, r = random_raster(50, 64, 64, 4), random_raster(51, 64, 64, 4)
        want = (perceptual_loss(f, r, fresh(spec)), gm_perceptual_loss(f, r, fresh(spec)))
        calls = count_layer_calls(monkeypatch)
        got = (perceptual_loss(f, r, spec), gm_perceptual_loss(f, r, spec))
        assert len(calls) == 2 * len(spec.layers)
        assert got == want

    @pytest.mark.parametrize(
        "clone",
        [lambda spec: pickle.loads(pickle.dumps(spec)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_a_copy_of_a_used_spec_remembers_nothing(self, bench_stack, clone):
        spec = fresh(bench_stack)
        x = random_raster(60, 16, 16, 4)
        feats = extract_features(x, spec)
        other = clone(spec)
        keyed = [key[1]() for key, _ in features._stack_features.entries]
        assert sum(s is other for s in keyed) == 0 and sum(s is spec for s in keyed) == 1
        for got, want in zip(other.layers, spec.layers):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.bias, want.bias)
        again = extract_features(x, other)
        assert again is not feats and np.array_equal(again.data, feats.data)

    def test_threads_sharing_a_spec_get_their_own_features(self, bench_stack):
        """More threads than the CI runner's cores, each extracting its own
        raster over and over, switching as often as the interpreter allows."""
        spec = fresh(bench_stack)
        xs = [random_raster(70 + i, 8, 8, 4) for i in range(4)]
        wants = [extract_features(x, fresh(spec)).data for x in xs]
        start = threading.Barrier(len(xs))
        wrong = []

        def work(x, want):
            start.wait(timeout=10)
            for _ in range(300):
                if not np.array_equal(extract_features(x, spec).data, want):
                    wrong.append(x)

        threads = [threading.Thread(target=work, args=pair) for pair in zip(xs, wants)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


@pytest.mark.usefixtures("empty_memo")
class TestOneMemoPerProcess:
    """The memo keeps the last two (raster, stack) pairs of the process, not
    of each stack."""

    def test_two_stacks_alternating_on_one_raster_each_hit(self, monkeypatch):
        one, two = stack_of(100, 4, (1, 2)), stack_of(101, 4, (1, 2))
        x = random_raster(102, 12, 12, 4)
        a, b = extract_features(x, one), extract_features(x, two)
        assert not np.array_equal(a.data, b.data)
        calls = count_layer_calls(monkeypatch)
        for _ in range(3):
            assert extract_features(x, one) is a and extract_features(x, two) is b
        assert calls == []
        assert same_bits(a.data, extract_features(x, fresh(one)).data)
        assert same_bits(b.data, extract_features(x, fresh(two)).data)

    def test_three_stacks_in_turn_leave_at_most_two_entries(self, empty_memo, monkeypatch):
        stacks = [stack_of(110 + i, 4, (1, 2)) for i in range(3)]
        x = random_raster(113, 8, 8, 4)
        first = extract_features(x, stacks[0])
        for stack in stacks:
            extract_features(x, stack)
            assert len(empty_memo.entries) <= 2
        assert [key[1]() for key, _ in empty_memo.entries] == [stacks[2], stacks[1]]
        calls = count_layer_calls(monkeypatch)
        again = extract_features(x, stacks[0])
        assert len(calls) == len(stacks[0].layers)
        assert again is not first and same_bits(again.data, first.data)

    def test_a_dead_stack_never_hits_even_at_its_old_id(self):
        x = random_raster(120, 8, 8, 4)
        dead_layers, new_layers = stack_of(121, 4, (1, 2)).layers, stack_of(122, 4, (1, 2)).layers
        old, new = born_at_dead_id(lambda: ConvStackSpec(bands=4, layers=dead_layers),
                                   lambda: ConvStackSpec(bands=4, layers=new_layers),
                                   lambda stack: extract_features(x, stack))
        got = extract_features(x, new)
        assert got is not old
        assert same_bits(got.data, extract_features(x, fresh(new)).data)
        assert not np.array_equal(got.data, old.data)

    @pytest.mark.parametrize(
        "bands, strides",
        [(1, (1, 2)), (4, (1, 2)), (8, (1, 2)), (4, (3, 3, 3))],
        ids=["bands1", "bands4", "bands8", "stride3"],
    )
    def test_remembered_features_have_the_bits_of_a_fresh_extraction(self, bands, strides):
        stack = stack_of(130 + bands, bands, strides)
        x = random_raster(140 + bands, 17, 14, bands)
        first = extract_features(x, stack)
        hit = extract_features(x, stack)
        assert hit is first
        assert same_bits(hit.data, features._stack_features.compute(x, stack).data)
        assert same_bits(hit.data, extract_features(x, fresh(stack)).data)


class TestCopies:
    """A conv layer copies through its constructor, so a copy's arrays are
    read-only too, and so are those of a copied stack's layers."""

    @pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
    def test_a_copied_layer_is_read_only_too(self, clone):
        layer = stack_of(150, 3, (2,)).layers[0]
        other = clone(layer)
        for got, want in ((other.weights, layer.weights), (other._taps, layer._taps),
                          (other.bias, layer.bias)):
            assert same_bits(got, want)
            with pytest.raises(ValueError, match="read-only"):
                got.flat[0] = 1.0
        assert (other.stride, other.leaky_slope) == (layer.stride, layer.leaky_slope)

    @pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
    def test_a_copied_stack_cannot_be_edited_in_place(self, empty_memo, clone):
        spec = stack_of(151, 4, (1, 2))
        other = clone(spec)
        x = random_raster(152, 10, 10, 4)
        before = extract_features(x, other)
        with pytest.raises(ValueError, match="read-only"):
            other.layers[0]._taps[0, 0, 0, 0] = 1.0
        assert type(other.layers) is tuple
        empty_memo.entries = ()
        assert same_bits(extract_features(x, other).data, before.data)
        assert same_bits(before.data, extract_features(x, spec).data)


class TestSpecValidation:
    def test_layer_chain_checked(self):
        l0 = ConvLayer(weights=np.ones((3, 2, 1, 1)), bias=np.zeros(3), stride=1, leaky_slope=0.0)
        l1 = ConvLayer(weights=np.ones((4, 2, 1, 1)), bias=np.zeros(4), stride=1, leaky_slope=0.0)
        with pytest.raises(ValueError):
            ConvStackSpec(bands=2, layers=(l0, l1))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            ConvLayer(weights=np.ones((1, 1, 2, 2)), bias=np.zeros(1), stride=1, leaky_slope=0.0)

    @pytest.mark.parametrize("shape", [(1, 1, 3, 1), (1, 1, 1, 3), (1, 1, 3), (1, 1, 3, 3, 1)])
    def test_kernel_not_out_in_k_k_rejected(self, shape):
        with pytest.raises(ValueError, match=r"must be \(out, in, k, k\)"):
            ConvLayer(weights=np.ones(shape), bias=np.zeros(1), stride=1, leaky_slope=0.0)

    @pytest.mark.parametrize("bias", [np.zeros(1), np.zeros(3), np.zeros((2, 1))])
    def test_bias_not_one_per_output_rejected(self, bias):
        with pytest.raises(ValueError, match="does not match out=2"):
            ConvLayer(weights=np.ones((2, 1, 1, 1)), bias=bias, stride=1, leaky_slope=0.0)

    def test_nonfinite_weights_rejected(self):
        w = np.ones((1, 1, 1, 1))
        w[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ConvLayer(weights=w, bias=np.zeros(1), stride=1, leaky_slope=0.0)

    @pytest.mark.parametrize("stride", [1.5, 2.0, True, np.True_, "2", None, 0, -1, np.int64(0)])
    def test_bad_stride_rejected(self, stride):
        with pytest.raises(ValueError, match="stride"):
            ConvLayer(weights=np.ones((1, 1, 1, 1)), bias=np.zeros(1), stride=stride,
                      leaky_slope=0.0)

    @pytest.mark.parametrize("stride", [np.int64(2), np.uint8(2), np.int32(2)])
    def test_numpy_int_stride_stored_as_int(self, stride):
        layer = ConvLayer(weights=np.ones((1, 1, 1, 1)), bias=np.zeros(1), stride=stride,
                          leaky_slope=0.0)
        assert type(layer.stride) is int and layer.stride == 2
        out = extract_features(random_raster(4, 5, 6, 1), ConvStackSpec(bands=1, layers=(layer,)))
        assert out.data.shape == (3, 3, 1)

    @pytest.mark.parametrize("bands", [True, 1.0, "1", 0])
    def test_bad_declared_bands_rejected(self, bands):
        layer = ConvLayer(weights=np.ones((1, 1, 1, 1)), bias=np.zeros(1), stride=1,
                          leaky_slope=0.0)
        with pytest.raises(ValueError, match="bands"):
            ConvStackSpec(bands=bands, layers=(layer,))

    @pytest.mark.parametrize(
        "slope", ["0.2", None, 1j, True, False, 10**400],
        ids=["0.2", "None", "1j", "true", "false", "beyond-float"],
    )
    def test_non_real_slope_rejected(self, slope):
        with pytest.raises(ValueError, match="slope"):
            ConvLayer(weights=np.ones((1, 1, 1, 1)), bias=np.zeros(1), stride=1,
                      leaky_slope=slope)

    def test_caller_edits_after_construction_do_not_reach_the_layer(self):
        rng = np.random.default_rng(5)
        w, b = rng.standard_normal((2, 3, 3, 3)), rng.standard_normal(2)
        layer = ConvLayer(weights=w, bias=b, stride=1, leaky_slope=0.2)
        spec = ConvStackSpec(bands=3, layers=(layer,))
        x = random_raster(6, 7, 8, 3)
        before = extract_features(x, spec).data.copy()
        want_w, want_b = w.copy(), b.copy()
        w[0, 0, 0, 0] = np.nan
        b[:] = 5.0
        assert layer.weights is not w and layer.bias is not b
        assert np.array_equal(layer.weights, want_w) and np.array_equal(layer.bias, want_b)
        assert np.array_equal(extract_features(x, spec).data, before)

    def test_a_list_of_layers_is_kept_as_a_tuple(self, empty_memo):
        layer = ConvLayer(weights=np.ones((2, 2, 1, 1)), bias=np.zeros(2), stride=1,
                          leaky_slope=0.0)
        given = [layer]
        spec = ConvStackSpec(bands=2, layers=given)
        x = random_raster(160, 5, 5, 2)
        before = extract_features(x, spec)
        given.append(layer)
        assert spec.layers == (layer,) and spec.out_channels == 2
        with pytest.raises(AttributeError):
            spec.layers.append(layer)
        empty_memo.entries = ()
        assert same_bits(extract_features(x, spec).data, before.data)

    def test_layers_from_a_generator(self):
        layers = stack_of(161, 4, (1, 2)).layers
        spec = ConvStackSpec(bands=4, layers=(layer for layer in layers))
        assert spec.layers == layers

    @pytest.mark.parametrize(
        "element", [object(), None, "layer", np.ones((1, 1, 1, 1))],
        ids=["object", "none", "str", "array"],
    )
    def test_an_element_that_is_not_a_layer_is_a_value_error(self, element):
        layer = ConvLayer(weights=np.ones((1, 1, 1, 1)), bias=np.zeros(1), stride=1,
                          leaky_slope=0.0)
        with pytest.raises(ValueError, match="layer 1 must be a ConvLayer"):
            ConvStackSpec(bands=1, layers=(layer, element))

    @pytest.mark.parametrize("layers", [(), [], None], ids=["tuple", "list", "none"])
    def test_no_layers_is_a_value_error(self, layers):
        with pytest.raises(ValueError, match="at least one layer"):
            ConvStackSpec(bands=1, layers=layers)

    def test_layer_arrays_are_read_only_float64(self):
        layer = ConvLayer(weights=np.ones((1, 1, 3, 3), dtype=np.float32),
                          bias=np.zeros(1, dtype=np.int64), stride=1, leaky_slope=0.0)
        for arr in (layer.weights, layer.bias):
            assert arr.dtype == np.float64
            assert arr.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            layer.weights[0, 0, 0, 0] = 2.0


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

    def test_numpy_number_fields_roundtrip(self, tmp_path):
        spec = single_layer(np.ones((1, 1, 3, 3)), [0.0], stride=np.int64(2),
                            slope=np.float32(0.25), bands=np.int64(1))
        path = tmp_path / "stack.csw"
        save_conv_stack(spec, path)
        back = load_conv_stack(path)
        assert type(back.layers[0].stride) is int and back.layers[0].stride == 2
        assert back.layers[0].leaky_slope == 0.25 and back.bands == 1
        x = random_raster(13, 7, 9, 1)
        assert np.array_equal(extract_features(x, back).data, extract_features(x, spec).data)

    @pytest.mark.parametrize("part", ["weights", "bias"])
    def test_float32_overflow_refused_at_save(self, tmp_path, part):
        w, b = np.ones((1, 1, 1, 1)), np.zeros(1)
        if part == "weights":
            w[0, 0, 0, 0] = 1e39
        else:
            b[0] = -1e39
        ok = single_layer(np.ones((1, 1, 1, 1)), [0.0]).layers[0]
        big = ConvLayer(weights=w, bias=b, stride=1, leaky_slope=0.0)
        path = tmp_path / "big.csw"
        with pytest.raises(NonFiniteDataError, match="layer 1"):
            save_conv_stack(ConvStackSpec(bands=1, layers=(ok, big)), path)
        assert not path.exists()

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

    @pytest.mark.parametrize(
        "field, value",
        [("out", 0), ("k", True), ("stride", 1.5), ("slope", float("nan")), ("slope", "inf")],
    )
    def test_bad_layer_field_rejected_on_load(self, tmp_path, field, value):
        meta = {"out": 1, "in": 1, "k": 1, "stride": 1, "slope": 0.0, field: value}
        header = json.dumps({"bands": 1, "layers": [meta]}).encode()
        path = tmp_path / "bad.csw"
        path.write_bytes(b"CSW1" + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        with pytest.raises(HeaderError):
            load_conv_stack(path)

    @staticmethod
    def one_layer_csw(path, **slope):
        """A 1 -> 1 channel, 1 x 1 CSW file whose layer has ``slope`` as its
        slope field, or none if it is not given."""
        meta = {"out": 1, "in": 1, "k": 1, "stride": 1, **slope}
        header = json.dumps({"bands": 1, "layers": [meta]}).encode()
        path.write_bytes(b"CSW1" + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        return path

    @pytest.mark.parametrize(
        "slope", [{"slope": "0.2"}, {"slope": "  7 "}, {"slope": True}, {"slope": None}, {}],
        ids=["string", "padded-string", "bool", "null", "missing"],
    )
    def test_slope_that_is_not_a_number_rejected_on_load(self, tmp_path, slope):
        """The layer's own rule holds a CSW slope: no string or bool is
        converted, and a missing slope is no number either."""
        path = self.one_layer_csw(tmp_path / "bad.csw", **slope)
        with pytest.raises(HeaderError, match="leaky slope must be a real number"):
            load_conv_stack(path)

    def test_a_json_int_slope_loads_as_a_float(self, tmp_path):
        spec = load_conv_stack(self.one_layer_csw(tmp_path / "int.csw", slope=2))
        assert type(spec.layers[0].leaky_slope) is float and spec.layers[0].leaky_slope == 2.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.csw"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(MagicError):
            load_conv_stack(path)


class TestCswFuzz:
    """Whatever the bytes, ``load_conv_stack`` returns a spec or raises a
    ``PanfuseError`` (which the CLI maps to an exit code), nothing else."""

    LAYER = st.fixed_dictionaries(
        {},
        optional={key: JSON_VALUES for key in ("out", "in", "k", "stride", "slope")},
    )

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "x.csw"

    def load(self, path, blob):
        path.write_bytes(blob)
        try:
            load_conv_stack(path)
        except PanfuseError:
            pass

    @settings(derandomize=True, deadline=None)
    @given(blob=st.binary(max_size=200))
    def test_arbitrary_bytes(self, path, blob):
        self.load(path, blob)

    @settings(derandomize=True, deadline=None)
    @given(blob=st.binary(max_size=200).map(lambda b: b"CSW1" + b))
    def test_arbitrary_bytes_after_magic(self, path, blob):
        self.load(path, blob)

    @settings(derandomize=True, deadline=None)
    @given(header=st.binary(max_size=200), payload=st.binary(max_size=64))
    def test_arbitrary_header_bytes(self, path, header, payload):
        self.load(path, framed(b"CSW1", header, payload))

    @settings(derandomize=True, deadline=None)
    @given(
        header=st.fixed_dictionaries(
            {},
            optional={"bands": JSON_VALUES, "layers": st.lists(LAYER, max_size=3) | JSON_VALUES},
        ),
        payload=st.binary(max_size=64),
    )
    def test_arbitrary_header_fields(self, path, header, payload):
        self.load(path, framed(b"CSW1", json.dumps(header).encode(), payload))
