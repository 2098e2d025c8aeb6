"""Raster type, MSR file IO, synthetic scenes, and patch extraction."""

import copy
import json
import os
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panfuse import (
    IDENTITY,
    ConvLayer,
    ConvStackSpec,
    FusionInput,
    GramMatrix,
    Patch,
    PatchSet,
    Raster,
    downsample_antialias,
    downsample_antialias_adjoint,
    extract_features,
    fuse_brovey,
    fuse_gihs,
    fuse_gs,
    fuse_hpf,
    fuse_pca,
    histogram_match,
    load_conv_stack,
    loss_gradient,
    pan_from_weights,
    patchify,
    read_raster,
    synth_scene,
    upsample,
    wald_degrade,
    write_raster,
)
from panfuse.losses import GRADIENTS
from panfuse.errors import (
    DegenerateInputError,
    HeaderError,
    MagicError,
    MissingFileError,
    NonFiniteDataError,
    PanfuseError,
    PayloadSizeError,
    RasterIOError,
    ShapeMismatchError,
    UsageError,
)
from panfuse import losses, raster
from panfuse.metrics import _conj_signs
from panfuse.raster import _check_scale_pair
from panfuse.resample import _gaussian_kernel
from helpers import (
    CLONES,
    CUBE_FAULTS,
    JSON_VALUES,
    PAN_FAULTS,
    framed,
    random_raster,
    scale_pair,
)


class TestRasterType:
    def test_properties(self):
        r = random_raster(0, 3, 5, 2)
        assert (r.height, r.width, r.bands) == (3, 5, 2)
        assert r.data.shape == (3, 5, 2)

    def test_2d_input_promoted_to_single_band(self):
        r = Raster(np.zeros((4, 4)))
        assert r.bands == 1

    def test_immutable(self):
        r = random_raster(1, 4, 4, 1)
        with pytest.raises(ValueError):
            r.data[0, 0, 0] = 1.0

    def test_constructor_copies_input(self):
        arr = np.zeros((4, 4, 1))
        r = Raster(arr)
        arr[0, 0, 0] = 7.0
        assert r.data[0, 0, 0] == 0.0

    def test_rejects_nan_and_inf(self):
        bad = np.zeros((2, 2, 1))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Raster(bad)
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            Raster(bad)

    def test_rejects_bad_ndim(self):
        with pytest.raises(ValueError):
            Raster(np.zeros(4))


    def test_construction_errors_carry_exit_codes(self):
        with pytest.raises(DegenerateInputError) as info:
            Raster(np.array([[1.0, np.inf]]))
        assert isinstance(info.value, ValueError)
        with pytest.raises(ShapeMismatchError) as info:
            Raster(np.zeros((2, 0, 1)))
        assert isinstance(info.value, ValueError)


class TestMsrIO:
    def test_handmade_zero_image(self, tmp_path):
        header = json.dumps({"width": 2, "height": 2, "bands": 1, "dtype": "f64"}).encode()
        blob = b"MSR1" + struct.pack("<I", len(header)) + header
        blob += np.zeros(4, dtype="<f8").tobytes()
        path = tmp_path / "zero.msr"
        path.write_bytes(blob)
        r = read_raster(path)
        assert r.data.shape == (2, 2, 1)
        assert np.all(r.data == 0.0)

    def test_exact_bytes_for_1x1x1(self, tmp_path):
        # independent byte-level construction of the expected file
        path = tmp_path / "one.msr"
        write_raster(Raster(np.array([[[0.5]]])), path)
        header = b'{"width":1,"height":1,"bands":1,"dtype":"f64"}'
        expected = b"MSR1" + struct.pack("<I", len(header)) + header
        expected += struct.pack("<d", 0.5)
        assert path.read_bytes() == expected
        assert path.stat().st_size == 8 + len(header) + 8

    @pytest.mark.parametrize("seed,shape", [(3, (16, 16, 4)), (4, (5, 7, 3))])
    def test_roundtrip_bit_exact(self, tmp_path, seed, shape):
        r = random_raster(seed, *shape)
        path = tmp_path / "rt.msr"
        write_raster(r, path)
        back = read_raster(path)
        assert np.array_equal(back.data, r.data)

    def test_roundtrip_all_maximum(self, tmp_path):
        r = Raster(np.ones((6, 6, 2)))
        path = tmp_path / "ones.msr"
        write_raster(r, path)
        assert np.array_equal(read_raster(path).data, r.data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            read_raster(tmp_path / "absent.msr")

    @pytest.mark.parametrize("reader, what", [(read_raster, "raster"), (raster._RowFile, "raster"),
                                              (load_conv_stack, "weights")])
    def test_a_directory_is_no_file(self, tmp_path, reader, what):
        """Was MissingFileError, ``no such <what> file``, for a path that exists."""
        with pytest.raises(RasterIOError) as info:
            reader(tmp_path)
        assert type(info.value) is RasterIOError and info.value.exit_code == 5
        assert str(info.value) == f"{what} path {tmp_path} exists but is not a file"

    def test_write_into_a_directory(self, tmp_path):
        with pytest.raises(RasterIOError, match="cannot write raster to"):
            write_raster(random_raster(10, 2, 2, 1), tmp_path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.msr"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(MagicError):
            read_raster(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.msr"
        write_raster(random_raster(5, 4, 4, 1), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(PayloadSizeError):
            read_raster(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "extra.msr"
        write_raster(random_raster(6, 4, 4, 1), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(PayloadSizeError):
            read_raster(path)

    @pytest.mark.parametrize("delta", [-8, -1, 1, 8])
    def test_payload_off_by_bytes_rejected(self, tmp_path, delta):
        path = tmp_path / "off.msr"
        write_raster(random_raster(7, 3, 5, 2), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:delta] if delta < 0 else blob + b"\x00" * delta)
        with pytest.raises(PayloadSizeError):
            read_raster(path)

    def test_file_shorter_than_its_size_at_open(self, tmp_path, monkeypatch):
        # A file truncated between the size check and the read is refused,
        # not returned with unread bytes.
        path = tmp_path / "shrunk.msr"
        write_raster(random_raster(8, 4, 4, 1), path)
        real_fstat = os.fstat

        class Grown:
            def __init__(self, fd):
                self.st_size = real_fstat(fd).st_size + 8

        monkeypatch.setattr(os, "fstat", Grown)
        with pytest.raises(RasterIOError, match="changed while it was read"):
            read_raster(path)

    def test_read_raster_owns_aligned_data(self, tmp_path):
        path = tmp_path / "own.msr"
        write_raster(random_raster(9, 5, 3, 2), path)
        data = read_raster(path).data
        assert data.dtype == np.float64 and data.flags.c_contiguous
        assert data.flags.aligned and not data.flags.writeable

    @pytest.mark.parametrize("spaces", range(8))
    def test_payload_at_any_alignment(self, tmp_path, spaces):
        # Header padding moves the payload to every offset modulo 8.
        data = np.random.default_rng(spaces).random((3, 4, 2))
        header = b'{"width":4,"height":3,"bands":2,"dtype":"f64"}' + b" " * spaces
        path = tmp_path / "aligned.msr"
        path.write_bytes(framed(b"MSR1", header, data.astype("<f8").tobytes()))
        assert np.array_equal(read_raster(path).data, data)

    def test_nonfinite_payload(self, tmp_path):
        header = json.dumps({"width": 1, "height": 1, "bands": 1, "dtype": "f64"}).encode()
        blob = b"MSR1" + struct.pack("<I", len(header)) + header
        blob += struct.pack("<d", float("nan"))
        path = tmp_path / "nan.msr"
        path.write_bytes(blob)
        with pytest.raises(NonFiniteDataError):
            read_raster(path)

    def test_bad_header_json(self, tmp_path):
        path = tmp_path / "hdr.msr"
        path.write_bytes(b"MSR1" + struct.pack("<I", 4) + b"{{{{")
        with pytest.raises(HeaderError):
            read_raster(path)

    @pytest.mark.parametrize(
        "fields",
        [
            {"width": True, "height": 1, "bands": 1},
            {"width": 1, "height": 0, "bands": 1},
            {"width": 1, "height": 1, "bands": 1.0},
            {"width": 1, "height": 1},
        ],
        ids=["bool-width", "zero-height", "float-bands", "missing-bands"],
    )
    def test_bad_header_dimension(self, tmp_path, fields):
        header = json.dumps({**fields, "dtype": "f64"}).encode()
        path = tmp_path / "dims.msr"
        path.write_bytes(b"MSR1" + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        with pytest.raises(HeaderError):
            read_raster(path)

    def test_header_not_an_object(self, tmp_path):
        path = tmp_path / "list.msr"
        path.write_bytes(b"MSR1" + struct.pack("<I", 3) + b"[1]" + b"\x00" * 8)
        with pytest.raises(HeaderError):
            read_raster(path)

    def test_bad_dtype(self, tmp_path):
        header = json.dumps({"width": 1, "height": 1, "bands": 1, "dtype": "f32"}).encode()
        path = tmp_path / "f32.msr"
        path.write_bytes(b"MSR1" + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        with pytest.raises(HeaderError):
            read_raster(path)


class TestMsrFuzz:
    """Whatever the bytes, ``read_raster`` returns a raster or raises a
    ``PanfuseError`` (which the CLI maps to an exit code), nothing else."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "x.msr"

    def read(self, path, blob):
        path.write_bytes(blob)
        try:
            read_raster(path)
        except PanfuseError:
            pass

    @settings(derandomize=True, deadline=None)
    @given(blob=st.binary(max_size=200))
    def test_arbitrary_bytes(self, path, blob):
        self.read(path, blob)

    @settings(derandomize=True, deadline=None)
    @given(blob=st.binary(max_size=200).map(lambda b: b"MSR1" + b))
    def test_arbitrary_bytes_after_magic(self, path, blob):
        self.read(path, blob)

    @settings(derandomize=True, deadline=None)
    @given(header=st.binary(max_size=200), payload=st.binary(max_size=64))
    def test_arbitrary_header_bytes(self, path, header, payload):
        self.read(path, framed(b"MSR1", header, payload))

    @settings(derandomize=True, deadline=None)
    @given(
        header=st.fixed_dictionaries(
            {},
            optional={
                "width": JSON_VALUES,
                "height": JSON_VALUES,
                "bands": JSON_VALUES,
                "dtype": st.one_of(st.just("f64"), JSON_VALUES),
            },
        ),
        payload=st.binary(max_size=64),
    )
    def test_arbitrary_header_fields(self, path, header, payload):
        self.read(path, framed(b"MSR1", json.dumps(header).encode(), payload))


class TestSynthScene:
    def test_deterministic(self):
        a = synth_scene(16, 16, 4, 7, [1, 1, 1, 1])
        b = synth_scene(16, 16, 4, 7, [1, 1, 1, 1])
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)

    def test_different_seeds_differ(self):
        a, _ = synth_scene(16, 16, 4, 7, [1, 1, 1, 1])
        b, _ = synth_scene(16, 16, 4, 8, [1, 1, 1, 1])
        assert not np.array_equal(a.data, b.data)

    def test_values_in_unit_range(self):
        hrms, pan = synth_scene(32, 32, 4, 1, [1, 2, 3, 4])
        for r in (hrms, pan):
            assert r.data.min() >= 0.0 and r.data.max() <= 1.0

    def test_selector_weights_pick_band(self):
        hrms, pan = synth_scene(16, 16, 4, 11, [1, 0, 0, 0])
        assert np.array_equal(pan.data[:, :, 0], hrms.data[:, :, 0])

    def test_pan_weight_formula_on_constant_field(self):
        const = Raster(np.full((8, 8, 4), 0.5))
        pan = pan_from_weights(const, [1, 1, 1, 1])
        assert np.allclose(pan.data, 0.5, atol=1e-15)

    def test_pan_is_normalized_weighted_sum(self):
        hrms = random_raster(12, 8, 8, 3)
        w = np.array([0.2, 0.5, 1.3])
        pan = pan_from_weights(hrms, w)
        expected = (hrms.data * w).sum(axis=2) / w.sum()
        assert np.allclose(pan.data[:, :, 0], expected, atol=1e-12)

    def test_zero_sum_weights_rejected(self):
        with pytest.raises(UsageError):
            synth_scene(16, 16, 2, 0, [0, 0])

    def test_negative_weights_rejected(self):
        with pytest.raises(UsageError):
            synth_scene(16, 16, 2, 0, [1, -1])

    def test_small_dims_rejected(self):
        with pytest.raises(UsageError):
            synth_scene(4, 16, 2, 0, [1, 1])

    def test_unallocatable_scene_rejected(self):
        # 1e8 x 1e8 x 2 float64 values are 1.6e17 bytes: no allocator grants it.
        with pytest.raises(UsageError, match="too large to allocate"):
            synth_scene(10**8, 10**8, 2, 0, [1, 1])

    def test_negative_seed_rejected(self):
        with pytest.raises(UsageError):
            synth_scene(16, 16, 2, -1, [1, 1])

    # A non-finite weight, and finite weights whose sum overflows.
    BAD_WEIGHTS = [
        [float("nan"), 1, 1, 1],
        [float("inf"), 1, 1, 1],
        [1e308, 1e308, 1, 1],
    ]

    @pytest.mark.parametrize("weights", BAD_WEIGHTS, ids=["nan", "inf", "sum-overflows"])
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(UsageError):
            synth_scene(16, 16, 4, 0, weights)
        with pytest.raises(UsageError):
            pan_from_weights(random_raster(2, 8, 8, 4), weights)

    def test_huge_finite_weights_normalize(self):
        hrms = random_raster(3, 8, 8, 2)
        pan = pan_from_weights(hrms, [1e307, 1e307])
        assert np.allclose(pan.data[:, :, 0], hrms.data.mean(axis=2), atol=1e-12)


class TestPatchify:
    @pytest.mark.parametrize("patch", [0, -4])
    def test_non_positive_patch_rejected(self, patch):
        with pytest.raises(UsageError):
            patchify(random_raster(0, 16, 16, 2), random_raster(1, 64, 64, 1), patch, 4)

    def test_four_patches_from_512(self):
        ms = random_raster(0, 128, 128, 4)
        pan = random_raster(1, 512, 512, 1)
        ps = patchify(ms, pan, 256, 4)
        assert len(ps.patches) == 4
        for p in ps.patches:
            assert p.pan.data.shape == (256, 256, 1)
            assert p.lrms.data.shape == (64, 64, 4)
            assert p.reference is None

    def test_single_tile_equals_inputs(self):
        ms = random_raster(2, 16, 16, 2)
        pan = random_raster(3, 32, 32, 1)
        ps = patchify(ms, pan, 32, 2)
        assert len(ps.patches) == 1
        assert np.array_equal(ps.patches[0].lrms.data, ms.data)
        assert np.array_equal(ps.patches[0].pan.data, pan.data)

    def test_partial_edges_dropped(self):
        ms = random_raster(4, 75, 75, 3)
        pan = random_raster(5, 300, 300, 1)
        ps = patchify(ms, pan, 256, 4)
        assert len(ps.patches) == 1

    def test_patches_are_exact_subwindows(self):
        ms = random_raster(6, 32, 32, 2)
        pan = random_raster(7, 64, 64, 1)
        ps = patchify(ms, pan, 32, 2)
        assert np.array_equal(ps.patches[3].pan.data, pan.data[32:64, 32:64, :])
        assert np.array_equal(ps.patches[3].lrms.data, ms.data[16:32, 16:32, :])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            patchify(random_raster(0, 16, 16, 2), random_raster(1, 60, 60, 1), 32, 4)

    @pytest.mark.parametrize("height, width", [(32, 32), (64, 32), (32, 64)])
    def test_patch_larger_than_pan(self, height, width):
        """A patch that fits in neither side, or in one only, gives no patch."""
        ms, pan = random_raster(0, height // 2, width // 2, 2), random_raster(1, height, width, 1)
        with pytest.raises(ShapeMismatchError) as err:
            patchify(ms, pan, 64, 2)
        assert str(err.value) == f"patch size 64 larger than pan {height}x{width}"

    def test_patch_not_divisible_by_ratio(self):
        with pytest.raises(UsageError):
            patchify(random_raster(0, 16, 16, 2), random_raster(1, 64, 64, 1), 30, 4)

    def test_patchset_invariant_enforced(self):
        good = Patch(
            lrms=random_raster(0, 8, 8, 2),
            pan=random_raster(1, 16, 16, 1),
            reference=None,
        )
        bad = Patch(
            lrms=random_raster(0, 8, 8, 2),
            pan=random_raster(1, 12, 12, 1),
            reference=None,
        )
        PatchSet(patches=(good,), ratio=2)
        with pytest.raises(ShapeMismatchError):
            PatchSet(patches=(bad,), ratio=2)

    def test_patchset_keeps_a_generator_as_a_tuple(self):
        lrms, pan = random_raster(0, 8, 8, 2), random_raster(1, 32, 32, 1)
        ps = PatchSet(patches=(Patch(lrms, pan, None) for _ in range(3)), ratio=4)
        assert type(ps.patches) is tuple and len(ps.patches) == 3
        assert all(p.lrms is lrms and p.pan is pan for p in ps.patches)

    def test_patchset_keeps_a_list_as_a_tuple(self):
        lrms, pan = random_raster(0, 8, 8, 2), random_raster(1, 32, 32, 1)
        patches = [Patch(lrms, pan, None)]
        ps = PatchSet(patches=patches, ratio=4)
        patches.append((lrms, pan, None))  # cannot reach the validated set
        assert ps.patches == (Patch(lrms, pan, None),)
        assert len(copy.deepcopy(ps).patches) == 1

    def test_patchset_refuses_a_plain_tuple_by_index(self):
        lrms, pan = random_raster(0, 8, 8, 2), random_raster(1, 32, 32, 1)
        with pytest.raises(ValueError, match="^patch 1 must be a Patch, got tuple$"):
            PatchSet(patches=(Patch(lrms, pan, None), (lrms, pan, None)), ratio=4)

    @pytest.mark.parametrize("fault", PAN_FAULTS + CUBE_FAULTS)
    def test_patchset_scale_pair_faults(self, fault):
        lrms, pan, cube = scale_pair(fault)
        with pytest.raises(ShapeMismatchError):
            PatchSet(patches=(Patch(lrms=lrms, pan=pan, reference=cube),), ratio=4)

    @pytest.mark.parametrize("fault", PAN_FAULTS)
    def test_patchify_scale_pair_faults(self, fault):
        lrms, pan, _ = scale_pair(fault)
        with pytest.raises(ShapeMismatchError):
            patchify(lrms, pan, 16, 4)


class TestScalePairCheck:
    """The one geometry rule every (low, high resolution) boundary calls; its
    faults are tested through each boundary."""

    @pytest.mark.parametrize("ratio", [0, -4])
    def test_nonpositive_ratio_is_a_usage_error(self, ratio):
        lrms, pan, _ = scale_pair()
        with pytest.raises(UsageError):
            _check_scale_pair(lrms, pan, ratio)


def _scene():
    hrms, pan = synth_scene(16, 16, 4, 5, [1.0] * 4)
    lrms, lrpan, _ = wald_degrade(hrms, pan, 4)
    return hrms, pan, lrms, lrpan


def _write_then_read(tmp_path):
    write_raster(random_raster(90, 3, 2, 2), tmp_path / "x.msr")
    return (read_raster(tmp_path / "x.msr"),)


def _stack_features():
    layer = ConvLayer(np.full((2, 4, 3, 3), 0.1), np.zeros(2), 2, 0.2)
    return (extract_features(_scene()[0], ConvStackSpec(bands=4, layers=(layer,))),)


def _gradient(loss_id):
    def make(tmp_path):
        hrms, _, lrms, _ = _scene()
        reference = Raster(np.clip(hrms.data + 0.01, 0.0, 1.0))
        return (loss_gradient(loss_id, hrms, reference, lrms=lrms, ratio=4),)

    return make


def _fusion(fuse):
    def make(tmp_path):
        _, pan, lrms, _ = _scene()
        return (fuse(FusionInput(lrms=lrms, pan=pan, ratio=4)),)

    return make


# path that makes a Raster -> (tmp_path -> the rasters it made)
READ_ONLY_PATHS = {
    "constructor": lambda tmp_path: (Raster(np.ones((2, 3, 2))), Raster(np.ones((2, 3)))),
    "read_raster": _write_then_read,
    "synth_scene": lambda tmp_path: synth_scene(8, 8, 3, 1, [1.0] * 3),
    "pan_from_weights": lambda tmp_path: (pan_from_weights(_scene()[0], [1.0, 2.0, 3.0, 4.0]),),
    "extract_features-identity": lambda tmp_path: (extract_features(_scene()[0], IDENTITY),),
    "extract_features-stack": lambda tmp_path: _stack_features(),
    **{f"loss_gradient-{loss_id}": _gradient(loss_id) for loss_id in GRADIENTS},
    "downsample_antialias": lambda tmp_path: (downsample_antialias(_scene()[0], 4),),
    "downsample_antialias_adjoint": lambda tmp_path: (
        downsample_antialias_adjoint(_scene()[2], 4),
    ),
    "upsample": lambda tmp_path: (upsample(_scene()[2], 4),),
    "histogram_match": lambda tmp_path: (histogram_match(_scene()[1], _scene()[3]),),
    "wald_degrade": lambda tmp_path: wald_degrade(*_scene()[:2], 4),
    "fuse_gihs": _fusion(fuse_gihs),
    "fuse_brovey": _fusion(fuse_brovey),
    "fuse_pca": _fusion(fuse_pca),
    "fuse_gs": _fusion(fuse_gs),
    "fuse_hpf": _fusion(fuse_hpf),
}


@pytest.mark.parametrize("make", list(READ_ONLY_PATHS.values()), ids=list(READ_ONLY_PATHS))
def test_every_raster_path_makes_read_only_data(tmp_path, make):
    """A Raster is immutable on every path that makes one: a conv stack
    hands back the features it remembers on that ground."""
    rasters = make(tmp_path)
    assert rasters and all(isinstance(r, Raster) for r in rasters)
    for r in rasters:
        assert r.data.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            r.data[0, 0, 0] = 0.5


@pytest.mark.parametrize("make", list(READ_ONLY_PATHS.values()), ids=list(READ_ONLY_PATHS))
def test_every_raster_path_data_cannot_be_made_writable(tmp_path, make):
    """numpy lets the writeable flag be set again on an array that owns its
    memory or has a writeable base; a raster's data is neither."""
    for r in make(tmp_path):
        with pytest.raises(ValueError):
            r.data.flags.writeable = True
        assert r.data.flags.writeable is False


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_copied_raster_is_read_only_too(clone):
    r = random_raster(91, 3, 4, 2)
    c = clone(r)
    assert np.array_equal(c.data, r.data)
    with pytest.raises(ValueError):
        c.data.flags.writeable = True
    with pytest.raises(ValueError, match="read-only"):
        c.data[0, 0, 0] = 0.5


class _SubArray(np.ndarray):
    pass


class TestFrozen:
    """``raster._frozen``, the package's one way to make an array it shares
    immutable: a read-only view whose every base array is read-only, so numpy
    refuses to set the view's writeable flag again."""

    @staticmethod
    def assert_frozen(frozen, want):
        assert np.array_equal(frozen, want)
        with pytest.raises(ValueError):
            frozen.flags.writeable = True
        assert frozen.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            frozen.flat[0] = 0.5

    def test_an_owning_array(self):
        a = np.arange(6.0)
        frozen = raster._frozen(a)
        assert frozen.base is a and a.flags.writeable is False
        self.assert_frozen(frozen, np.arange(6.0))

    def test_a_view_of_a_writeable_array(self):
        a = np.arange(12.0)
        view = a.reshape(3, 4)[1:, ::2]
        frozen = raster._frozen(view)
        assert a.flags.writeable is False and view.flags.writeable is False
        with pytest.raises(ValueError):
            view.flags.writeable = True
        self.assert_frozen(frozen, np.arange(12.0).reshape(3, 4)[1:, ::2])

    def test_a_two_level_view_chain(self):
        """numpy points a view of a plain view at the owning array, but a
        subclass view keeps each level; every level is made read-only."""
        owner = np.arange(6.0)
        outer = owner.view(_SubArray)
        view = outer[1:]
        assert view.base is outer and outer.base is owner
        frozen = raster._frozen(view)
        for arr in (view, outer, owner):
            assert arr.flags.writeable is False
        self.assert_frozen(frozen, np.arange(1.0, 6.0))


def _layer():
    return ConvLayer(np.full((2, 4, 3, 3), 0.1), np.zeros(2), 2, 0.2)


def _total_sam_parts(index):
    hrms, _, lrms, _ = _scene()
    down, full, low = losses._total_sam_parts(hrms, Raster(hrms.data * 0.5), lrms, 4)
    return (down, *full, *low)[index]


def _gram_delta(extractor):
    hrms, _, _, _ = _scene()
    return losses._gram_delta(hrms, Raster(hrms.data * 0.5), extractor)[0]


# Each way to get an object: as built, or a copy of it (which goes through its constructor).
_AS_BUILT_OR_CLONED = {"": lambda obj: obj, **{f"{name}-": clone for name, clone in CLONES.items()}}
_SAM_PARTS = ("down", "full-dots", "full-norm-fused", "full-norm-reference",
              "low-dots", "low-norm-down", "low-norm-lrms")

# array the package shares with every caller -> () -> that array
SHARED_ARRAYS = {
    **{
        f"{how}layer-{attr}": lambda get=get, attr=attr: getattr(get(_layer()), attr)
        for how, get in _AS_BUILT_OR_CLONED.items()
        for attr in ("weights", "_taps", "bias")
    },
    **{
        f"{how}gram-matrix": lambda get=get: get(GramMatrix(np.eye(3), 4)).matrix
        for how, get in _AS_BUILT_OR_CLONED.items()
    },
    **{
        f"total_sam_parts-{name}": lambda i=i: _total_sam_parts(i)
        for i, name in enumerate(_SAM_PARTS)
    },
    "gram_delta-identity": lambda: _gram_delta(IDENTITY),
    "gram_delta-stack": lambda: _gram_delta(ConvStackSpec(bands=4, layers=(_layer(),))),
    **{
        f"gaussian_kernel-ratio-{r}": lambda r=r: _gaussian_kernel(2 * r, r / 2.0)
        for r in (1, 2, 3, 4, 8, 16)
    },
    **{f"conj_signs-{bands}": lambda bands=bands: _conj_signs(bands) for bands in (2, 4, 8, 16)},
}


@pytest.mark.parametrize("make", list(SHARED_ARRAYS.values()), ids=list(SHARED_ARRAYS))
def test_every_shared_array_cannot_be_made_writable(make):
    """A conv layer's arrays, a Gram matrix, the loss memo's values and the
    cached Gaussian taps and Q2^n sign tables are shared by every caller, so,
    like a raster's data, none of them can be made writable again."""
    arr = make()
    with pytest.raises(ValueError):
        arr.flags.writeable = True
    assert arr.flags.writeable is False
    with pytest.raises(ValueError, match="read-only"):
        arr.flat[0] = 0.5
