"""Raster type, MSR file IO, synthetic scenes, and patch extraction."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panfuse import (
    Patch,
    PatchSet,
    Raster,
    pan_from_weights,
    patchify,
    read_raster,
    synth_scene,
    write_raster,
)
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
from panfuse.raster import _check_scale_pair
from helpers import CUBE_FAULTS, JSON_VALUES, PAN_FAULTS, framed, random_raster, scale_pair


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


class TestPatchify:
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
