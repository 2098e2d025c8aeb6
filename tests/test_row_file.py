"""``eval`` reads each fused cube by row strips from its file, and the
component-substitution fusions take their detail in place.

A ``raster._RowFile`` stands in for the fused ``Raster`` of
``metrics.build_report``: the reports must be equal field by field, the
failure paths of ``cli.main`` must end in exit 5 with no report and no open
descriptor, and ``eval`` must no longer hold a fused cube. The ``old_*``
fusions below are the bodies as they were before the detail planes were
built in place; they are test-only oracles, matched bit for bit.
"""

import contextlib
import io
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from panfuse import (
    FusionInput,
    MissingFileError,
    NonFiniteDataError,
    Raster,
    RasterIOError,
    cli,
    metrics,
    raster,
    read_raster,
    synth_scene,
    wald_degrade,
    write_raster,
)
from panfuse import _strips, fusion
from panfuse.fusion import GS_LR_PAN_MODES
from panfuse.resample import _downsample, _match_moments, _upsample

from helpers import framed, random_raster

MSR_HEADER = b'{"width":2,"height":2,"bands":1,"dtype":"f64"}'


def old_gihs(fin):
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    intensity = fusion._band_mean(ms_up)
    detail = _match_moments(fin.pan.data[:, :, 0], intensity) - intensity
    return fusion._inject(ms_up, 1.0, detail)


def old_brovey(fin):
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    intensity = fusion._band_mean(ms_up)
    guarded = intensity + 1e-12
    detail = _match_moments(fin.pan.data[:, :, 0], intensity) - guarded
    return fusion._inject(ms_up, lambda s, rows: s / guarded[rows, :, None], detail)


def old_pca(fin):
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    means, _, vecs = fusion._pca_basis(ms_up)
    pc1 = fusion._plane(ms_up, lambda s, out: np.matmul(s - means, vecs[:, 0], out=out))
    return fusion._inject(ms_up, vecs[:, 0], _match_moments(fin.pan.data[:, :, 0], pc1) - pc1)


def old_gs(fin, lr_pan_mode):
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    pan2d = fin.pan.data[:, :, 0]
    if lr_pan_mode == "weighted-mean":
        intensity = fusion._band_mean(ms_up)
    elif lr_pan_mode == "blur-decimate":
        intensity = _upsample(_downsample(pan2d, fin.ratio), fin.ratio)
    else:
        weights = fusion.mmse_band_weights(fin.lrms, fin.pan, fin.ratio)
        intensity = fusion._plane(ms_up, lambda s, out: np.matmul(s, weights, out=out))
    dev_i = intensity - intensity.mean()
    var_i = np.mean(dev_i * dev_i)
    strips = _strips._row_strips(*ms_up.shape)
    cross = sum(dev_i[s].ravel() @ ms_up[s].reshape(-1, ms_up.shape[2]) for s in strips)
    gains = cross / dev_i.size / var_i
    return fusion._inject(ms_up, gains, _match_moments(pan2d, intensity) - intensity)


FUSIONS = {
    "gihs": (fusion.fuse_gihs, old_gihs),
    "brovey": (fusion.fuse_brovey, old_brovey),
    "pca": (fusion.fuse_pca, old_pca),
    **{
        f"gs-{mode}": (
            lambda fin, mode=mode: fusion.fuse_gs(fin, mode),
            lambda fin, mode=mode: old_gs(fin, mode),
        )
        for mode in GS_LR_PAN_MODES
    },
}


@pytest.mark.parametrize("name", list(FUSIONS))
@pytest.mark.parametrize("size, bands", [(64, 4), (100, 8), (36, 3)])
def test_fusion_detail_in_place_same_bits(name, size, bands):
    hrms, pan = synth_scene(size, size, bands, size + bands, [1.0] * bands)
    fin = FusionInput(lrms=wald_degrade(hrms, pan, 4)[0], pan=pan, ratio=4)
    new, old = FUSIONS[name]
    assert np.array_equal(new(fin).data, old(fin).data)


def test_brovey_peak_is_its_output_and_three_planes():
    """The guard is added to the intensity and the detail taken over the
    matched pan in place, so brovey holds at most three H x W planes besides
    its output cube."""
    hrms, pan = synth_scene(512, 512, 4, 31, [1.0] * 4)
    fin = FusionInput(lrms=wald_degrade(hrms, pan, 4)[0], pan=pan, ratio=4)
    del hrms
    tracemalloc.start()
    try:
        out = fusion.fuse_brovey(fin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.data.nbytes + 3 * pan.data.nbytes


def _inputs(height, width, bands, ratio, seed, constant=False):
    """(fused, reference, lrms, pan) for ``build_report``; with ``constant``,
    fused bands 0 and 1 hold one constant and band 2 (if any) another, so
    QNR's tile pass finds no valid tile for those band pairs."""
    rng = np.random.default_rng(seed)
    reference = 0.1 + 0.8 * rng.random((height, width, bands))
    fused = np.clip(reference + 0.05 * rng.standard_normal(reference.shape), 0.0, 1.0)
    if constant:
        fused[:, :, :2] = 0.5
        fused[:, :, 2:3] = 0.25
    lrms = 0.1 + 0.8 * rng.random((height // ratio, width // ratio, bands))
    pan = 0.1 + 0.8 * rng.random((height, width, 1))
    return tuple(map(Raster, (fused, reference, lrms, pan)))


REPORT_CASES = [
    # (height, width, bands, ratio): a partial last strip and partial edge
    # tiles at 97 x 130 and 40 x 33; a 4-times scale pair at 64 x 96.
    (97, 130, 2, 1),
    (97, 130, 4, 1),
    (97, 130, 8, 1),
    (40, 33, 4, 1),
    (40, 33, 8, 1),
    (64, 96, 4, 4),
]


@pytest.mark.parametrize("constant", [False, True], ids=["random", "constant-bands"])
@pytest.mark.parametrize("height, width, bands, ratio", REPORT_CASES)
def test_report_over_row_file_equals_in_memory(tmp_path, height, width, bands, ratio,
                                               constant):
    fused, reference, lrms, pan = _inputs(height, width, bands, ratio, height + bands, constant)
    write_raster(fused, tmp_path / "f.msr")
    want = metrics.build_report("f", fused, reference, lrms, pan, ratio)
    with raster._RowFile(tmp_path / "f.msr") as rows:
        got = metrics.build_report("f", rows, reference, lrms, pan, ratio)
    assert got == want


@pytest.mark.parametrize("bands", [3, 4, 8])
def test_tile_index_fallback_over_row_file(tmp_path, bands):
    """Band pairs without a valid tile compare their channels strip by strip:
    two equal constants give 1, two different ones 0, as in memory."""
    fused, _, _, pan = _inputs(97, 130, bands, 1, bands, constant=True)
    write_raster(fused, tmp_path / "f.msr")
    pairs = metrics._qnr_pairs(bands)
    want = metrics._tile_index((fused.data, pan.data), 32, metrics._uiqi(pairs), pairs)
    with raster._RowFile(tmp_path / "f.msr") as rows:
        got = metrics._tile_index((rows, pan.data), 32, metrics._uiqi(pairs), pairs)
    assert got == want
    assert got[pairs.index((0, 1))] == 1.0
    assert got[pairs.index((0, 2))] == 0.0


class TestRowFile:
    def test_rows_are_the_payload_rows(self, tmp_path):
        cube = random_raster(5, 37, 11, 3)
        write_raster(cube, tmp_path / "c.msr")
        with raster._RowFile(tmp_path / "c.msr") as rows:
            assert (rows.height, rows.width, rows.bands) == (37, 11, 3)
            assert rows.data is rows and rows.shape == cube.data.shape
            for index in [slice(0, 37), slice(5, 9), slice(30, 99), slice(9, 9),
                          (slice(4, 20), slice(None, 8)), (slice(None), slice(0, 11))]:
                got = rows[index]
                assert np.array_equal(got, cube.data[index])
                assert got.dtype == np.float64 and not got.flags.writeable

    @pytest.mark.parametrize("index", [
        np.s_[3], np.s_[::2], np.s_[:, 1:], np.s_[:, ::2], np.s_[:, :, 0], np.s_[...],
        np.s_[[0, 1]],
    ], ids=["int", "row-step", "col-start", "col-step", "band", "ellipsis", "fancy"])
    def test_other_indexes_raise(self, tmp_path, index):
        write_raster(random_raster(6, 8, 8, 2), tmp_path / "c.msr")
        with raster._RowFile(tmp_path / "c.msr") as rows, pytest.raises(TypeError):
            rows[index]

    @pytest.mark.parametrize("content", [
        b"XXXX" + b"\0" * 12,
        b"MSR1\x01",
        framed(b"MSR1", b"[" * 5000),
        framed(b"MSR1", b'{"width":2,"height":2,"bands":1,"dtype":"f32"}', b"\0" * 32),
        framed(b"MSR1", MSR_HEADER, b"\0" * 24),
        framed(b"MSR1", MSR_HEADER, np.array([0.0, 0.0, 0.0, np.inf]).tobytes()),
    ], ids=["magic", "short", "json", "dtype", "payload-size", "non-finite"])
    def test_header_and_payload_errors_are_read_rasters(self, tmp_path, content):
        path = tmp_path / "bad.msr"
        path.write_bytes(content)
        with pytest.raises(RasterIOError) as want:
            read_raster(path)
        with pytest.raises(RasterIOError) as got:
            raster._RowFile(path)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            raster._RowFile(tmp_path / "none.msr")

    def test_nan_written_after_opening_names_the_path(self, tmp_path):
        path, cube = tmp_path / "c.msr", random_raster(7, 8, 8, 2)
        write_raster(cube, path)
        with raster._RowFile(path) as rows:
            _poison_last_value(path, np.nan)
            with pytest.raises(NonFiniteDataError, match="c.msr"):
                rows[4:8]
            assert np.array_equal(rows[0:4], cube.data[0:4])


    def test_read_fills_the_callers_buffer(self, tmp_path):
        """``read`` puts whole rows at the start of a flat scratch buffer and
        returns a writable view of it, for any strip that fits, the last one
        too: one buffer serves every strip of a thread."""
        cube = random_raster(8, 37, 11, 3)
        write_raster(cube, tmp_path / "c.msr")
        buffer = np.full(20 * 11 * 3, -1.0)
        with raster._RowFile(tmp_path / "c.msr") as rows:
            for index in [slice(0, 20), slice(30, 37), slice(35, 99), slice(9, 9)]:
                got = rows.read(index, buffer)
                assert np.array_equal(got, cube.data[index])
                assert got.flags.writeable
                assert got.size == 0 or got.ctypes.data == buffer.ctypes.data
            assert buffer.flags.writeable

    @pytest.mark.parametrize("fault", ["nan", "truncated"])
    def test_buffer_read_fails_as_a_fresh_read(self, tmp_path, fault):
        """A file that takes a NaN, or is cut short, after it was opened gives
        the same error through ``read`` into a buffer as through
        ``data[lo:hi]``, and the rows before the fault still read."""
        path, cube = tmp_path / "c.msr", random_raster(9, 8, 8, 2)
        write_raster(cube, path)
        buffer = np.empty(4 * 8 * 2)
        with raster._RowFile(path) as rows:
            if fault == "nan":
                _poison_last_value(path, np.nan)
            else:
                os.truncate(path, os.path.getsize(path) - 8)
            with pytest.raises(RasterIOError) as fresh:
                rows[4:8]
            with pytest.raises(RasterIOError) as read:
                rows.read(slice(4, 8), buffer)
            assert type(read.value) is type(fresh.value)
            assert str(read.value) == str(fresh.value)
            assert "c.msr" in str(read.value)
            assert np.array_equal(rows.read(slice(0, 4), buffer), cube.data[0:4])


def _poison_last_value(path, value):
    """Overwrite the last float64 of the payload, in the last row."""
    with open(path, "r+b") as fh:
        fh.seek(-8, os.SEEK_END)
        fh.write(np.float64(value).tobytes())


@pytest.fixture(scope="module")
def eval_scene(tmp_path_factory):
    """A 64 x 64 x 4 scene, degraded at ratio 4, and its gihs fusion."""
    out = tmp_path_factory.mktemp("eval")
    hrms, pan = synth_scene(64, 64, 4, 9, [1.0] * 4)
    lrms, _, reference = wald_degrade(hrms, pan, 4)
    for name, r in [("pan", pan), ("lrms", lrms), ("reference", reference),
                    ("gihs", fusion.fuse_gihs(FusionInput(lrms, pan, 4)))]:
        write_raster(r, out / f"{name}.msr")
    return out


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def _eval(scene, fused, out, capsys):
    """``cli.main`` eval of ``fused``; returns (exit code, stderr lines)."""
    code = cli.main([str(a) for a in (
        "eval", "--fused", fused, "--reference", scene / "reference.msr",
        "--lrms", scene / "lrms.msr", "--pan", scene / "pan.msr", "--out", out)])
    return code, capsys.readouterr().err.splitlines()


class TestEvalFailures:
    """A fused file that is non-finite or changes under ``eval`` is exit 5
    with one error line, no report and no descriptor left open."""

    @pytest.fixture(autouse=True)
    def fds_unchanged(self):
        if not Path("/proc/self/fd").is_dir():
            yield
            return
        before = _open_fds()
        yield
        assert _open_fds() == before

    def test_success_leaves_no_descriptor(self, eval_scene, tmp_path, capsys):
        code, err = _eval(eval_scene, eval_scene / "gihs.msr", tmp_path, capsys)
        assert code == 0 and err == []
        assert (tmp_path / "report.csv").is_file()

    @pytest.mark.parametrize("scale", [1.0, 1e200], ids=["unit", "overflowing"])
    def test_nan_in_last_row_exit_five(self, eval_scene, tmp_path, capsys, scale):
        """The payload is checked before any metric runs, so a cube whose
        metrics would overflow (exit 4) is still exit 5 for its NaN."""
        fused = tmp_path / "nan.msr"
        write_raster(Raster(read_raster(eval_scene / "gihs.msr").data * scale), fused)
        _poison_last_value(fused, np.nan)
        code, err = _eval(eval_scene, fused, tmp_path, capsys)
        assert code == 5
        assert err == [f"error: {fused}: payload contains non-finite values"]
        assert not (tmp_path / "report.csv").exists()

    def test_file_truncated_after_opening_exit_five(self, eval_scene, tmp_path, capsys,
                                                    monkeypatch):
        fused = tmp_path / "cut.msr"
        fused.write_bytes((eval_scene / "gihs.msr").read_bytes())
        build_report = metrics.build_report

        def truncate_then_build(method, rows, *args):
            os.truncate(fused, os.path.getsize(fused) // 2)
            return build_report(method, rows, *args)

        monkeypatch.setattr(metrics, "build_report", truncate_then_build)
        code, err = _eval(eval_scene, fused, tmp_path, capsys)
        assert code == 5
        assert err == [f"error: {fused}: file changed while it was read"]
        assert not (tmp_path / "report.csv").exists()

    def test_missing_fused_file_exit_five(self, eval_scene, tmp_path, capsys):
        code, err = _eval(eval_scene, tmp_path / "none.msr", tmp_path, capsys)
        assert code == 5 and len(err) == 1
        assert not (tmp_path / "report.csv").exists()


def test_eval_holds_no_fused_cube(eval_scene, tmp_path):
    """Under tracemalloc, a one-method ``eval`` at 512 x 512 x 4 holds the
    reference, the pan and the lrms, the strip temporaries of each strip
    thread (2 MiB apiece) and at most 1 MiB beside them, but no fused cube
    and no 2 MiB plane."""
    hrms, pan = synth_scene(512, 512, 4, 12, [1.0] * 4)
    lrms, _, reference = wald_degrade(hrms, pan, 4)
    fused = fusion.fuse_gihs(FusionInput(lrms, pan, 4))
    for name, r in [("pan", pan), ("lrms", lrms), ("reference", reference), ("f", fused)]:
        write_raster(r, tmp_path / f"{name}.msr")
    held = sum(r.data.nbytes for r in (reference, pan, lrms))
    threads = 2 if _strips._cpus() >= 2 else 1
    del hrms, pan, lrms, reference, fused
    argv = [str(a) for a in (
        "eval", "--fused", tmp_path / "f.msr", "--reference", tmp_path / "reference.msr",
        "--lrms", tmp_path / "lrms.msr", "--pan", tmp_path / "pan.msr", "--out", tmp_path)]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held + threads * 2 * 2**20 + 2**20


def test_eval_peak_at_1024_with_scratch_held_per_call(tmp_path):
    """Each thread's strip scratch is held for a whole metric call, so it must
    stay within the temporaries its strips made before: under tracemalloc, a
    1024 x 1024 x 4 ``eval`` peaks at no more than the 50.2 MiB it reached
    when every strip made its own temporaries (50.15 MiB for one method, on
    2 CPUs; 49.6 MiB with the scratch)."""
    hrms, pan = synth_scene(1024, 1024, 4, 2000, [1.0] * 4)
    lrms, _, reference = wald_degrade(hrms, pan, 4)
    del hrms
    fused = fusion.fuse_gihs(FusionInput(lrms, pan, 4))
    for name, r in [("pan", pan), ("lrms", lrms), ("reference", reference), ("f", fused)]:
        write_raster(r, tmp_path / f"{name}.msr")
    del pan, lrms, reference, fused
    argv = [str(a) for a in (
        "eval", "--fused", tmp_path / "f.msr", "--reference", tmp_path / "reference.msr",
        "--lrms", tmp_path / "lrms.msr", "--pan", tmp_path / "pan.msr", "--out", tmp_path)]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50.2 * 2**20
