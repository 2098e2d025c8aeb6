"""End-to-end CLI behavior: artifacts, formats, and exit codes."""

import json
import struct

import numpy as np
import pytest

from panfuse import (
    ConvLayer,
    ConvStackSpec,
    Raster,
    read_raster,
    save_conv_stack,
    synth_scene,
    write_raster,
)
from panfuse import cli
from helpers import random_raster, run_cli, separated_pair


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    """simulate + degrade once; several tests share the artifacts."""
    out = tmp_path_factory.mktemp("scene")
    r = run_cli("simulate", "--size", 64, "--bands", 4, "--seed", 7, "--out", out)
    assert r.returncode == 0, r.stderr
    r = run_cli(
        "degrade", "--hrms", out / "hrms.msr", "--pan", out / "pan.msr",
        "--ratio", 4, "--out", out,
    )
    assert r.returncode == 0, r.stderr
    return out


class TestSimulate:
    def test_writes_declared_dims(self, scene_dir):
        hrms = read_raster(scene_dir / "hrms.msr")
        pan = read_raster(scene_dir / "pan.msr")
        assert hrms.data.shape == (64, 64, 4)
        assert pan.data.shape == (64, 64, 1)

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            r = run_cli("simulate", "--size", 32, "--bands", 3, "--seed", 5,
                        "--pan-weights", "1,2,1", "--out", out)
            assert r.returncode == 0, r.stderr
        assert (a / "hrms.msr").read_bytes() == (b / "hrms.msr").read_bytes()
        assert (a / "pan.msr").read_bytes() == (b / "pan.msr").read_bytes()

    def test_zero_bands_usage_error(self, tmp_path):
        r = run_cli("simulate", "--size", 32, "--bands", 0, "--out", tmp_path)
        assert r.returncode == 2

    def test_too_small_usage_error(self, tmp_path):
        r = run_cli("simulate", "--size", 4, "--out", tmp_path)
        assert r.returncode == 2


class TestDegrade:
    def test_output_dims(self, scene_dir):
        assert read_raster(scene_dir / "lrms.msr").data.shape == (16, 16, 4)
        assert read_raster(scene_dir / "lrpan.msr").data.shape == (16, 16, 1)

    def test_reference_byte_equal_to_hrms(self, scene_dir):
        a = (scene_dir / "reference.msr").read_bytes()
        b = (scene_dir / "hrms.msr").read_bytes()
        assert a == b

    def test_ratio_one_rejected(self, scene_dir, tmp_path):
        r = run_cli("degrade", "--hrms", scene_dir / "hrms.msr",
                    "--pan", scene_dir / "pan.msr", "--ratio", 1, "--out", tmp_path)
        assert r.returncode == 2

    def test_dim_mismatch_exit_three(self, scene_dir, tmp_path):
        r = run_cli("degrade", "--hrms", scene_dir / "hrms.msr",
                    "--pan", scene_dir / "lrpan.msr", "--ratio", 4, "--out", tmp_path)
        assert r.returncode == 3

    def test_missing_file_exit_five(self, tmp_path):
        r = run_cli("degrade", "--hrms", tmp_path / "nope.msr",
                    "--pan", tmp_path / "nope2.msr", "--out", tmp_path)
        assert r.returncode == 5


class TestPatchify:
    def test_patch_count(self, scene_dir, tmp_path):
        r = run_cli("patchify", "--ms", scene_dir / "lrms.msr",
                    "--pan", scene_dir / "pan.msr", "--patch", 32, "--ratio", 4,
                    "--out", tmp_path)
        assert r.returncode == 0, r.stderr
        assert "4 patch pairs" in r.stdout
        assert (tmp_path / "patch_003_pan.msr").exists()


class TestFuse:
    @pytest.mark.parametrize("method", list(cli.FUSE_METHODS))
    def test_all_methods_write_output(self, scene_dir, tmp_path, method):
        r = run_cli("fuse", "--method", method, "--lrms", scene_dir / "lrms.msr",
                    "--pan", scene_dir / "pan.msr", "--ratio", 4,
                    "--name", method, "--out", tmp_path)
        assert r.returncode == 0, r.stderr
        fused = read_raster(tmp_path / f"{method}.msr")
        assert fused.data.shape == (64, 64, 4)

    def test_unknown_method_exit_two(self, scene_dir, tmp_path):
        r = run_cli("fuse", "--method", "wavelet", "--lrms", scene_dir / "lrms.msr",
                    "--pan", scene_dir / "pan.msr", "--out", tmp_path)
        assert r.returncode == 2

    def test_gs_lrpan_flag_routes_to_mmse(self, scene_dir, tmp_path):
        for name, extra in (("wm", []), ("mm", ["--lrpan", "mmse"])):
            r = run_cli("fuse", "--method", "gs", "--lrms", scene_dir / "lrms.msr",
                        "--pan", scene_dir / "pan.msr", "--ratio", 4,
                        "--name", name, "--out", tmp_path, *extra)
            assert r.returncode == 0, r.stderr
        wm = read_raster(tmp_path / "wm.msr")
        mm = read_raster(tmp_path / "mm.msr")
        assert not np.array_equal(wm.data, mm.data)
        # gs-mmse method alias produces the same image as gs --lrpan mmse
        r = run_cli("fuse", "--method", "gs-mmse", "--lrms", scene_dir / "lrms.msr",
                    "--pan", scene_dir / "pan.msr", "--ratio", 4,
                    "--name", "alias", "--out", tmp_path)
        assert r.returncode == 0
        assert np.array_equal(read_raster(tmp_path / "alias.msr").data, mm.data)

    def test_degenerate_scene_exit_four(self, tmp_path):
        const = Raster(np.full((16, 16, 4), 0.5))
        pan = Raster(np.random.default_rng(0).random((16, 16, 1)))
        write_raster(const, tmp_path / "lrms.msr")
        write_raster(pan, tmp_path / "pan.msr")
        r = run_cli("fuse", "--method", "pca", "--lrms", tmp_path / "lrms.msr",
                    "--pan", tmp_path / "pan.msr", "--ratio", 1, "--out", tmp_path)
        assert r.returncode == 4
        assert "pca" in r.stderr


class TestEval:
    def test_ideal_row(self, scene_dir, tmp_path):
        r = run_cli("eval", "--fused", scene_dir / "reference.msr",
                    "--reference", scene_dir / "reference.msr",
                    "--lrms", scene_dir / "lrms.msr", "--pan", scene_dir / "pan.msr",
                    "--ratio", 4, "--out", tmp_path)
        assert r.returncode == 0, r.stderr
        rows = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert rows[0] == "method,ssim,sam,ergas,q4,qnr"
        cells = rows[1].split(",")
        assert cells[0] == "reference"
        assert cells[1] == "1.000000"  # ssim
        assert cells[2] == "0.000000"  # sam
        assert cells[3] == "0.000000"  # ergas
        assert cells[4] == "1.000000"  # q4

    def test_multi_method_rows_in_input_order(self, scene_dir, tmp_path):
        fused_dir = tmp_path / "fused"
        names = ["gihs", "brovey", "pca", "gs", "hpf"]
        for m in names:
            r = run_cli("fuse", "--method", m, "--lrms", scene_dir / "lrms.msr",
                        "--pan", scene_dir / "pan.msr", "--ratio", 4,
                        "--name", m, "--out", fused_dir)
            assert r.returncode == 0, r.stderr
        r = run_cli("eval", "--fused", *[fused_dir / f"{m}.msr" for m in names],
                    "--reference", scene_dir / "reference.msr",
                    "--lrms", scene_dir / "lrms.msr", "--pan", scene_dir / "pan.msr",
                    "--ratio", 4, "--out", tmp_path)
        assert r.returncode == 0, r.stderr
        rows = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert len(rows) == 6
        assert [row.split(",")[0] for row in rows[1:]] == names

    def test_json_matches_csv(self, scene_dir, tmp_path):
        args = ("--fused", scene_dir / "reference.msr",
                "--reference", scene_dir / "reference.msr",
                "--lrms", scene_dir / "lrms.msr", "--pan", scene_dir / "pan.msr",
                "--ratio", 4, "--out", tmp_path)
        assert run_cli("eval", *args).returncode == 0
        assert run_cli("eval", *args, "--format", "json").returncode == 0
        csv_cells = (tmp_path / "report.csv").read_text().strip().split("\n")[1].split(",")
        json_row = json.loads((tmp_path / "report.json").read_text())[0]
        for i, name in enumerate(("ssim", "sam", "ergas", "q4", "qnr")):
            assert float(csv_cells[i + 1]) == json_row[name]

    def test_shape_mismatch_exit_three(self, scene_dir, tmp_path):
        r = run_cli("eval", "--fused", scene_dir / "lrms.msr",
                    "--reference", scene_dir / "reference.msr",
                    "--lrms", scene_dir / "lrms.msr", "--pan", scene_dir / "pan.msr",
                    "--ratio", 4, "--out", tmp_path)
        assert r.returncode == 3


class TestLoss:
    def test_gm_reconstruction_self_is_zero(self, scene_dir):
        r = run_cli("loss", "--name", "gm-reconstruction",
                    scene_dir / "hrms.msr", scene_dir / "hrms.msr")
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "0.000000"

    def test_gm_perceptual_identity_equals_reconstruction(self, scene_dir):
        a = run_cli("loss", "--name", "gm-perceptual", "--extractor", "identity",
                    scene_dir / "hrms.msr", scene_dir / "reference.msr")
        b = run_cli("loss", "--name", "gm-reconstruction",
                    scene_dir / "hrms.msr", scene_dir / "reference.msr")
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout

    def test_disc_closed_form(self):
        r = run_cli("loss", "--name", "disc", "--d-fake", "0.5", "--d-real", "0.5")
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "1.000000"

    def test_total_sam_needs_context(self, scene_dir):
        r = run_cli("loss", "--name", "total-sam",
                    scene_dir / "hrms.msr", scene_dir / "reference.msr")
        assert r.returncode == 2

    def test_gen_adv_needs_score(self, scene_dir):
        r = run_cli("loss", "--name", "gen-adv",
                    scene_dir / "hrms.msr", scene_dir / "reference.msr")
        assert r.returncode == 2

    def test_grad_check_sam_passes(self, scene_dir, tmp_path):
        fused = tmp_path / "f.msr"
        rng = np.random.default_rng(3)
        write_raster(Raster(0.1 + 0.8 * rng.random((64, 64, 4))), fused)
        r = run_cli("loss", "--name", "sam", "--grad-check",
                    fused, scene_dir / "reference.msr")
        assert r.returncode == 0, r.stderr + r.stdout
        assert "PASS" in r.stdout

    def test_grad_check_total_sam_passes(self, scene_dir, tmp_path):
        fused = tmp_path / "f.msr"
        rng = np.random.default_rng(4)
        write_raster(Raster(0.1 + 0.8 * rng.random((64, 64, 4))), fused)
        r = run_cli("loss", "--name", "total-sam", "--grad-check",
                    "--lrms", scene_dir / "lrms.msr", "--ratio", 4,
                    fused, scene_dir / "reference.msr")
        assert r.returncode == 0, r.stderr + r.stdout
        assert "PASS" in r.stdout

    def test_grad_check_unsupported_loss(self, scene_dir):
        r = run_cli("loss", "--name", "sam-printed", "--grad-check",
                    scene_dir / "hrms.msr", scene_dir / "reference.msr")
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "name", [name for name, (_, grad_id) in cli.LOSSES.items() if grad_id is not None]
    )
    def test_grad_check_every_analytic_gradient(self, tmp_path, name):
        # a pair whose per-element gap stays away from zero keeps l1 differentiable
        fused, reference = separated_pair(5, height=16, width=16, bands=4)
        write_raster(fused, tmp_path / "f.msr")
        write_raster(reference, tmp_path / "r.msr")
        write_raster(random_raster(6, 4, 4, 4, lo=0.1, hi=0.9), tmp_path / "lrms.msr")
        r = run_cli("loss", "--name", name, "--grad-check",
                    "--lrms", tmp_path / "lrms.msr", "--ratio", 4,
                    tmp_path / "f.msr", tmp_path / "r.msr")
        assert r.returncode == 0, r.stderr + r.stdout
        assert "PASS" in r.stdout


class TestMalformedInputs:
    """Bad files end with an exit code and a one-line error, never a traceback."""

    def assert_exit(self, r, code):
        assert r.returncode == code, r.stderr
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: ")

    def test_bool_dimension_in_msr_header_exit_five(self, scene_dir, tmp_path):
        header = json.dumps({"width": True, "height": 1, "bands": 1, "dtype": "f64"}).encode()
        bad = tmp_path / "bad.msr"
        bad.write_bytes(b"MSR1" + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        r = run_cli("degrade", "--hrms", bad, "--pan", scene_dir / "pan.msr",
                    "--out", tmp_path)
        self.assert_exit(r, 5)

    def test_zero_output_channels_in_csw_exit_five(self, scene_dir, tmp_path):
        layer = {"out": 0, "in": 4, "k": 1, "stride": 1, "slope": 0.0}
        header = json.dumps({"bands": 4, "layers": [layer]}).encode()
        csw = tmp_path / "x.csw"
        csw.write_bytes(b"CSW1" + struct.pack("<I", len(header)) + header)
        r = run_cli("loss", "--name", "perceptual", "--extractor", csw,
                    scene_dir / "hrms.msr", scene_dir / "reference.msr")
        self.assert_exit(r, 5)

    def test_overflowing_conv_stack_exit_four(self, scene_dir, tmp_path):
        # finite float32 weights whose products overflow float64 after 9 layers
        layer = ConvLayer(weights=np.full((4, 4, 1, 1), 3e38), bias=np.zeros(4),
                          stride=1, leaky_slope=0.0)
        csw = tmp_path / "x.csw"
        save_conv_stack(ConvStackSpec(bands=4, layers=(layer,) * 9), csw)
        r = run_cli("loss", "--name", "perceptual", "--extractor", csw,
                    scene_dir / "hrms.msr", scene_dir / "reference.msr")
        self.assert_exit(r, 4)
