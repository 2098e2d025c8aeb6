"""End-to-end CLI behavior: artifacts, formats, and exit codes."""

import contextlib
import csv
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panfuse import (
    ConvLayer,
    ConvStackSpec,
    Raster,
    gm_perceptual_loss,
    load_conv_stack,
    perceptual_loss,
    read_raster,
    save_conv_stack,
    synth_scene,
    wald_degrade,
    write_raster,
)
from panfuse import cli, losses, metrics, raster
from helpers import computed_calls, framed, random_raster, run_cli, separated_pair


# The losses that have an analytic gradient.
GRADIENT_NAMES = [name for name, (_, grad_id) in losses.LOSSES.items() if grad_id is not None]

# A one-layer 4-band conv stack, a valid --extractor file.
SWEEP_STACK = ConvStackSpec(
    bands=4, layers=(ConvLayer(np.full((4, 4, 1, 1), 0.1), np.zeros(4), 1, 0.2),)
)


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """An 8 x 8 pair, an 8 x 12 raster, a ratio-4 lrms and a conv stack."""
    out = tmp_path_factory.mktemp("sweep")
    fused, reference = separated_pair(21, height=8, width=8, bands=4)
    write_raster(fused, out / "f.msr")
    write_raster(reference, out / "r.msr")
    write_raster(random_raster(22, 8, 12, 4, lo=0.1, hi=0.9), out / "wide.msr")
    write_raster(random_raster(23, 2, 2, 4, lo=0.1, hi=0.9), out / "lrms.msr")
    save_conv_stack(SWEEP_STACK, out / "stack.csw")
    return out


@pytest.fixture(scope="module")
def band_dir(tmp_path_factory):
    """A 16 x 16 scene per band count 1-9 in ``<bands>/``, degraded at ratio 4
    (hrms, pan, lrms, lrpan, reference), plus a file that is not a raster."""
    out = tmp_path_factory.mktemp("bands")
    for bands in range(1, 10):
        hrms, pan = synth_scene(16, 16, bands, bands, [1.0] * bands)
        lrms, lrpan, reference = wald_degrade(hrms, pan, 4)
        (out / str(bands)).mkdir()
        for name, r in [("hrms", hrms), ("pan", pan), ("lrms", lrms), ("lrpan", lrpan),
                        ("reference", reference)]:
            write_raster(r, out / str(bands) / f"{name}.msr")
    (out / "junk.msr").write_bytes(b"MSR1 not a raster")
    return out


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

    def test_out_naming_a_file_is_an_io_error(self, tmp_path, capsys):
        """``--out`` must be a directory: an existing file there is an OS error,
        which ``main`` reports as an IO error, exit 5."""
        (tmp_path / "taken").write_bytes(b"")
        assert cli.main(["simulate", "--size", "8", "--out", str(tmp_path / "taken")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and "taken" in err and "Traceback" not in err


# Each command with --out: its arguments, and the first raster call of its work.
OUT_WORK = {
    "simulate": (["simulate", "--size", "8"], "synth_scene"),
    "degrade": (["degrade", "--hrms", "h.msr", "--pan", "p.msr"], "read_raster"),
    "patchify": (["patchify", "--ms", "m.msr", "--pan", "p.msr"], "read_raster"),
    "fuse": (["fuse", "--method", "gihs", "--lrms", "l.msr", "--pan", "p.msr"], "read_raster"),
    "eval": (["eval", "--fused", "f.msr", "--reference", "r.msr", "--lrms", "l.msr",
              "--pan", "p.msr"], "read_raster"),
}


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
@pytest.mark.parametrize("command", OUT_WORK)
def test_out_naming_a_file_fails_before_the_work(command, out, tmp_path, monkeypatch, capsys):
    """An ``--out`` that is a file, or lies under one, is refused before the
    command reads or computes anything: its first raster call never runs, and
    the one error line names ``--out``."""
    argv, first = OUT_WORK[command]
    (tmp_path / "taken").write_bytes(b"")

    def never(*args: object) -> None:
        raise AssertionError(f"{first} ran")

    monkeypatch.setattr(raster, first, never)
    assert cli.main([*argv, "--out", str(tmp_path / out)]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"io error: --out {tmp_path / out}: ")


@pytest.mark.parametrize("out", ["dangling", "dangling/sub"])
@pytest.mark.parametrize("command", OUT_WORK)
def test_out_at_a_dangling_symlink_fails_before_the_work(command, out, tmp_path, monkeypatch,
                                                          capsys):
    """A dangling symlink is refused as a file is: ``mkdir`` cannot create
    the directory it names, so the command must not run first."""
    (tmp_path / "dangling").symlink_to(tmp_path / "missing")
    test_out_naming_a_file_fails_before_the_work(command, out, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("out", ["link", "link/sub"])
def test_out_through_a_symlink_to_a_directory_runs(out, tmp_path):
    (tmp_path / "dir").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "dir")
    assert cli.main(["simulate", "--size", "8", "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / out / "hrms.msr").is_file()


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

    def test_ratio_one_with_missing_file_exit_five(self, tmp_path):
        # The inputs are read before the ratio is checked, as in fuse and eval.
        r = run_cli("degrade", "--hrms", tmp_path / "nope.msr",
                    "--pan", tmp_path / "nope2.msr", "--ratio", 1, "--out", tmp_path)
        assert r.returncode == 5


class TestPatchify:
    def test_patch_count(self, scene_dir, tmp_path):
        r = run_cli("patchify", "--ms", scene_dir / "lrms.msr",
                    "--pan", scene_dir / "pan.msr", "--patch", 32, "--ratio", 4,
                    "--out", tmp_path)
        assert r.returncode == 0, r.stderr
        assert "4 patch pairs" in r.stdout
        assert (tmp_path / "patch_003_pan.msr").exists()

    def test_patch_larger_than_pan_exit_three(self, tmp_path, capsys):
        """No patch fits: one error line naming both sizes, and no ``--out``."""
        write_raster(random_raster(0, 32, 32, 4), tmp_path / "ms.msr")
        write_raster(random_raster(1, 32, 32, 1), tmp_path / "pan.msr")
        argv = ["patchify", "--ms", tmp_path / "ms.msr", "--pan", tmp_path / "pan.msr",
                "--patch", 64, "--ratio", 1, "--out", tmp_path / "o"]
        assert cli.main([str(a) for a in argv]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: patch size 64 larger than pan 32x32"]
        assert not (tmp_path / "o").exists()


class TestArgumentFaults:
    """Bad argument values exit 2 through ``cli.main`` with a one-line error."""

    def assert_usage_error(self, argv, capsys):
        assert cli.main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("patch", [0, -4])
    def test_non_positive_patch(self, scene_dir, tmp_path, capsys, patch):
        self.assert_usage_error(
            ["patchify", "--ms", scene_dir / "lrms.msr", "--pan", scene_dir / "pan.msr",
             "--patch", patch, "--ratio", 4, "--out", tmp_path],
            capsys,
        )
        assert not list(tmp_path.iterdir())

    def test_negative_seed(self, tmp_path, capsys):
        self.assert_usage_error(
            ["simulate", "--size", 16, "--seed", -1, "--out", tmp_path], capsys
        )

    @pytest.mark.parametrize(
        "weights", ["nan,1,1,1", "inf,1,1,1", "1e308,1e308,1,1"],
        ids=["nan", "inf", "sum-overflows"],
    )
    def test_non_finite_pan_weights(self, tmp_path, capsys, weights):
        self.assert_usage_error(
            ["simulate", "--size", 16, "--bands", 4, "--pan-weights", weights,
             "--out", tmp_path],
            capsys,
        )
        assert not (tmp_path / "pan.msr").exists()

    def test_unallocatable_scene(self, tmp_path, capsys):
        self.assert_usage_error(["simulate", "--size", 10**8, "--out", tmp_path], capsys)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("h", ["nan", "inf"])
    def test_non_finite_grad_check_step(self, scene_dir, capsys, h):
        self.assert_usage_error(
            ["loss", "--name", "l1", "--grad-check", "--h", h,
             scene_dir / "hrms.msr", scene_dir / "reference.msr"],
            capsys,
        )

    @pytest.mark.parametrize("score", ["nan", "inf"])
    def test_non_finite_generator_score_exit_four(self, scene_dir, capsys, score):
        argv = ["loss", "--name", "gen-adv", "--d-score", score,
                scene_dir / "hrms.msr", scene_dir / "reference.msr"]
        assert cli.main([str(a) for a in argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestFuse:
    @pytest.mark.parametrize("method", list(cli.FUSE_METHODS))
    def test_all_methods_write_output(self, scene_dir, tmp_path, method):
        r = run_cli("fuse", "--method", method, "--lrms", scene_dir / "lrms.msr",
                    "--pan", scene_dir / "pan.msr", "--ratio", 4,
                    "--name", method, "--out", tmp_path)
        assert r.returncode == 0, r.stderr
        fused = read_raster(tmp_path / f"{method}.msr")
        assert fused.data.shape == (64, 64, 4)

    def test_one_pixel_pca_exit_four(self, tmp_path, capsys):
        write_raster(Raster(np.full((1, 1, 3), 0.5)), tmp_path / "ms.msr")
        write_raster(Raster(np.full((1, 1, 1), 0.3)), tmp_path / "pan.msr")
        argv = ["fuse", "--method", "pca", "--lrms", tmp_path / "ms.msr",
                "--pan", tmp_path / "pan.msr", "--ratio", 1, "--out", tmp_path]
        assert cli.main([str(a) for a in argv]) == 4
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_method_exit_two(self, scene_dir, tmp_path):
        r = run_cli("fuse", "--method", "wavelet", "--lrms", scene_dir / "lrms.msr",
                    "--pan", scene_dir / "pan.msr", "--out", tmp_path)
        assert r.returncode == 2

    def test_gs_mmse_on_identical_bands_exit_four(self, tmp_path, capsys):
        """Identical lrms bands leave MMSE's band system rank-deficient."""
        write_raster(Raster(np.repeat(random_raster(3, 4, 4, 1).data, 4, axis=2)),
                     tmp_path / "ms.msr")
        write_raster(random_raster(4, 16, 16, 1), tmp_path / "pan.msr")
        argv = ["fuse", "--method", "gs", "--lrpan", "mmse", "--lrms", tmp_path / "ms.msr",
                "--pan", tmp_path / "pan.msr", "--ratio", 4, "--out", tmp_path]
        assert cli.main([str(a) for a in argv]) == 4
        assert capsys.readouterr().err == (
            "error: fuse gs: mmse weights: rank-deficient band system\n")

    @pytest.mark.parametrize(
        "name", ["sub/x", "", ".", ".."], ids=["path", "empty", "dot", "dotdot"]
    )
    def test_name_not_a_file_stem_exit_two(self, scene_dir, tmp_path, monkeypatch, capsys, name):
        """A ``--name`` that is empty or not its own file name is refused
        before any work: no raster is read and no ``--out`` is created."""

        def never(*args: object) -> None:
            raise AssertionError("read_raster ran")

        monkeypatch.setattr(raster, "read_raster", never)
        argv = ["fuse", "--method", "gihs", "--lrms", scene_dir / "lrms.msr",
                "--pan", scene_dir / "pan.msr", "--name", name, "--out", tmp_path / "o"]
        assert cli.main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --name {name!r} is not a file stem"]
        assert not (tmp_path / "o").exists()

    def test_gihs_on_two_bands_exit_three(self, band_dir, tmp_path, capsys):
        """Was a usage error, exit 2; every other band shortfall exits 3."""
        scene = band_dir / "2"
        argv = ["fuse", "--method", "gihs", "--lrms", scene / "lrms.msr",
                "--pan", scene / "pan.msr", "--ratio", 4, "--out", tmp_path / "out"]
        assert cli.main([str(a) for a in argv]) == 3
        assert capsys.readouterr().err == (
            "error: fuse gihs: gihs requires at least 3 bands, got 2\n")
        assert not (tmp_path / "out").exists()

    def test_gs_lrpan_flag_routes_to_mmse(self, scene_dir, tmp_path):
        for name, extra in (("wm", []), ("mm", ["--lrpan", "mmse"])):
            r = run_cli("fuse", "--method", "gs", "--lrms", scene_dir / "lrms.msr",
                        "--pan", scene_dir / "pan.msr", "--ratio", 4,
                        "--name", name, "--out", tmp_path, *extra)
            assert r.returncode == 0, r.stderr
        wm = read_raster(tmp_path / "wm.msr")
        mm = read_raster(tmp_path / "mm.msr")
        assert not np.array_equal(wm.data, mm.data)

    @pytest.mark.parametrize("method, lrpan", [
        ("gihs", "mmse"),
        ("hpf", "weighted-mean"),
    ])
    def test_lrpan_the_method_does_not_read_exit_two(self, scene_dir, tmp_path,
                                                     method, lrpan):
        r = run_cli("fuse", "--method", method, "--lrpan", lrpan,
                    "--lrms", scene_dir / "lrms.msr", "--pan", scene_dir / "pan.msr",
                    "--out", tmp_path)
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr
        assert "--lrpan" in r.stderr and "--method" in r.stderr
        assert not (tmp_path / "fused.msr").exists()

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

    def test_json_rows_are_the_csv_rows(self, scene_dir, tmp_path):
        """report.json is a top-level array with one object per CSV row, keyed
        by the CSV header in its order, the methods in input order."""
        args = ["eval", "--fused", scene_dir / "reference.msr", scene_dir / "hrms.msr",
                "--reference", scene_dir / "reference.msr", "--lrms", scene_dir / "lrms.msr",
                "--pan", scene_dir / "pan.msr", "--ratio", 4, "--out", tmp_path]
        for fmt in ("csv", "json"):
            assert cli.main([str(a) for a in (*args, "--format", fmt)]) == 0
        header, *table = csv.reader((tmp_path / "report.csv").read_text().splitlines())
        rows = json.loads((tmp_path / "report.json").read_text())
        assert isinstance(rows, list) and [list(row) for row in rows] == [header] * len(table)
        assert [row["method"] for row in rows] == [line[0] for line in table] == [
            "reference", "hrms"]

    def test_five_methods_compute_the_qnr_low_side_once(self, scene_dir, tmp_path, capsys,
                                                       monkeypatch):
        """lrms and pan are read once per eval, so QNR's low side is computed
        for the first method and remembered for the other four; the rows are
        byte for byte those of five one-method evals."""
        names = ["gihs", "brovey", "pca", "gs", "hpf"]
        inputs = ["--reference", scene_dir / "reference.msr", "--lrms", scene_dir / "lrms.msr",
                  "--pan", scene_dir / "pan.msr", "--ratio", 4]
        for m in names:
            assert cli.main([str(a) for a in (
                "fuse", "--method", m, "--lrms", scene_dir / "lrms.msr",
                "--pan", scene_dir / "pan.msr", "--ratio", 4, "--name", m,
                "--out", tmp_path / "fused")]) == 0
        calls = computed_calls(monkeypatch, metrics._qnr_low)
        fused = [tmp_path / "fused" / f"{m}.msr" for m in names]
        args = ("eval", "--fused", *fused, *inputs, "--out", tmp_path / "all")
        assert cli.main([str(a) for a in args]) == 0
        assert len(calls) == 1
        header, *rows = (tmp_path / "all" / "report.csv").read_text().splitlines(keepends=True)
        for path, row in zip(fused, rows, strict=True):
            out = tmp_path / path.stem
            assert cli.main([str(a) for a in ("eval", "--fused", path, *inputs, "--out", out)]) == 0
            assert (out / "report.csv").read_text() == header + row
        assert len(calls) == 1 + len(names)
        capsys.readouterr()

    def test_one_pixel_wide_exit_three(self, tmp_path):
        # The Q-index block is clamped to the image width: one pixel has no tile statistics.
        for name, bands in (("f", 4), ("ref", 4), ("lrms", 4), ("pan", 1)):
            write_raster(random_raster(10, 8, 1, bands, lo=0.1, hi=0.9), tmp_path / f"{name}.msr")
        r = run_cli("eval", "--fused", tmp_path / "f.msr", "--reference", tmp_path / "ref.msr",
                    "--lrms", tmp_path / "lrms.msr", "--pan", tmp_path / "pan.msr",
                    "--ratio", 1, "--out", tmp_path)
        assert r.returncode == 3, r.stderr

    def test_shape_mismatch_exit_three(self, scene_dir, tmp_path):
        r = run_cli("eval", "--fused", scene_dir / "lrms.msr",
                    "--reference", scene_dir / "reference.msr",
                    "--lrms", scene_dir / "lrms.msr", "--pan", scene_dir / "pan.msr",
                    "--ratio", 4, "--out", tmp_path)
        assert r.returncode == 3

    def test_shape_mismatch_names_the_fused_file(self, scene_dir, tmp_path, capsys):
        """A shape error from the metrics carries the ``eval <stem>: `` prefix,
        as a degenerate input does, so of two fused files the message names the
        one at fault; no report is written."""
        argv = ["eval", "--fused", scene_dir / "reference.msr", scene_dir / "lrms.msr",
                "--reference", scene_dir / "reference.msr", "--lrms", scene_dir / "lrms.msr",
                "--pan", scene_dir / "pan.msr", "--ratio", 4, "--out", tmp_path / "report"]
        assert cli.main([str(a) for a in argv]) == 3
        assert capsys.readouterr().err == (
            "error: eval lrms: high-resolution dims 16x16 != ratio 4 * 16x16\n")
        assert not (tmp_path / "report").exists()

    def test_a_directory_as_fused_file_exit_five(self, scene_dir, tmp_path, capsys):
        """Was reported as a missing file: ``no such raster file``."""
        fused = tmp_path / "adir"
        fused.mkdir()
        argv = ["eval", "--fused", fused, "--reference", scene_dir / "reference.msr",
                "--lrms", scene_dir / "lrms.msr", "--pan", scene_dir / "pan.msr",
                "--ratio", 4, "--out", tmp_path / "report"]
        assert cli.main([str(a) for a in argv]) == 5
        assert capsys.readouterr().err == (
            f"error: raster path {fused} exists but is not a file\n")
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("bands, column", [(2, "q2"), (3, "q4"), (8, "q8"), (9, "q16")])
    def test_q2n_column_for_band_count(self, band_dir, tmp_path, capsys, bands, column):
        scene = band_dir / str(bands)
        code = cli.main([str(a) for a in (
            "eval", "--fused", scene / "reference.msr", "--reference", scene / "reference.msr",
            "--lrms", scene / "lrms.msr", "--pan", scene / "pan.msr", "--out", tmp_path)])
        assert code == 0, capsys.readouterr().err
        header, row = csv.reader((tmp_path / "report.csv").read_text().splitlines())
        assert header == ["method", "ssim", "sam", "ergas", column, "qnr"]
        assert row[4] == "1.000000"

    def test_one_band_exit_three(self, band_dir, tmp_path):
        scene = band_dir / "1"
        r = run_cli("eval", "--fused", scene / "reference.msr",
                    "--reference", scene / "reference.msr", "--lrms", scene / "lrms.msr",
                    "--pan", scene / "pan.msr", "--out", tmp_path)
        assert r.returncode == 3, r.stderr
        assert "Traceback" not in r.stderr


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

    def test_grad_check_total_sam_ratio_32_passes(self, tmp_path, capsys):
        """A random 32 x 32 x 4 pair over a one-pixel lrms: the window's few
        near-zero gradient elements sit at the central differences' rounding
        level, which the floor forgives."""
        write_raster(random_raster(7, 32, 32, 4), tmp_path / "f.msr")
        write_raster(random_raster(107, 32, 32, 4), tmp_path / "r.msr")
        write_raster(random_raster(207, 1, 1, 4), tmp_path / "lrms.msr")
        argv = ["loss", "--name", "total-sam", "--lrms", tmp_path / "lrms.msr", "--ratio", 32,
                "--grad-check", tmp_path / "f.msr", tmp_path / "r.msr"]
        assert cli.main([str(a) for a in argv]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_grad_check_exits_one(self, tmp_path, capsys):
        # At this step the two perturbed l1 losses round to the same value, so
        # every central difference is 0 against an analytic gradient of +-1/n.
        fused, reference = separated_pair(5, height=16, width=16, bands=4)
        write_raster(fused, tmp_path / "f.msr")
        write_raster(reference, tmp_path / "r.msr")
        argv = ["loss", "--name", "l1", "--grad-check", "--h", "1e300",
                tmp_path / "f.msr", tmp_path / "r.msr"]
        assert cli.main([str(a) for a in argv]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert captured.err == ""

    def test_grad_check_unsupported_loss(self, scene_dir):
        r = run_cli("loss", "--name", "sam-printed", "--grad-check",
                    scene_dir / "hrms.msr", scene_dir / "reference.msr")
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "name", [name for name, (_, grad_id) in losses.LOSSES.items() if grad_id is not None]
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

    def test_grad_check_window_on_the_lrms_grid(self):
        # a 36 x 36 pair over a 9 x 9 lrms at ratio 4: the centered 4 x 4 lrms
        # window starts at lrms pixel 2, so the pair window starts at 8, not 10
        assert cli._grad_check_window(36, 36, 4) == (8, 8, 16)
        assert cli._grad_check_window(36, 36, 1) == (10, 10, 16)
        assert cli._grad_check_window(32, 32, 32) == (0, 0, 32)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(cells_h=st.integers(1, 40), cells_w=st.integers(1, 40), ratio=st.integers(1, 40))
    def test_grad_check_window_is_the_centered_lrms_window(self, cells_h, cells_w, ratio):
        """Scaled down by the ratio, the window is the centered square of the
        lrms; at ratio 1 it is the centered square of the pair."""
        height, width = cells_h * ratio, cells_w * ratio
        top, left, size = cli._grad_check_window(height, width, ratio)
        cells = max(min(16, height, width) // ratio, 1)
        assert size == cells * ratio
        assert (top % ratio, left % ratio) == (0, 0)
        assert top // ratio == (cells_h - cells) // 2
        assert left // ratio == (cells_w - cells) // 2
        assert top + size <= height and left + size <= width

    @staticmethod
    def loss_exit(*argv):
        """``cli.main(["loss", *argv])`` with its output swallowed."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["loss", *map(str, argv)])

    @pytest.mark.parametrize(
        "name, size, lrms_size, ratio",
        [("l1", 16, 16, 64), ("total-sam", 32, 1, 32)],
        ids=["lrms-off-scale-ratio-64", "ratio-32-above-the-crop"],
    )
    def test_grad_check_runs_where_the_value_does(self, tmp_path, capsys, name, size,
                                                  lrms_size, ratio):
        fused, reference = separated_pair(8, height=size, width=size, bands=2)
        write_raster(fused, tmp_path / "f.msr")
        write_raster(reference, tmp_path / "r.msr")
        write_raster(random_raster(9, lrms_size, lrms_size, 2, lo=0.1, hi=0.9),
                     tmp_path / "lrms.msr")
        argv = ["loss", "--name", name, "--lrms", tmp_path / "lrms.msr", "--ratio", ratio,
                tmp_path / "f.msr", tmp_path / "r.msr"]
        assert cli.main([str(a) for a in argv]) == 0
        assert cli.main([str(a) for a in argv + ["--grad-check"]]) in (0, 1)
        assert f"grad-check {name}: max_rel_err=" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [(), ("--grad-check",)], ids=["value", "grad-check"])
    def test_unequal_pair_exit_three(self, scene_dir, flags):
        assert self.loss_exit("--name", "l1", *flags,
                              scene_dir / "hrms.msr", scene_dir / "lrms.msr") == 3

    @pytest.mark.parametrize("lrms, ratio", [("hrms.msr", 4), ("lrms.msr", 3)],
                             ids=["lrms-at-full-scale", "ratio-3-for-ratio-4-lrms"])
    @pytest.mark.parametrize("flags", [(), ("--grad-check",)], ids=["value", "grad-check"])
    def test_total_sam_wrong_scale_lrms_exit_three(self, scene_dir, flags, lrms, ratio):
        assert self.loss_exit("--name", "total-sam", *flags, "--lrms", scene_dir / lrms,
                              "--ratio", ratio, scene_dir / "hrms.msr",
                              scene_dir / "reference.msr") == 3

    @pytest.mark.parametrize("flags", [(), ("--grad-check",)], ids=["value", "grad-check"])
    def test_total_sam_negative_ratio_exit_two(self, scene_dir, flags):
        assert self.loss_exit("--name", "total-sam", *flags, "--lrms", scene_dir / "lrms.msr",
                              "--ratio", -4, scene_dir / "hrms.msr",
                              scene_dir / "reference.msr") == 2

    @pytest.mark.parametrize("flags", [(), ("--grad-check",)], ids=["value", "grad-check"])
    def test_total_sam_needs_ratio(self, scene_dir, flags):
        assert self.loss_exit("--name", "total-sam", *flags, "--lrms", scene_dir / "lrms.msr",
                              scene_dir / "hrms.msr", scene_dir / "reference.msr") == 2

    @pytest.mark.parametrize("name", [*losses.LOSSES, "gen-adv"])
    def test_extractor_read_for_every_loss(self, scene_dir, tmp_path, name):
        assert self.loss_exit("--name", name, "--extractor", tmp_path / "missing.csw",
                              "--d-score", "0.5", scene_dir / "hrms.msr",
                              scene_dir / "reference.msr") == 5

    @pytest.mark.parametrize("name", ["perceptual", "gm-perceptual", "gm-reconstruction"])
    def test_grad_check_with_conv_stack(self, tmp_path, capsys, name):
        fused, reference = separated_pair(5, height=8, width=8, bands=4)
        write_raster(fused, tmp_path / "f.msr")
        write_raster(reference, tmp_path / "r.msr")
        save_conv_stack(SWEEP_STACK, tmp_path / "stack.csw")
        argv = ["loss", "--name", name, "--grad-check", "--extractor", tmp_path / "stack.csw",
                tmp_path / "f.msr", tmp_path / "r.msr"]
        assert cli.main([str(a) for a in argv]) == 0
        assert capsys.readouterr().out.endswith(": PASS\n")

    @pytest.mark.parametrize("name, loss", [("perceptual", perceptual_loss),
                                            ("gm-perceptual", gm_perceptual_loss)])
    def test_value_with_a_two_layer_conv_stack(self, tmp_path, capsys, name, loss):
        """A two-layer stack whose second layer has stride 2: the value exits 0
        and prints the library's loss through the loaded stack."""
        rng = np.random.default_rng(7)
        layers = tuple(
            ConvLayer(weights=rng.normal(0.0, 0.3, (c_out, c_in, 3, 3)),
                      bias=rng.normal(0.0, 0.05, c_out), stride=stride, leaky_slope=0.2)
            for c_in, c_out, stride in ((4, 8, 1), (8, 16, 2))
        )
        save_conv_stack(ConvStackSpec(bands=4, layers=layers), tmp_path / "stack.csw")
        fused, reference = separated_pair(5, height=16, width=16, bands=4)
        write_raster(fused, tmp_path / "f.msr")
        write_raster(reference, tmp_path / "r.msr")
        argv = ["loss", "--name", name, "--extractor", tmp_path / "stack.csw",
                tmp_path / "f.msr", tmp_path / "r.msr"]
        assert cli.main([str(a) for a in argv]) == 0
        want = loss(fused, reference, load_conv_stack(tmp_path / "stack.csw"))
        assert capsys.readouterr().out == f"{want:.6f}\n"

    def test_a_steep_slope_keeps_a_finite_loss_finite(self, tmp_path, capsys):
        """Weights 1e30 on a positive pair give positive features, which the
        1e300 slope must not scale: that would overflow a finite loss."""
        layer = ConvLayer(np.full((4, 4, 1, 1), 1e30), np.zeros(4), 1, 1e300)
        save_conv_stack(ConvStackSpec(bands=4, layers=(layer,)), tmp_path / "big.csw")
        fused, reference = separated_pair(5, height=8, width=8, bands=4)
        write_raster(fused, tmp_path / "f.msr")
        write_raster(reference, tmp_path / "r.msr")
        argv = ["loss", "--name", "perceptual", "--extractor", tmp_path / "big.csw",
                tmp_path / "f.msr", tmp_path / "r.msr"]
        assert cli.main([str(a) for a in argv]) == 0
        want = perceptual_loss(fused, reference, load_conv_stack(tmp_path / "big.csw"))
        assert 1e29 < want < 1e32
        assert capsys.readouterr().out == f"{want:.6f}\n"

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        name=st.sampled_from([*losses.LOSSES, "gen-adv", "disc"]),
        ratio=st.sampled_from([None, -4, 0, 1, 3, 4, 64]),
        lrms=st.sampled_from(["lrms.msr", "f.msr", None]),
        reference=st.sampled_from(["r.msr", "wide.msr"]),
        extractor=st.sampled_from(["identity", "stack.csw", "missing.csw"]),
    )
    def test_grad_check_exits_as_the_value(self, sweep_dir, name, ratio, lrms, reference,
                                           extractor):
        """Each draw runs without and with --grad-check: both end in a
        documented exit code, and a value that fails with 2-5 makes the
        gradient check fail with the same code."""
        argv = ["--name", name, "--d-score", "0.5", "--d-fake", "0.3", "--d-real", "0.6",
                "--extractor", extractor if extractor == "identity" else sweep_dir / extractor,
                sweep_dir / "f.msr", sweep_dir / reference]
        if ratio is not None:
            argv += ["--ratio", ratio]
        if lrms is not None:
            argv += ["--lrms", sweep_dir / lrms]
        value_code = self.loss_exit(*argv)
        grad_code = self.loss_exit(*argv, "--grad-check")
        assert value_code in (0, 2, 3, 4, 5)
        assert grad_code in (0, 1, 2, 3, 4, 5)
        if name in GRADIENT_NAMES and value_code != 0:
            assert grad_code == value_code


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

    def test_nan_msr_payload_exit_five(self, scene_dir, tmp_path):
        header = json.dumps({"width": 1, "height": 1, "bands": 1, "dtype": "f64"}).encode()
        bad = tmp_path / "nan.msr"
        bad.write_bytes(b"MSR1" + struct.pack("<I", len(header)) + header
                        + struct.pack("<d", float("nan")))
        r = run_cli("degrade", "--hrms", bad, "--pan", scene_dir / "pan.msr",
                    "--out", tmp_path)
        self.assert_exit(r, 5)
        assert "nan.msr" in r.stderr

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

    # A JSON header nested too deep to decode, and an integer literal longer
    # than Python converts from a string (4300 digits by default).
    DEEP_HEADER = b"[" * 100000
    LONG_INT_HEADER = b'{"width": ' + b"9" * 5000 + b', "height": 1, "bands": 1}'

    @pytest.mark.parametrize("header", [DEEP_HEADER, LONG_INT_HEADER],
                             ids=["deep-nesting", "long-integer"])
    @pytest.mark.parametrize("command", ["degrade", "eval"])
    def test_undecodable_msr_header_exit_five(self, scene_dir, tmp_path, command, header):
        bad = tmp_path / "bad.msr"
        bad.write_bytes(b"MSR1" + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        if command == "degrade":
            args = ["--hrms", bad, "--pan", scene_dir / "pan.msr"]
        else:
            args = ["--fused", bad, "--reference", scene_dir / "reference.msr",
                    "--lrms", scene_dir / "lrms.msr", "--pan", scene_dir / "pan.msr"]
        r = run_cli(command, *args, "--ratio", 4, "--out", tmp_path)
        self.assert_exit(r, 5)
        assert "bad.msr" in r.stderr

    @pytest.mark.parametrize(
        "header",
        [
            DEEP_HEADER,
            b'{"bands": ' + b"9" * 5000 + b', "layers": []}',
            b'{"bands": 1, "layers": [{"out": 1, "in": 1, "k": 1, "stride": 1, "slope": '
            + b"9" * 400 + b"}]}",
        ],
        ids=["deep-nesting", "long-integer", "slope-beyond-float"],
    )
    def test_undecodable_csw_header_exit_five(self, scene_dir, tmp_path, header):
        csw = tmp_path / "bad.csw"
        csw.write_bytes(b"CSW1" + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        r = run_cli("loss", "--name", "perceptual", "--extractor", csw,
                    scene_dir / "hrms.msr", scene_dir / "reference.msr")
        self.assert_exit(r, 5)
        assert "bad.csw" in r.stderr

    def test_string_csw_slope_exit_five(self, scene_dir, tmp_path, capsys):
        """A CSW slope given as a JSON string is no number: ``main`` exits 5."""
        header = json.dumps(
            {"bands": 1, "layers": [{"out": 1, "in": 1, "k": 1, "stride": 1, "slope": "0.2"}]}
        ).encode()
        csw = tmp_path / "bad.csw"
        csw.write_bytes(b"CSW1" + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        argv = ["loss", "--name", "perceptual", "--extractor", csw,
                scene_dir / "hrms.msr", scene_dir / "reference.msr"]
        assert cli.main([str(a) for a in argv]) == 5
        err = capsys.readouterr().err
        assert "bad.csw" in err and "slope" in err and "Traceback" not in err

    # The header of a one-layer 1 x 1 x 1 x 1 stack, whose weight and bias take 8 payload bytes.
    ONE_LAYER = {"bands": 1, "layers": [{"out": 1, "in": 1, "k": 1, "stride": 1, "slope": 0.2}]}

    @pytest.mark.parametrize(
        "header,payload,message",
        [
            (ONE_LAYER, b"\x00" * 4, "layer 0 weights truncated"),
            (ONE_LAYER, b"\x00" * 12, "4 trailing bytes"),
            ({"bands": 1, "layers": {"0": ONE_LAYER["layers"][0]}}, b"\x00" * 8,
             "header field 'layers' missing or not a list"),
        ],
        ids=["truncated-layer", "trailing-bytes", "layers-not-a-list"],
    )
    def test_malformed_csw_payload_exit_five(self, scene_dir, tmp_path, capsys, header,
                                             payload, message):
        csw = tmp_path / "bad.csw"
        csw.write_bytes(framed(b"CSW1", json.dumps(header).encode(), payload))
        argv = ["loss", "--name", "perceptual", "--extractor", csw,
                scene_dir / "hrms.msr", scene_dir / "reference.msr"]
        assert cli.main([str(a) for a in argv]) == 5
        assert capsys.readouterr().err == f"error: {csw}: {message}\n"


class TestParser:
    """``main`` parses every call with one parser, built at import."""

    ARGVS = {
        "simulate": ["simulate", "--size", "16", "--seed", "3", "--out", "o"],
        "degrade": ["degrade", "--hrms", "h.msr", "--pan", "p.msr", "--ratio", "2"],
        "patchify": ["patchify", "--ms", "m.msr", "--pan", "p.msr", "--patch", "8"],
        "fuse": ["fuse", "--method", "gs", "--lrms", "l.msr", "--pan", "p.msr",
                 "--lrpan", "mmse"],
        "eval": ["eval", "--fused", "a.msr", "b.msr", "--reference", "r.msr",
                 "--lrms", "l.msr", "--pan", "p.msr", "--format", "json"],
        "loss": ["loss", "--name", "perceptual", "a.msr", "b.msr", "--grad-check"],
        "loss-disc": ["loss", "--name", "disc", "--d-fake", "0.3", "--d-real", "0.6"],
    }

    @pytest.mark.parametrize("argv", list(ARGVS.values()), ids=list(ARGVS))
    def test_repeated_parses_equal_a_fresh_parser(self, argv, capsys):
        want = cli.build_parser().parse_args(argv)
        for _ in range(2):
            for other in self.ARGVS.values():
                cli._PARSER.parse_args(other)
            with pytest.raises(SystemExit):
                cli._PARSER.parse_args(["fuse", "--method", "nope"])
            assert cli._PARSER.parse_args(argv) == want

    def test_main_runs_the_handler_bound_when_it_runs(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_simulate", lambda args: seen.append(args.size) or 7)
        assert cli.main(["simulate", "--size", "9"]) == 7
        assert seen == [9]


class TestSweep:
    """Random arguments to every subcommand end in a documented exit code."""

    FLAGS = {
        "simulate": ("--size", "--bands", "--seed", "--pan-weights"),
        "degrade": ("--hrms", "--pan", "--ratio"),
        "patchify": ("--ms", "--pan", "--patch", "--ratio"),
        "fuse": ("--method", "--lrms", "--pan", "--ratio", "--lrpan", "--name"),
        "eval": ("--fused", "--reference", "--lrms", "--pan", "--ratio", "--format"),
        "loss": ("--rasters", "--lrms", "--ratio", "--extractor", "--d-score", "--d-fake",
                 "--d-real", "--grad-check"),
    }
    # The scene file each raster flag expects.
    ROLES = {"--hrms": "hrms", "--ms": "lrms", "--pan": "pan", "--lrms": "lrms",
             "--reference": "reference", "--fused": "reference", "--rasters": "hrms"}
    FILES = ("hrms", "pan", "lrms", "lrpan", "reference")
    # Valid values of the other flags; None leaves the flag out.
    VALID = {
        "--size": ["8", "17"],
        "--bands": [str(b) for b in range(1, 10)],
        "--seed": ["0", "3"],
        "--pan-weights": [None],
        "--ratio": ["4"],
        "--patch": ["8", "16"],
        "--method": list(cli.FUSE_METHODS),
        "--lrpan": [None],
        "--name": ["fused", "x,y"],
        "--format": ["csv", "json"],
        "--extractor": ["identity"],
        "--d-score": ["0.5"],
        "--d-fake": ["0.3"],
        "--d-real": ["0.6"],
        "--grad-check": [None, "--grad-check"],
    }
    # Faulty values; a faulty raster is another file or band count, junk or missing.
    FAULTY = {
        "--size": ["-3", "0", "1", "x"],
        "--bands": ["0", "-1", "x"],
        "--seed": ["-1", "x"],
        "--pan-weights": ["1", "1,2", "nan", "0,0", "x"],
        "--ratio": ["2", "3", "1", "0", "-1", "64", "x", "2.5"],
        "--patch": ["4", "3", "0", "-4", "x"],
        "--method": ["nope"],
        "--lrpan": ["mmse", "weighted-mean", "blur-decimate", "nope"],
        "--format": ["xml"],
        "--extractor": ["missing.csw"],
        "--d-score": ["nan", "1.5", "x"],
        "--d-fake": ["0", ""],
        "--d-real": ["1"],
    }

    def raster(self, data, band_dir, bands, role, faulty):
        if not faulty:
            return str(band_dir / str(bands) / f"{role}.msr")
        other = data.draw(st.sampled_from([1, 4, 9, bands]))
        return str(data.draw(st.sampled_from([
            *(band_dir / str(other) / f"{name}.msr" for name in self.FILES),
            band_dir / "junk.msr", band_dir / "missing.msr"])))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data(), command=st.sampled_from(list(FLAGS)), bands=st.integers(1, 9))
    def test_exit_code_documented_and_no_traceback(self, band_dir, data, command, bands):
        """At most one flag per draw is faulty: left out, given a bad value, or
        given another raster; eval runs on every band count from 1 to 9."""
        flags = self.FLAGS[command]
        faulty = data.draw(st.sampled_from([None, *flags]))
        argv = [command]
        if command == "loss":
            argv += ["--name", data.draw(st.sampled_from([*losses.LOSSES, "gen-adv", "disc"]))]
        for flag in flags:
            if flag == faulty and data.draw(st.booleans()):
                continue  # the faulty flag is left out
            if flag in self.ROLES:
                count = 2 if flag == "--rasters" else 1
                count = data.draw(st.integers(1, 3)) if flag == "--fused" else count
                paths = [self.raster(data, band_dir, bands, self.ROLES[flag], flag == faulty)
                         for _ in range(count)]
                argv += paths if flag == "--rasters" else [flag, *paths]
                continue
            value = data.draw(st.sampled_from(
                self.FAULTY.get(flag, self.VALID[flag]) if flag == faulty else self.VALID[flag]))
            if value is not None:
                argv += [value] if flag == "--grad-check" else [flag, value]
        argv += ["--out", str(band_dir / "out")] if command != "loss" else []
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        assert code in (0, 1, 2, 3, 4, 5), argv
        assert "Traceback" not in stderr.getvalue(), argv
