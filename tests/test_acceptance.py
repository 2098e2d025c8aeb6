"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import math
import time

import numpy as np
import pytest

from panfuse import (
    FusionInput,
    IDENTITY,
    Raster,
    downsample_antialias,
    fuse_brovey,
    fuse_gihs,
    fuse_gs,
    fuse_hpf,
    fuse_pca,
    gm_perceptual_loss,
    gm_reconstruction_loss,
    gradient_check,
    gram_matrix,
    discriminator_loss,
    loss_gradient,
    metric_ergas,
    metric_q4,
    metric_sam,
    metric_ssim,
    pca_basis,
    perceptual_loss,
    pixel_loss,
    sam_loss,
    synth_scene,
    total_sam_loss,
)
from helpers import random_raster, run_cli, separated_pair


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_metric_identities():
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        x = random_raster(seed, 64, 64, 4)
        worst = max(
            worst,
            abs(metric_sam(x, x)),
            abs(metric_ergas(x, x, 4)),
            abs(metric_ssim(x, x) - 1.0),
            abs(metric_q4(x, x, 32) - 1.0),
        )
    elapsed = time.monotonic() - start
    report(
        1,
        worst < 1e-9 and elapsed < 10.0,
        f"max identity deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_exact_recovery_fusions():
    start = time.monotonic()
    worst = {}
    for seed in (3, 7, 13):
        hrms, pan = synth_scene(32, 32, 4, seed, [1.0] * 4)
        fin = FusionInput(lrms=hrms, pan=pan, ratio=1)
        worst["gihs"] = max(
            worst.get("gihs", 0), np.abs(fuse_gihs(fin).data - hrms.data).max()
        )
        worst["brovey"] = max(
            worst.get("brovey", 0), np.abs(fuse_brovey(fin).data - hrms.data).max()
        )
        worst["gs"] = max(
            worst.get("gs", 0),
            np.abs(fuse_gs(fin, "weighted-mean").data - hrms.data).max(),
        )
        const_pan = Raster(np.full((32, 32, 1), 0.5))
        hpf = fuse_hpf(FusionInput(lrms=hrms, pan=const_pan, ratio=1))
        worst["hpf"] = max(worst.get("hpf", 0), np.abs(hpf.data - hrms.data).max())
    elapsed = time.monotonic() - start
    err = max(worst.values())
    report(
        2,
        err < 1e-6 and elapsed < 10.0,
        ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f", {elapsed:.1f}s",
    )


def test_criterion_3_pca_roundtrip():
    hrms, _ = synth_scene(32, 32, 4, 9, [1.0] * 4)
    means, _, vecs = pca_basis(hrms)
    flat = hrms.data.reshape(-1, 4)
    rec = ((flat - means) @ vecs) @ vecs.T + means
    roundtrip_err = np.abs(rec - flat).max()

    scores = (flat - means) @ vecs
    pc1 = Raster(scores[:, 0].reshape(32, 32, 1))
    fused = fuse_pca(FusionInput(lrms=hrms, pan=pc1, ratio=1))
    subst_err = np.abs(fused.data - hrms.data).max()
    report(
        3,
        roundtrip_err < 1e-9 and subst_err < 1e-6,
        f"roundtrip {roundtrip_err:.2e}, substitution {subst_err:.2e}",
    )


def test_criterion_4_gradient_verification():
    start = time.monotonic()
    worst = {}
    for seed in range(10):
        fused, reference = separated_pair(seed)
        lrms = random_raster(seed + 500, 2, 2, 4, lo=0.1, hi=0.9)
        cases = {
            "l1": (lambda x: pixel_loss(x, reference, "l1"),
                   loss_gradient("l1", fused, reference)),
            "mse": (lambda x: pixel_loss(x, reference, "mse"),
                    loss_gradient("mse", fused, reference)),
            "sam-cosine": (lambda x: sam_loss(x, reference, "cosine"),
                           loss_gradient("sam_cosine", fused, reference)),
            "total-sam": (lambda x: total_sam_loss(x, reference, lrms, 4, "cosine"),
                          loss_gradient("total_sam", fused, reference, lrms=lrms, ratio=4)),
            "gm-reconstruction": (lambda x: gm_reconstruction_loss(x, reference),
                                  loss_gradient("gm_reconstruction", fused, reference)),
            "perceptual-identity": (lambda x: perceptual_loss(x, reference, IDENTITY),
                                    loss_gradient("perceptual_identity", fused, reference)),
            "gm-perceptual-identity": (lambda x: gm_perceptual_loss(x, reference, IDENTITY),
                                       loss_gradient("gm_perceptual_identity", fused, reference)),
        }
        for name, (fn, analytic) in cases.items():
            rel = gradient_check(fn, analytic, fused, 1e-5)
            worst[name] = max(worst.get(name, 0.0), rel)
    elapsed = time.monotonic() - start
    report(
        4,
        max(worst.values()) < 1e-4 and elapsed < 60.0,
        ", ".join(f"{k}={v:.1e}" for k, v in worst.items()) + f", {elapsed:.1f}s",
    )


def test_criterion_5_identity_extractor_collapse():
    worst_gm, worst_perc = 0.0, 0.0
    for seed in range(50):
        f = random_raster(seed, 6, 5, 3)
        g = random_raster(seed + 2000, 6, 5, 3)
        worst_gm = max(
            worst_gm,
            abs(gm_perceptual_loss(f, g, IDENTITY) - gm_reconstruction_loss(f, g)),
        )
        euclid = float(np.linalg.norm((f.data - g.data).ravel()))
        worst_perc = max(worst_perc, abs(perceptual_loss(f, g, IDENTITY) - euclid))
    report(
        5,
        worst_gm < 1e-12 and worst_perc < 1e-9,
        f"gm collapse {worst_gm:.2e}, euclidean collapse {worst_perc:.2e}",
    )


def test_criterion_6_closed_form_spot_checks():
    ergas = metric_ergas(
        Raster(np.full((4, 4, 1), 12.0)), Raster(np.full((4, 4, 1), 10.0)), 4
    )
    ergas_err = abs(ergas - 5.0)

    disc_err = abs(discriminator_loss([0.5], [0.5], "as_printed") - 1.0)

    g = gram_matrix(Raster(np.array([[[1.0, 2.0]], [[3.0, 4.0]]])))
    gram_err = max(
        np.abs(g.unnormalized - [[10.0, 14.0], [14.0, 20.0]]).max(),
        np.abs(g.matrix - [[5.0, 7.0], [7.0, 10.0]]).max(),
    )
    report(
        6,
        ergas_err < 1e-12 and disc_err < 1e-12 and gram_err < 1e-12,
        f"ergas {ergas_err:.2e}, disc {disc_err:.2e}, gram {gram_err:.2e}",
    )


def test_criterion_7_end_to_end_table_shape(tmp_path):
    start = time.monotonic()

    def cli(*args):
        r = run_cli(*args)
        assert r.returncode == 0, f"{args}: {r.stderr}"
        return r

    cli("simulate", "--size", 256, "--bands", 4, "--seed", 11, "--out", tmp_path)
    cli("degrade", "--hrms", tmp_path / "hrms.msr", "--pan", tmp_path / "pan.msr",
        "--ratio", 4, "--out", tmp_path)
    methods = ["gihs", "brovey", "pca", "gs", "hpf"]
    for m in methods:
        cli("fuse", "--method", m, "--lrms", tmp_path / "lrms.msr",
            "--pan", tmp_path / "pan.msr", "--ratio", 4, "--name", m, "--out", tmp_path)
    cli("eval", "--fused", *[tmp_path / f"{m}.msr" for m in methods],
        "--reference", tmp_path / "reference.msr", "--lrms", tmp_path / "lrms.msr",
        "--pan", tmp_path / "pan.msr", "--ratio", 4, "--out", tmp_path)
    rows = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert rows[0] == "method,ssim,sam,ergas,q4,qnr"
    assert len(rows) == 6

    table = {}
    in_range = True
    for row in rows[1:]:
        cells = row.split(",")
        vals = dict(zip(("ssim", "sam", "ergas", "q4", "qnr"), map(float, cells[1:])))
        table[cells[0]] = vals
        in_range &= -1.0 <= vals["ssim"] <= 1.0
        in_range &= 0.0 <= vals["sam"] <= math.pi
        in_range &= vals["ergas"] >= 0.0
        in_range &= -1.0 <= vals["q4"] <= 1.0
        in_range &= 0.0 <= vals["qnr"] <= 1.0

    # degenerate fused := reference row must dominate on the reference metrics
    eval_ideal = cli("eval", "--fused", tmp_path / "reference.msr",
                     "--reference", tmp_path / "reference.msr",
                     "--lrms", tmp_path / "lrms.msr", "--pan", tmp_path / "pan.msr",
                     "--ratio", 4, "--out", tmp_path / "ideal")
    ideal_cells = eval_ideal.stdout.strip().split("\n")[1].split(",")
    ideal = dict(zip(("ssim", "sam", "ergas", "q4", "qnr"), map(float, ideal_cells[1:])))
    dominates = all(
        ideal["ssim"] > vals["ssim"]
        and ideal["sam"] < vals["sam"]
        and ideal["ergas"] < vals["ergas"]
        and ideal["q4"] > vals["q4"]
        for vals in table.values()
    )
    elapsed = time.monotonic() - start
    report(
        7,
        len(table) == 5 and in_range and dominates and elapsed < 120.0,
        f"5 rows in range, ideal row dominates, {elapsed:.1f}s",
    )


def test_criterion_7_eight_band_table_shape(tmp_path):
    """The same pipeline on a WorldView-3-like 8-band scene: the Q2^n column
    is q8, and every value is in range (|q8| <= 1: octonions compose)."""
    start = time.monotonic()

    def cli(*args):
        r = run_cli(*args)
        assert r.returncode == 0, f"{args}: {r.stderr}"
        return r

    cli("simulate", "--size", 96, "--bands", 8, "--seed", 11, "--out", tmp_path)
    cli("degrade", "--hrms", tmp_path / "hrms.msr", "--pan", tmp_path / "pan.msr",
        "--ratio", 4, "--out", tmp_path)
    methods = ["gihs", "brovey", "pca", "gs", "hpf"]
    for m in methods:
        cli("fuse", "--method", m, "--lrms", tmp_path / "lrms.msr",
            "--pan", tmp_path / "pan.msr", "--ratio", 4, "--name", m, "--out", tmp_path)
    cli("eval", "--fused", tmp_path / "reference.msr", *[tmp_path / f"{m}.msr" for m in methods],
        "--reference", tmp_path / "reference.msr", "--lrms", tmp_path / "lrms.msr",
        "--pan", tmp_path / "pan.msr", "--ratio", 4, "--out", tmp_path)
    rows = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert rows[0] == "method,ssim,sam,ergas,q8,qnr"
    table = {}
    for row in rows[1:]:
        cells = row.split(",")
        table[cells[0]] = dict(zip(("ssim", "sam", "ergas", "q8", "qnr"), map(float, cells[1:])))
    ideal = table.pop("reference")
    in_range = all(
        -1.0 <= vals["ssim"] <= 1.0 and 0.0 <= vals["sam"] <= math.pi and vals["ergas"] >= 0.0
        and -1.0 <= vals["q8"] < ideal["q8"] and 0.0 <= vals["qnr"] <= 1.0
        for vals in table.values()
    )
    elapsed = time.monotonic() - start
    report(
        "7 (8 bands)",
        list(table) == methods and ideal["q8"] == 1.0 and in_range and elapsed < 120.0,
        f"5 rows in range below the ideal q8 = {ideal['q8']}, {elapsed:.1f}s",
    )


def test_criterion_8_wald_consistency():
    value = 0.0
    for seed in (2, 12):
        ref, _ = synth_scene(64, 64, 4, seed, [1.0] * 4)
        lrms = downsample_antialias(ref, 4)
        value = max(value, total_sam_loss(ref, ref, lrms, 4, "cosine"))
    report(8, value < 1e-9, f"total sam at identity {value:.2e}")
