"""The three benchmark workloads: input universe, set-up, one op, output check.

Each workload draws its ops from a fixed, finite universe of inputs (scene
seeds or loss batches) so that every op has a stored golden output; the
workload seed picks the order in which a run visits that universe.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

from panfuse import cli, features, losses, raster, resample

RATIO = 4
BANDS = 4
FUSE_METHODS = ("gihs", "brovey", "pca", "gs", "hpf")
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
SRC_DIR = Path(__file__).resolve().parents[1] / "src" / "panfuse"


def src_sha256() -> str:
    """Digest of the panfuse sources, naming the code a result came from."""
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


class OpFailed(Exception):
    """An op whose program call reported failure."""


class Workload:
    name: str
    universe: list

    def __init__(self, work: Path) -> None:
        self.work = work

    def keys(self, seed: int) -> list:
        """The universe in the order the run with ``seed`` visits it."""
        return random.Random(seed).sample(self.universe, len(self.universe))

    def prepare(self) -> None:
        """Set-up that the timed ops rely on; safe to repeat."""

    def run(self, key):
        """One op; returns the program's outputs."""
        raise NotImplementedError

    def summary(self, key, output) -> dict:
        """The JSON-able figures compared against the golden for ``key``."""
        raise NotImplementedError

    def load_goldens(self) -> None:
        with open(GOLDEN_DIR / f"{self.name}.json") as fh:
            doc = json.load(fh)
        self.tolerance = doc["tolerance"]
        self.goldens = doc["ops"]

    def check(self, key, output) -> bool:
        return _close(
            self.summary(key, output),
            self.goldens[str(key)],
            self.tolerance["abs"],
            self.tolerance["rel"],
        )


def _close(got, want, abs_tol: float, rel_tol: float) -> bool:
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(_close(got[k], want[k], abs_tol, rel_tol) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_close(g, w, abs_tol, rel_tol) for g, w in zip(got, want))
        )
    if isinstance(want, str):
        return got == want
    return math.isfinite(got) and abs(got - want) <= abs_tol + rel_tol * abs(want)


class WaldPipeline(Workload):
    """README pipeline through ``cli.main``: simulate, degrade, fuse x5, eval."""

    def __init__(self, work: Path, size: int, scene_seeds: range) -> None:
        super().__init__(work)
        self.name = f"wald-{size}"
        self.size = size
        self.universe = list(scene_seeds)
        self.working_set_bytes = size * size * BANDS * 8
        self.working_set_what = f"one {size}x{size}x{BANDS} float64 cube"

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def _argvs(self, scene_seed: int) -> list[list[str]]:
        w = str(self.work)
        f = lambda name: str(self.work / f"{name}.msr")
        ratio = str(RATIO)
        argvs = [
            ["simulate", "--size", str(self.size), "--bands", str(BANDS),
             "--seed", str(scene_seed), "--out", w],
            ["degrade", "--hrms", f("hrms"), "--pan", f("pan"), "--ratio", ratio,
             "--out", w],
        ]
        for m in FUSE_METHODS:
            argvs.append(
                ["fuse", "--method", m, "--lrms", f("lrms"), "--pan", f("pan"),
                 "--ratio", ratio, "--name", m, "--out", w]
            )
        argvs.append(
            ["eval", "--fused", *(f(m) for m in FUSE_METHODS),
             "--reference", f("reference"), "--lrms", f("lrms"), "--pan", f("pan"),
             "--ratio", ratio, "--out", w]
        )
        return argvs

    def run(self, scene_seed: int) -> str:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in self._argvs(scene_seed):
                code = cli.main(argv)
                if code != 0:
                    raise OpFailed(f"panfuse {argv[0]} exited {code}: {sink.getvalue()}")
        return (self.work / "report.csv").read_text()

    def summary(self, scene_seed: int, csv_text: str) -> dict:
        header, *rows = csv_text.strip().splitlines()
        table = {"header": header}
        for row in rows:
            method, *values = row.split(",")
            table[method] = [float(v) for v in values]
        return table


class GanStep(Workload):
    """One training-loss step over a batch of (fused, reference, lrms) patches."""

    name = "gan-step-64"
    PATCH = 64
    POOL_SCENE = 512  # 8 x 8 patches of 64 x 64
    POOL_SEED = 20240
    STACK_SEED = 7
    BATCH = 8
    N_BATCHES = 64
    NOISE = 0.02

    def __init__(self, work: Path) -> None:
        super().__init__(work)
        self.universe = list(range(self.N_BATCHES))
        self.working_set_bytes = self.BATCH * 8 * BANDS * (
            2 * self.PATCH**2 + (self.PATCH // RATIO) ** 2
        )
        self.working_set_what = (
            f"one batch of {self.BATCH} (fused, reference, lrms) float64 triples,"
            f" {self.working_set_bytes // self.BATCH} bytes each"
        )
        self.spec = losses.LossSpec()

    def prepare(self) -> None:
        hrms, pan = raster.synth_scene(
            self.POOL_SCENE, self.POOL_SCENE, BANDS, self.POOL_SEED, [1.0] * BANDS
        )
        lrms, _, reference = resample.wald_degrade(hrms, pan, RATIO)
        tiles = raster.patchify(lrms, pan, self.PATCH, RATIO)
        per_row = self.POOL_SCENE // self.PATCH
        rng = np.random.default_rng(self.POOL_SEED)
        self.pool = []
        for i, patch in enumerate(tiles.patches):
            r, c = (i // per_row) * self.PATCH, (i % per_row) * self.PATCH
            ref = reference.data[r : r + self.PATCH, c : c + self.PATCH, :]
            noisy = ref + self.NOISE * rng.standard_normal(ref.shape)
            self.pool.append(
                (raster.Raster(np.clip(noisy, 0.0, 1.0)), raster.Raster(ref), patch.lrms)
            )

        stack_rng = np.random.default_rng(self.STACK_SEED)
        layers = []
        for c_in, c_out, stride in ((BANDS, 8, 1), (8, 16, 2)):
            layers.append(
                features.ConvLayer(
                    weights=stack_rng.normal(0.0, 0.3, (c_out, c_in, 3, 3)),
                    bias=stack_rng.normal(0.0, 0.05, c_out),
                    stride=stride,
                    leaky_slope=0.2,
                )
            )
        self.work.mkdir(parents=True, exist_ok=True)
        csw = self.work / "stack.csw"
        features.save_conv_stack(features.ConvStackSpec(bands=BANDS, layers=tuple(layers)), csw)
        self.stack = features.load_conv_stack(csw)

        self.batches = []
        for b in self.universe:
            rnd = random.Random(b)
            self.batches.append(
                (
                    rnd.sample(range(len(self.pool)), self.BATCH),
                    [rnd.uniform(0.05, 0.95) for _ in range(self.BATCH)],
                    [rnd.uniform(0.05, 0.95) for _ in range(self.BATCH)],
                )
            )

    def run(self, b: int) -> tuple:
        picks, d_fake, d_real = self.batches[b]
        per_patch = []
        for i in picks:
            fused, ref, lrms = self.pool[i]
            tsam = losses.total_sam_loss(fused, ref, lrms, RATIO)
            g_tsam = losses.loss_gradient("total_sam", fused, ref, lrms=lrms, ratio=RATIO)
            perc = losses.perceptual_loss(fused, ref, self.stack)
            gm_perc = losses.gm_perceptual_loss(fused, ref, self.stack)
            gm_rec = losses.gm_reconstruction_loss(fused, ref)
            g_gm = losses.loss_gradient("gm_reconstruction", fused, ref)
            g_l1 = losses.loss_gradient("l1", fused, ref)
            comb = losses.combined_loss(perc, tsam, self.spec)
            per_patch.append((tsam, g_tsam, perc, gm_perc, gm_rec, g_gm, g_l1, comb))
        fused_batch = [self.pool[i][0] for i in picks]
        ref_batch = [self.pool[i][1] for i in picks]
        gen = losses.generator_loss(d_fake, fused_batch, ref_batch, self.spec)
        disc = losses.discriminator_loss(d_fake, d_real, "bce")
        return per_patch, gen, disc

    def summary(self, b: int, output: tuple) -> dict:
        per_patch, gen, disc = output
        rows = []
        for tsam, g_tsam, perc, gm_perc, gm_rec, g_gm, g_l1, comb in per_patch:
            rows.append(
                [tsam, perc, gm_perc, gm_rec, comb]
                + [float(g.data.sum()) for g in (g_tsam, g_gm, g_l1)]
                + [float(np.abs(g.data).sum()) for g in (g_tsam, g_gm, g_l1)]
            )
        return {"patches": rows, "generator": gen, "discriminator": disc}


WORKLOADS = {
    "wald-256": lambda work: WaldPipeline(work, 256, range(1000, 1064)),
    "wald-1024": lambda work: WaldPipeline(work, 1024, range(2000, 2008)),
    "gan-step-64": GanStep,
}
