"""Command-line pipeline: synthesize, degrade, patchify, fuse, evaluate, loss.

One binary with subcommands. Numeric defaults (ratio 4, patch 256,
Q-index block 32) reproduce the standard reduced-scale evaluation
pipeline without extra flags.

Exit codes: 0 ok, 2 usage, 3 shape mismatch, 4 numerical degeneracy, 5 IO.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NamedTuple

from . import features, fusion, losses, metrics, raster, resample
from .errors import PanfuseError, UsageError
from .raster import Raster

# method name -> fusion call. ``fusion.fuse_*`` is looked up when the method
# runs, not bound here, so rebinding a function in ``fusion`` reaches the CLI.
FUSE_METHODS = {
    "gihs": lambda fin, lrpan: fusion.fuse_gihs(fin),
    "brovey": lambda fin, lrpan: fusion.fuse_brovey(fin),
    "pca": lambda fin, lrpan: fusion.fuse_pca(fin),
    "gs": lambda fin, lrpan: fusion.fuse_gs(fin, lrpan),
    "gs-mmse": lambda fin, lrpan: fusion.fuse_gs(fin, "mmse"),  # alias of gs --lrpan mmse
    "hpf": lambda fin, lrpan: fusion.fuse_hpf(fin),
}


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated floats: {exc}") from exc


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.size < 8:
        raise UsageError(f"--size must be >= 8, got {args.size}")
    if args.bands < 1:
        raise UsageError(f"--bands must be >= 1, got {args.bands}")
    if args.pan_weights:
        weights = _parse_float_list(args.pan_weights, "--pan-weights")
    else:
        weights = [1.0] * args.bands
    hrms, pan = raster.synth_scene(args.size, args.size, args.bands, args.seed, weights)
    out = _out_dir(args)
    raster.write_raster(hrms, out / "hrms.msr")
    raster.write_raster(pan, out / "pan.msr")
    print(f"wrote {out / 'hrms.msr'} ({args.size}x{args.size}x{args.bands})")
    print(f"wrote {out / 'pan.msr'} ({args.size}x{args.size}x1)")
    return 0


def cmd_degrade(args: argparse.Namespace) -> int:
    if args.ratio < 2:
        raise UsageError("--ratio must be >= 2 for reduced-scale evaluation")
    hrms = raster.read_raster(args.hrms)
    pan = raster.read_raster(args.pan)
    lrms, lrpan, reference = resample.wald_degrade(hrms, pan, args.ratio)
    out = _out_dir(args)
    raster.write_raster(lrms, out / "lrms.msr")
    raster.write_raster(lrpan, out / "lrpan.msr")
    raster.write_raster(reference, out / "reference.msr")
    print(
        f"wrote lrms.msr/lrpan.msr ({lrms.height}x{lrms.width}) and reference.msr"
        f" ({reference.height}x{reference.width}) to {out}"
    )
    return 0


def cmd_patchify(args: argparse.Namespace) -> int:
    ms = raster.read_raster(args.ms)
    pan = raster.read_raster(args.pan)
    patch_set = raster.patchify(ms, pan, args.patch, args.ratio)
    out = _out_dir(args)
    for i, patch in enumerate(patch_set.patches):
        raster.write_raster(patch.lrms, out / f"patch_{i:03d}_lrms.msr")
        raster.write_raster(patch.pan, out / f"patch_{i:03d}_pan.msr")
    print(f"wrote {len(patch_set.patches)} patch pairs to {out}")
    return 0


def cmd_fuse(args: argparse.Namespace) -> int:
    lrms = raster.read_raster(args.lrms)
    pan = raster.read_raster(args.pan)
    fin = fusion.FusionInput(lrms=lrms, pan=pan, ratio=args.ratio)
    try:
        fused = FUSE_METHODS[args.method](fin, args.lrpan)
    except PanfuseError as exc:
        raise type(exc)(f"fuse {args.method}: {exc}") from exc
    out = _out_dir(args)
    path = out / f"{args.name}.msr"
    raster.write_raster(fused, path)
    print(f"wrote {path} ({fused.height}x{fused.width}x{fused.bands})")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    reference = raster.read_raster(args.reference)
    lrms = raster.read_raster(args.lrms)
    pan = raster.read_raster(args.pan)
    reports = []
    for path in args.fused:
        fused = raster.read_raster(path)
        reports.append(
            metrics.build_report(
                Path(path).stem, fused, reference, lrms, pan, args.ratio
            )
        )
    if args.format == "csv":
        text = metrics.reports_to_csv(reports)
        name = "report.csv"
    else:
        text = metrics.reports_to_json(reports)
        name = "report.json"
    out = _out_dir(args)
    (out / name).write_text(text)
    print(text, end="")
    return 0


def _loss_rasters(args: argparse.Namespace) -> tuple[Raster, Raster]:
    if len(args.rasters) != 2:
        raise UsageError(f"loss {args.name!r} needs two raster file arguments")
    return raster.read_raster(args.rasters[0]), raster.read_raster(args.rasters[1])


def _extractor(args: argparse.Namespace) -> features.Extractor:
    if args.extractor == features.IDENTITY:
        return features.IDENTITY
    return features.load_conv_stack(args.extractor)


class _LossInputs(NamedTuple):
    """What a loss reads besides the (fused, reference) pair."""

    args: argparse.Namespace
    lrms: Raster | None
    ratio: int


def _total_sam(a: Raster, b: Raster, inputs: _LossInputs) -> float:
    if inputs.lrms is None or not inputs.ratio:
        raise UsageError("loss total-sam needs --lrms and --ratio")
    return losses.total_sam_loss(a, b, inputs.lrms, inputs.ratio, "cosine")


def _gen_adv(a: Raster, b: Raster, inputs: _LossInputs) -> float:
    if not inputs.args.d_score:
        raise UsageError("loss gen-adv needs --d-score")
    scores = _parse_float_list(inputs.args.d_score, "--d-score")
    spec = losses.LossSpec(alpha=inputs.args.alpha, beta=inputs.args.beta)
    return losses.generator_loss(scores, [a] * len(scores), [b] * len(scores), spec)


def _disc(a: Raster | None, b: Raster | None, inputs: _LossInputs) -> float:
    args = inputs.args
    if not args.d_fake or not args.d_real:
        raise UsageError("loss disc needs --d-fake and --d-real")
    fake = _parse_float_list(args.d_fake, "--d-fake")
    real = _parse_float_list(args.d_real, "--d-real")
    return losses.discriminator_loss(fake, real, args.disc_mode)


# loss name -> (value of (fused, reference, inputs), analytic gradient id or None).
# The "*_identity" gradients hold for the identity extractor only.
LOSSES = {
    "l1": (lambda a, b, inputs: losses.pixel_loss(a, b, "l1"), "l1"),
    "mse": (lambda a, b, inputs: losses.pixel_loss(a, b, "mse"), "mse"),
    "sam": (lambda a, b, inputs: losses.sam_loss(a, b, "cosine"), "sam_cosine"),
    "sam-printed": (lambda a, b, inputs: losses.sam_loss(a, b, "as_printed"), None),
    "total-sam": (_total_sam, "total_sam"),
    "perceptual": (
        lambda a, b, inputs: losses.perceptual_loss(a, b, _extractor(inputs.args)),
        "perceptual_identity",
    ),
    "gm-perceptual": (
        lambda a, b, inputs: losses.gm_perceptual_loss(a, b, _extractor(inputs.args)),
        "gm_perceptual_identity",
    ),
    "gm-reconstruction": (
        lambda a, b, inputs: losses.gm_reconstruction_loss(a, b),
        "gm_reconstruction",
    ),
    "gen-adv": (_gen_adv, None),
    "disc": (_disc, None),  # reads scores, not rasters
}


def _evaluate_loss(args: argparse.Namespace) -> float:
    value, _ = LOSSES[args.name]
    if args.name == "disc":
        return value(None, None, _LossInputs(args, None, args.ratio))
    a, b = _loss_rasters(args)
    lrms = raster.read_raster(args.lrms) if args.lrms else None
    return value(a, b, _LossInputs(args, lrms, args.ratio))


def _center_crop(r: Raster, size: int) -> Raster:
    h0 = (r.height - size) // 2
    w0 = (r.width - size) // 2
    return Raster(r.data[h0 : h0 + size, w0 : w0 + size, :])


def _grad_check(args: argparse.Namespace) -> int:
    name = args.name
    value, grad_id = LOSSES[name]
    if grad_id is None:
        raise UsageError(f"loss {name!r} has no analytic gradient to check")
    if grad_id.endswith("_identity") and args.extractor != features.IDENTITY:
        raise UsageError(f"loss {name!r} supports --grad-check only with the identity extractor")
    a, b = _loss_rasters(args)
    ratio = args.ratio if args.ratio else 4
    crop = min(16, a.height, a.width)
    lr_c = None
    if grad_id == "total_sam":
        if not args.lrms:
            raise UsageError("loss total-sam needs --lrms")
        crop -= crop % ratio
        if crop < ratio:
            raise UsageError("raster too small for a ratio-aligned gradient check")
        lr_c = _center_crop(raster.read_raster(args.lrms), crop // ratio)
    a_c, b_c = _center_crop(a, crop), _center_crop(b, crop)
    analytic = losses.loss_gradient(grad_id, a_c, b_c, lrms=lr_c, ratio=ratio)
    inputs = _LossInputs(args, lr_c, ratio)
    max_rel = losses.gradient_check(lambda x: value(x, b_c, inputs), analytic, a_c, args.h)
    ok = max_rel < 1e-4
    print(f"grad-check {name}: max_rel_err={max_rel:.3e} < 1e-4: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_loss(args: argparse.Namespace) -> int:
    if args.grad_check:
        return _grad_check(args)
    print(f"{_evaluate_loss(args):.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panfuse",
        description="Pansharpening pipeline: simulate, degrade, fuse, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic (hrms, pan) scene")
    p_sim.add_argument("--size", type=int, default=256)
    p_sim.add_argument("--bands", type=int, default=4)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--pan-weights", default="", help="comma-separated band weights")
    p_sim.add_argument("--out", default=".")
    p_sim.set_defaults(func=cmd_simulate)

    p_deg = sub.add_parser("degrade", help="reduced-scale degradation of hrms and pan")
    p_deg.add_argument("--hrms", required=True)
    p_deg.add_argument("--pan", required=True)
    p_deg.add_argument("--ratio", type=int, default=4)
    p_deg.add_argument("--out", default=".")
    p_deg.set_defaults(func=cmd_degrade)

    p_pat = sub.add_parser("patchify", help="cut aligned non-overlapping tiles")
    p_pat.add_argument("--ms", required=True)
    p_pat.add_argument("--pan", required=True)
    p_pat.add_argument("--patch", type=int, default=256)
    p_pat.add_argument("--ratio", type=int, default=4)
    p_pat.add_argument("--out", default=".")
    p_pat.set_defaults(func=cmd_patchify)

    p_fuse = sub.add_parser("fuse", help="run one classical fusion method")
    p_fuse.add_argument("--method", required=True, choices=FUSE_METHODS)
    p_fuse.add_argument("--lrms", required=True)
    p_fuse.add_argument("--pan", required=True)
    p_fuse.add_argument("--ratio", type=int, default=4)
    p_fuse.add_argument("--lrpan", default="weighted-mean", choices=fusion.GS_LR_PAN_MODES)
    p_fuse.add_argument("--name", default="fused", help="output file stem")
    p_fuse.add_argument("--out", default=".")
    p_fuse.set_defaults(func=cmd_fuse)

    p_eval = sub.add_parser("eval", help="metric report for fused results")
    p_eval.add_argument("--fused", required=True, nargs="+")
    p_eval.add_argument("--reference", required=True)
    p_eval.add_argument("--lrms", required=True)
    p_eval.add_argument("--pan", required=True)
    p_eval.add_argument("--ratio", type=int, default=4)
    p_eval.add_argument("--format", default="csv", choices=("csv", "json"))
    p_eval.add_argument("--out", default=".")
    p_eval.set_defaults(func=cmd_eval)

    p_loss = sub.add_parser("loss", help="evaluate a loss value or check its gradient")
    p_loss.add_argument("--name", required=True, choices=LOSSES)
    p_loss.add_argument("rasters", nargs="*", help="fused and reference .msr files")
    p_loss.add_argument("--lrms", default="", help="low-resolution ms for total-sam")
    p_loss.add_argument("--ratio", type=int, default=0)
    p_loss.add_argument("--extractor", default=features.IDENTITY, help="'identity' or CSW path")
    p_loss.add_argument("--alpha", type=float, default=1.0)
    p_loss.add_argument("--beta", type=float, default=1.0)
    p_loss.add_argument("--d-score", default="", help="generator-side scores, comma separated")
    p_loss.add_argument("--d-fake", default="")
    p_loss.add_argument("--d-real", default="")
    p_loss.add_argument("--disc-mode", default="as_printed", choices=losses.DISC_MODES)
    p_loss.add_argument("--grad-check", action="store_true")
    p_loss.add_argument("--h", type=float, default=1e-5, help="finite-difference step")
    p_loss.set_defaults(func=cmd_loss)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PanfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
