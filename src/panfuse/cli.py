"""Command-line pipeline: synthesize, degrade, patchify, fuse, evaluate, loss.

One binary with subcommands. Numeric defaults (ratio 4, patch 256,
Q-index block 32) reproduce the standard reduced-scale evaluation
pipeline without extra flags.

Exit codes: 0 ok, 1 gradient check failed (``loss --grad-check``), 2 usage,
3 shape mismatch, 4 numerical degeneracy, 5 IO.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import features, fusion, losses, metrics, raster, resample
from .errors import DegenerateInputError, NonFiniteRasterError, PanfuseError
from .errors import ShapeMismatchError, UsageError
from .raster import Raster

# method name -> (fusion call, the --lrpan modes it accepts, default first).
# ``fusion.fuse_*`` is looked up when the method runs, not bound here, so
# rebinding a function in ``fusion`` reaches the CLI.
FUSE_METHODS = {
    "gihs": (lambda fin, lrpan: fusion.fuse_gihs(fin), ()),
    "brovey": (lambda fin, lrpan: fusion.fuse_brovey(fin), ()),
    "pca": (lambda fin, lrpan: fusion.fuse_pca(fin), ()),
    "gs": (lambda fin, lrpan: fusion.fuse_gs(fin, lrpan), fusion.GS_LR_PAN_MODES),
    "gs-mmse": (lambda fin, lrpan: fusion.fuse_gs(fin, lrpan), ("mmse",)),  # gs --lrpan mmse
    "hpf": (lambda fin, lrpan: fusion.fuse_hpf(fin), ()),
}


# eval --format -> its renderer, which writes report.<format>.
REPORT_FORMATS = {"csv": metrics.reports_to_csv, "json": metrics.reports_to_json}


def _check_out(out: Path) -> None:
    """Refuse an ``--out`` that exists, or whose nearest existing ancestor
    exists, as anything but a directory; ``main`` runs this before the work.
    A dangling symlink counts as existing: ``mkdir`` could not create it."""
    for path in (out, *out.parents):
        if path.is_symlink() or path.exists():
            if not path.is_dir():
                raise NotADirectoryError(f"--out {out}: {path} exists and is not a directory")
            return


def _out_dir(args: argparse.Namespace) -> Path:
    """``--out``, created after the work, so a failed command leaves none behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated floats: {exc}") from exc


def cmd_simulate(args: argparse.Namespace) -> int:
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
    if args.name in ("", "..") or Path(args.name).name != args.name:
        raise UsageError(f"--name {args.name!r} is not a file stem")
    fuse, lrpan_modes = FUSE_METHODS[args.method]
    if args.lrpan is not None:
        raster._choice(f"--lrpan for --method {args.method}", args.lrpan, lrpan_modes)
    lrpan = args.lrpan or (lrpan_modes[0] if lrpan_modes else None)
    lrms = raster.read_raster(args.lrms)
    pan = raster.read_raster(args.pan)
    fin = fusion.FusionInput(lrms=lrms, pan=pan, ratio=args.ratio)
    try:
        fused = fuse(fin, lrpan)
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
        stem = Path(path).stem
        # Read by row strips through one descriptor, held until the report is built.
        with raster._RowFile(path) as fused:
            try:
                reports.append(metrics.build_report(stem, fused, reference, lrms, pan, args.ratio))
            except (DegenerateInputError, ShapeMismatchError) as exc:
                raise type(exc)(f"eval {stem}: {exc}") from exc
    text = REPORT_FORMATS[args.format](reports)
    out = _out_dir(args)
    (out / f"report.{args.format}").write_text(text)
    print(text, end="")
    return 0


def _loss_inputs(args: argparse.Namespace) -> tuple[Raster, Raster, losses.LossContext]:
    """The (fused, reference) pair and the context of every raster-pair loss."""
    if len(args.rasters) != 2:
        raise UsageError(f"loss {args.name!r} needs two raster file arguments")
    fused, reference = (raster.read_raster(path) for path in args.rasters)
    lrms = raster.read_raster(args.lrms) if args.lrms else None
    extractor = args.extractor
    if extractor != features.IDENTITY:
        extractor = features.load_conv_stack(extractor)
    return fused, reference, losses.LossContext(lrms, args.ratio, extractor)


def _scores(args: argparse.Namespace, flag: str) -> list[float]:
    text = getattr(args, flag[2:].replace("-", "_"))
    if not text:
        raise UsageError(f"loss {args.name} needs {flag}")
    return _parse_float_list(text, flag)


def _grad_check_window(height: int, width: int, ratio: int) -> tuple[int, int, int]:
    """(top, left, size) of the gradient check's square window: at most 16
    wide but at least one ``ratio`` x ``ratio`` cell, and centered on the cell
    grid, so scaled down by ``ratio`` it is the centered window of the lrms."""
    cells = max(min(16, height, width) // ratio, 1)
    top = (height // ratio - cells) // 2 * ratio
    left = (width // ratio - cells) // 2 * ratio
    return top, left, cells * ratio


@raster._finite_result  # the analytic gradient can overflow where the loss value does not
def _grad_check(
    args: argparse.Namespace, fused: Raster, reference: Raster, ctx: losses.LossContext
) -> int:
    """Analytic against finite-difference gradient on the
    :func:`_grad_check_window` of a checked pair, on the grid of an lrms at
    the ratio's scale, which is cut to the window's cells."""
    value, grad_id = losses.LOSSES[args.name]
    lrms, ratio = ctx.lrms, ctx.ratio or 0
    if lrms is None or (lrms.height * ratio, lrms.width * ratio) != fused.data.shape[:2]:
        lrms, ratio = None, 1  # an lrms at another scale is left whole
    top, left, size = _grad_check_window(fused.height, fused.width, ratio)
    if lrms is not None:
        y0, x0, n = top // ratio, left // ratio, size // ratio
        ctx = ctx._replace(lrms=Raster(lrms.data[y0 : y0 + n, x0 : x0 + n]))
    window = slice(top, top + size), slice(left, left + size)
    fused, reference = Raster(fused.data[window]), Raster(reference.data[window])
    analytic = Raster(losses.GRADIENTS[grad_id](fused, reference, ctx))
    max_rel = losses.gradient_check(lambda x: value(x, reference, ctx), analytic, fused, args.h)
    ok = max_rel < 1e-4
    print(f"grad-check {args.name}: max_rel_err={max_rel:.3e} < 1e-4: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_loss(args: argparse.Namespace) -> int:
    if args.grad_check:
        with_gradient = [name for name, loss in losses.LOSSES.items() if loss.gradient is not None]
        raster._choice("--name with an analytic gradient to check", args.name, with_gradient)
    try:
        if args.name == "disc":
            fake, real = _scores(args, "--d-fake"), _scores(args, "--d-real")
            value = losses.discriminator_loss(fake, real, args.disc_mode)
        elif args.name == "gen-adv":
            fused, reference, _ = _loss_inputs(args)
            scores = _scores(args, "--d-score")
            spec = losses.LossSpec(alpha=args.alpha, beta=args.beta)
            n = len(scores)
            value = losses.generator_loss(scores, [fused] * n, [reference] * n, spec)
        else:
            fused, reference, ctx = _loss_inputs(args)
            value = losses.LOSSES[args.name].value(fused, reference, ctx)
        if args.grad_check:  # only a raster-pair loss has a gradient to check
            return _grad_check(args, fused, reference, ctx)
    except NonFiniteRasterError as exc:
        raise type(exc)(f"loss {args.name} overflowed") from exc
    print(f"{value:.6f}")
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

    p_deg = sub.add_parser("degrade", help="reduced-scale degradation of hrms and pan")
    p_deg.add_argument("--hrms", required=True)
    p_deg.add_argument("--pan", required=True)
    p_deg.add_argument("--ratio", type=int, default=4)
    p_deg.add_argument("--out", default=".")

    p_pat = sub.add_parser("patchify", help="cut aligned non-overlapping tiles")
    p_pat.add_argument("--ms", required=True)
    p_pat.add_argument("--pan", required=True)
    p_pat.add_argument("--patch", type=int, default=256)
    p_pat.add_argument("--ratio", type=int, default=4)
    p_pat.add_argument("--out", default=".")

    p_fuse = sub.add_parser("fuse", help="run one classical fusion method")
    p_fuse.add_argument("--method", required=True, choices=FUSE_METHODS)
    p_fuse.add_argument("--lrms", required=True)
    p_fuse.add_argument("--pan", required=True)
    p_fuse.add_argument("--ratio", type=int, default=4)
    p_fuse.add_argument(
        "--lrpan", choices=fusion.GS_LR_PAN_MODES, help="gs intensity (default weighted-mean)"
    )
    p_fuse.add_argument("--name", default="fused", help="output file stem")
    p_fuse.add_argument("--out", default=".")

    p_eval = sub.add_parser("eval", help="metric report for fused results")
    p_eval.add_argument("--fused", required=True, nargs="+")
    p_eval.add_argument("--reference", required=True)
    p_eval.add_argument("--lrms", required=True)
    p_eval.add_argument("--pan", required=True)
    p_eval.add_argument("--ratio", type=int, default=4)
    p_eval.add_argument("--format", default="csv", choices=REPORT_FORMATS)
    p_eval.add_argument("--out", default=".")

    p_loss = sub.add_parser("loss", help="evaluate a loss value or check its gradient")
    # "gen-adv" and "disc" read scores and are cmd_loss branches, not losses.LOSSES entries.
    p_loss.add_argument("--name", required=True, choices=(*losses.LOSSES, "gen-adv", "disc"))
    p_loss.add_argument("rasters", nargs="*", help="fused and reference .msr files")
    p_loss.add_argument("--lrms", default="", help="low-resolution ms for total-sam")
    p_loss.add_argument("--ratio", type=int)
    p_loss.add_argument("--extractor", default=features.IDENTITY, help="'identity' or CSW path")
    p_loss.add_argument("--alpha", type=float, default=1.0)
    p_loss.add_argument("--beta", type=float, default=1.0)
    p_loss.add_argument("--d-score", default="", help="generator-side scores, comma separated")
    p_loss.add_argument("--d-fake", default="")
    p_loss.add_argument("--d-real", default="")
    p_loss.add_argument("--disc-mode", default="as_printed", choices=losses.DISC_MODES)
    p_loss.add_argument("--grad-check", action="store_true")
    p_loss.add_argument("--h", type=float, default=1e-5, help="finite-difference step")

    return parser


# Built once per process; parsing leaves no state in it.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    # ``cmd_<command>`` is looked up when the command runs, not bound in the
    # parser, so rebinding a handler in this module reaches ``main``.
    command = globals()[f"cmd_{args.command}"]
    try:
        if hasattr(args, "out"):
            _check_out(Path(args.out))
        return command(args)
    except PanfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
