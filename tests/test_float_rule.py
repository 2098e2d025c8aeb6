"""One floating-point rule for every loss and metric: each runs under
``np.errstate(over="raise", invalid="raise")``, and an overflow, an invalid
operation or a non-finite float result is ``NonFiniteRasterError`` (exit 4)
naming the function, on the calling thread and the strip helper alike.

The sweep scales a fused image, its reference, or both, by 10^k from 1e-300
to 1e300, with a zero pixel and a subnormal one: every call returns a finite
value or raises ``DegenerateInputError``, and numpy warns nothing (the suite
turns a ``RuntimeWarning`` into an error)."""

import math
import shutil

import numpy as np
import pytest

from panfuse import (
    ConvLayer,
    ConvStackSpec,
    LossSpec,
    MetricReport,
    Raster,
    _strips,
    build_report,
    combined_loss,
    generator_loss,
    gm_perceptual_loss,
    loss_gradient,
    metric_ergas,
    metric_q2n,
    metric_q4,
    metric_qnr,
    metric_sam,
    metric_ssim,
    metric_uiqi,
    perceptual_loss,
    read_raster,
    write_raster,
)
from panfuse.errors import DegenerateInputError, NonFiniteRasterError
from panfuse.losses import GRADIENTS, LOSSES, LossContext
from panfuse.raster import _finite_result
from helpers import run_cli

# 10^k for k from -300 to 300, plus the edges where squares leave float64:
# 1e-162 squared is below the least subnormal, 1e154 squared is near the top.
SCALES = sorted({*range(-300, 301, 10), -162, -155, 145, 154, 155})

_WEIGHTS = np.random.default_rng(9).normal(0.0, 0.3, (6, 4, 3, 3))
STACK = ConvStackSpec(bands=4, layers=(ConvLayer(_WEIGHTS, np.zeros(6), 1, 0.2),))


def _scene():
    """A 16 x 16 x 4 (fused, reference) pair with a zero and a subnormal pixel,
    and its 4 x 4 x 4 lrms and 16 x 16 pan."""
    rng = np.random.default_rng(26)
    fused, reference = rng.random((16, 16, 4)), rng.random((16, 16, 4))
    for arr in (fused, reference):
        arr[0, 0] = 0.0
        arr[1, 1] = 5e-324
    return fused, reference, rng.random((4, 4, 4)), rng.random((16, 16, 1))


# name -> call of (fused, reference, lrms, pan, scale); lrms and pan are the reference's side.
CALLS = {
    **{
        f"loss {name}": lambda f, r, lr, p, s, loss=loss: loss.value(f, r, LossContext(lr, 4))
        for name, loss in LOSSES.items()
    },
    "loss perceptual, conv stack": lambda f, r, lr, p, s: perceptual_loss(f, r, STACK),
    "loss gm-perceptual, conv stack": lambda f, r, lr, p, s: gm_perceptual_loss(f, r, STACK),
    **{
        f"gradient {gid}": lambda f, r, lr, p, s, gid=gid: loss_gradient(gid, f, r, lr, 4)
        for gid in GRADIENTS
    },
    "generator_loss": lambda f, r, lr, p, s: generator_loss([0.5, 0.2], [f, r], [r, f], LossSpec()),
    # two finite terms whose weighted sum overflows at the top scales
    "combined_loss": lambda f, r, lr, p, s: combined_loss(1e8 * s, 1e8 * s, LossSpec()),
    "metric_sam": lambda f, r, lr, p, s: metric_sam(f, r),
    "metric_ergas": lambda f, r, lr, p, s: metric_ergas(f, r, 4),
    "metric_uiqi": lambda f, r, lr, p, s: metric_uiqi(
        Raster(f.data[:, :, 1]), Raster(r.data[:, :, 1]), 8
    ),
    "metric_q2n": lambda f, r, lr, p, s: metric_q2n(f, r, 8),
    "metric_q4": lambda f, r, lr, p, s: metric_q4(f, r, 8),
    "metric_ssim": lambda f, r, lr, p, s: metric_ssim(f, r),
    "metric_qnr": lambda f, r, lr, p, s: metric_qnr(f, lr, p, 4, 16),
    "build_report": lambda f, r, lr, p, s: build_report("m", f, r, lr, p, 4),
}


def _values(result) -> np.ndarray:
    if isinstance(result, Raster):
        return result.data
    if isinstance(result, MetricReport):
        return np.array([result.ssim, result.sam, result.ergas, result.q4, result.qnr])
    return np.asarray(result, dtype=np.float64)


@pytest.mark.parametrize("side", ["fused", "reference", "both"])
def test_every_loss_and_metric_is_finite_or_degenerate(side):
    fused, reference, lrms, pan = _scene()
    failures = []
    for k in SCALES:
        s = 10.0**k
        f = Raster(fused * s) if side != "reference" else Raster(fused)
        r, lr, p = (Raster(a * s) if side != "fused" else Raster(a) for a in (reference, lrms, pan))
        for name, call in CALLS.items():
            try:
                result = call(f, r, lr, p, s)
            except DegenerateInputError:
                continue
            except Exception as exc:  # a RuntimeWarning is raised as an error here
                failures.append(f"1e{k} {name}: {exc!r}")
                continue
            if not np.all(np.isfinite(_values(result))):
                failures.append(f"1e{k} {name}: returned {result!r}")
    assert not failures, "\n".join(failures[:40])


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
@pytest.mark.parametrize("side", ["fused", "reference"])
def test_metric_sam_refuses_an_overflowed_norm(scale, side):
    """SAM is scale invariant, so no finite angle is right once a norm
    overflows; the norms' squares and their ``raster._band_sum`` run under the
    floating-point rule's error state on either thread, so the overflow raises."""
    rng = np.random.default_rng(3)
    pair = [rng.random((16, 16, 4)), rng.random((16, 16, 4))]
    pair[side == "reference"] *= scale
    with pytest.raises(NonFiniteRasterError, match="^metric_sam overflowed$"):
        metric_sam(*map(Raster, pair))


@pytest.fixture(scope="module")
def overflow_scene(tmp_path_factory):
    """A 64 x 64 scene's reference, lrms and pan, beside a fused cube of 1e200."""
    out = tmp_path_factory.mktemp("fbig")
    for args in (("simulate", "--size", 64),
                 ("degrade", "--hrms", out / "hrms.msr", "--pan", out / "pan.msr")):
        r = run_cli(*args, "--out", out)
        assert r.returncode == 0, r.stderr
    write_raster(Raster(np.full((64, 64, 4), 1e200)), out / "fbig.msr")
    return out


@pytest.mark.parametrize("pin", [None, "0"], ids=["every-cpu", "cpu-0"])
def test_eval_overflow_prints_one_line(overflow_scene, tmp_path, pin):
    if pin is not None and shutil.which("taskset") is None:
        pytest.skip("taskset is not installed")
    d = overflow_scene
    argv = ["eval", "--fused", d / "fbig.msr", "--reference", d / "reference.msr",
            "--lrms", d / "lrms.msr", "--pan", d / "pan.msr", "--out", tmp_path / "report"]
    r = run_cli(*argv, pin=pin)
    assert r.returncode == 4, r.stderr
    assert r.stdout == ""
    assert r.stderr.splitlines() == ["error: eval fbig: metric_qnr overflowed"]
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("cpus", [1, 2], ids=["caller-only", "with-helper"])
def test_build_report_overflow_raises_on_either_thread(overflow_scene, monkeypatch, cpus):
    monkeypatch.setattr(_strips, "_cpus", lambda: cpus)
    reference, lrms, pan = (
        read_raster(overflow_scene / f"{stem}.msr") for stem in ("reference", "lrms", "pan")
    )
    with pytest.raises(NonFiniteRasterError, match="^metric_qnr overflowed$"):
        build_report("fbig", Raster(np.full((64, 64, 4), 1e200)), reference, lrms, pan, 4)


@pytest.mark.parametrize("name", ["sam", "total-sam"])
def test_grad_check_whose_gradient_overflows_exits_four(tmp_path, name):
    """At 1e150 the SAM values are finite, but their gradients square
    |f| |t|, which overflows: the gradient check is under the rule too."""
    rng = np.random.default_rng(3)
    for stem, shape in (("a", (16, 16, 4)), ("b", (16, 16, 4)), ("lrms", (4, 4, 4))):
        write_raster(Raster(rng.random(shape) * 1e150), tmp_path / f"{stem}.msr")
    r = run_cli("loss", "--name", name, "--grad-check", "--lrms", tmp_path / "lrms.msr",
                "--ratio", 4, tmp_path / "a.msr", tmp_path / "b.msr")
    assert (r.returncode, r.stdout, r.stderr) == (4, "", f"error: loss {name} overflowed\n")


class TestRule:
    """The decorator itself."""

    @pytest.mark.parametrize(
        "compute",
        [
            lambda: float(np.float64(1e200) * 1e200),  # overflow
            lambda: float(np.sqrt(np.float64(-1.0))),  # invalid
            lambda: 1e308 + 1e308,  # a Python float that overflowed unchecked
            lambda: (0.5, math.nan),  # one value of a tuple
        ],
        ids=["overflow", "invalid", "python-float", "tuple"],
    )
    def test_a_non_finite_result_is_an_error_naming_the_function(self, compute):
        def compute_value():
            return compute()

        with pytest.raises(NonFiniteRasterError, match="^compute_value overflowed$"):
            _finite_result(compute_value)()

    def test_finite_values_and_error_state_pass_through(self):
        state = np.geterr()
        raster = Raster(np.ones((2, 2)))
        assert _finite_result(lambda: (1.0, 2.0))() == (1.0, 2.0)
        assert _finite_result(lambda: raster)() is raster
        assert _finite_result(lambda: 3)() == 3
        assert np.geterr() == state

    def test_public_functions_keep_name_module_and_doc(self):
        """The benchmark's tracer rebinds public functions by ``__module__``."""
        for fn in (metric_sam, metric_qnr, perceptual_loss, loss_gradient, combined_loss):
            wrapped = fn.__wrapped__
            assert (fn.__name__, fn.__module__, fn.__doc__) == (
                wrapped.__name__, wrapped.__module__, wrapped.__doc__
            )
