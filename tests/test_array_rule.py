"""One rule for every input array (raster data, a conv layer's weights and
bias, a Gram matrix): a bool, integer or float array, cast to a read-only
C-ordered float64 copy, else the integer rule's usage error (exit 2); a NaN
or infinity is non-finite data (exit 4). Both errors are ``ValueError``s.

Also here: the checks that ride with the rule at the CLI and gradient-check
boundaries, a perceptual gradient's extractor, a loss or metric value that
overflowed, and a finite-difference step too small to check a gradient."""

import json
import math

import numpy as np
import pytest

from panfuse import (
    ConvLayer,
    ConvStackSpec,
    GramMatrix,
    Raster,
    cli,
    gradient_check,
    load_conv_stack,
    loss_gradient,
    pixel_loss,
    write_raster,
)
from panfuse.errors import NonFiniteDataError, NonFiniteRasterError, ParameterError, UsageError
from panfuse.features import IDENTITY
from panfuse.losses import GRADIENTS, LossContext
from helpers import framed, run_cli, separated_pair

# site -> (a call of that one array, the shape it takes, the name its errors carry)
ARRAY_SITES = {
    "Raster": (Raster, (2, 3), "raster data"),
    "Raster._adopt": (Raster._adopt, (2, 3), "raster data"),
    "ConvLayer weights": (
        lambda v: ConvLayer(v, np.zeros(2), 1, 0.2), (2, 1, 3, 3), "layer weights"
    ),
    "ConvLayer bias": (
        lambda v: ConvLayer(np.ones((2, 1, 3, 3)), v, 1, 0.2), (2,), "layer bias"
    ),
    "GramMatrix": (lambda v: GramMatrix(v, 4), (3, 3), "gram matrix"),
}

# bad input -> (its value for an array of ``shape``, the error it raises)
BAD_ARRAYS = {
    "string": (lambda shape: "abc", ParameterError),
    "numeric-string": (lambda shape: np.full(shape, "0.5"), ParameterError),
    "numeric-string-list": (lambda shape: np.full(shape, "0.5").tolist(), ParameterError),
    "complex": (lambda shape: np.ones(shape) * 1j, ParameterError),
    "object()": (lambda shape: object(), ParameterError),
    "ragged": (lambda shape: [[1.0, 2.0], [3.0]], ParameterError),
    "10**400": (lambda shape: np.full(shape, 10**400, dtype=object).tolist(), ParameterError),
    "None": (lambda shape: np.full(shape, None).tolist(), ParameterError),
    "nan": (lambda shape: np.full(shape, math.nan), NonFiniteRasterError),
    "inf": (lambda shape: np.full(shape, math.inf), NonFiniteRasterError),
    "-inf-list": (lambda shape: np.full(shape, -math.inf).tolist(), NonFiniteRasterError),
}

# good input -> its value for an array of ``shape``
GOOD_ARRAYS = {
    "bool": lambda shape: np.arange(math.prod(shape)).reshape(shape) % 3 == 1,
    "int64": lambda shape: np.arange(math.prod(shape), dtype=np.int64).reshape(shape) - 2,
    "uint8": lambda shape: np.arange(math.prod(shape), dtype=np.uint8).reshape(shape),
    "float32": lambda shape: (np.arange(math.prod(shape), dtype=np.float32) / 7).reshape(shape),
    "int-list": lambda shape: (np.arange(math.prod(shape)).reshape(shape) - 1).tolist(),
    "fortran-float64": lambda shape: np.asfortranarray(
        np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape)
    ),
}


def _array(site, result):
    """The array that ``result`` of ``site`` holds for its input."""
    if site.startswith("Raster"):
        return result.data
    if site == "ConvLayer weights":
        return result.weights
    if site == "ConvLayer bias":
        return result.bias
    return result.matrix


BAD_CASES = [(site, bad) for site in ARRAY_SITES for bad in BAD_ARRAYS]
GOOD_CASES = [(site, good) for site in ARRAY_SITES for good in GOOD_ARRAYS]


class TestArrayRule:
    @pytest.mark.parametrize("site, bad", BAD_CASES, ids=[f"{s}={b}" for s, b in BAD_CASES])
    def test_every_input_array_follows_the_rule(self, site, bad):
        """The rule's own error, naming the site: never a raw TypeError,
        OverflowError or ValueError, a ComplexWarning, or a parsed string."""
        call, shape, name = ARRAY_SITES[site]
        make, error = BAD_ARRAYS[bad]
        with pytest.raises(error) as info:
            call(make(shape))
        assert type(info.value) is error and isinstance(info.value, ValueError)
        assert info.value.exit_code == (2 if error is ParameterError else 4)
        assert name in str(info.value)

    @pytest.mark.parametrize("site, good", GOOD_CASES, ids=[f"{s}={g}" for s, g in GOOD_CASES])
    def test_a_real_array_gives_the_bytes_of_its_float64_copy(self, site, good):
        call, shape, _ = ARRAY_SITES[site]
        value = GOOD_ARRAYS[good](shape)
        got = _array(site, call(value))
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert not got.flags.writeable
        assert got.tobytes() == np.array(value, dtype=np.float64, order="C").tobytes()

    def test_a_float64_raster_is_copied_and_an_adopted_one_is_not(self):
        arr = np.linspace(0.0, 1.0, 24).reshape(2, 3, 4)
        assert not np.shares_memory(Raster(arr).data, arr)
        adopted = Raster._adopt(arr)
        assert np.shares_memory(adopted.data, arr) and not arr.flags.writeable


class TestCswNonFinite:
    """A NaN or infinity in a CSW payload is non-finite file data (exit 5),
    which the layer's own rule finds and the loader names the layer of."""

    def _csw(self, tmp_path, weight):
        header = json.dumps(
            {"bands": 1, "layers": [{"out": 1, "in": 1, "k": 1, "stride": 1, "slope": 0.2}]}
        ).encode()
        path = tmp_path / "nan.csw"
        path.write_bytes(framed(b"CSW1", header, np.array([weight, 0.0], "<f4").tobytes()))
        return path

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_load_raises_non_finite_data(self, tmp_path, weight):
        with pytest.raises(NonFiniteDataError, match="layer 0 has non-finite weights") as info:
            load_conv_stack(self._csw(tmp_path, weight))
        assert isinstance(info.value.__cause__, NonFiniteRasterError)

    def test_cli_exits_five(self, tmp_path, capsys):
        fused, _ = separated_pair(3, height=8, width=8, bands=1)
        write_raster(fused, tmp_path / "f.msr")
        csw = self._csw(tmp_path, math.nan)
        argv = ["loss", "--name", "perceptual", "--extractor", str(csw),
                str(tmp_path / "f.msr"), str(tmp_path / "f.msr")]
        assert cli.main(argv) == 5
        assert "nan.csw: layer 0 has non-finite weights" in capsys.readouterr().err


class TestPerceptualGradientExtractor:
    """Anything but a conv stack or ``"identity"`` breaks the choice rule."""

    @pytest.mark.parametrize("loss_id", ["perceptual_identity", "gm_perceptual_identity"])
    @pytest.mark.parametrize(
        "extractor", [np.array(["identity", "x"]), np.array("identity"), None, 3, "vgg"],
        ids=["array", "0-d-array", "None", "3", "vgg"],
    )
    def test_not_the_identity(self, loss_id, extractor):
        fused, reference = separated_pair(30, height=4, width=4, bands=2)
        with pytest.raises(ParameterError, match="extractor must be one of 'identity'"):
            GRADIENTS[loss_id](fused, reference, LossContext(extractor=extractor))

    @pytest.mark.parametrize("loss_id", ["perceptual_identity", "gm_perceptual_identity"])
    def test_the_identity_still_runs(self, loss_id):
        fused, reference = separated_pair(31, height=4, width=4, bands=2)
        got = GRADIENTS[loss_id](fused, reference, LossContext(extractor=IDENTITY))
        assert got.shape == fused.data.shape

    def test_a_conv_stack_keeps_its_usage_error(self):
        fused, reference = separated_pair(32, height=4, width=4, bands=1)
        stack = ConvStackSpec(bands=1, layers=(ConvLayer(np.ones((1, 1, 1, 1)), [0.0], 1, 0.2),))
        with pytest.raises(UsageError, match="identity extractor") as info:
            GRADIENTS["perceptual_identity"](fused, reference, LossContext(extractor=stack))
        assert not isinstance(info.value, ParameterError)


@pytest.fixture(scope="module")
def overflow_dir(tmp_path_factory):
    """A 16 x 16 x 4 pair of finite values up to 1e200, whose losses overflow."""
    out = tmp_path_factory.mktemp("overflow")
    rng = np.random.default_rng(40)
    write_raster(Raster(rng.random((16, 16, 4)) * 1e200), out / "a.msr")
    write_raster(Raster(rng.random((16, 16, 4)) * 1e200), out / "b.msr")
    return out


class TestOverflowExitsFour:
    """A finite pair whose loss or metric overflows float64 exits 4 and writes
    nothing, naming the loss, or the method and the column."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", ["mse", "perceptual", "gm-reconstruction", "gm-perceptual"])
    @pytest.mark.parametrize("grad_check", [False, True], ids=["value", "grad-check"])
    def test_loss(self, overflow_dir, capsys, name, grad_check):
        argv = ["loss", "--name", name, *(["--grad-check"] * grad_check),
                str(overflow_dir / "a.msr"), str(overflow_dir / "b.msr")]
        assert cli.main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"loss {name}" in captured.err

    def test_eval(self, tmp_path):
        r = run_cli("simulate", "--size", 64, "--out", tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli("degrade", "--hrms", tmp_path / "hrms.msr", "--pan", tmp_path / "pan.msr",
                    "--out", tmp_path)
        assert r.returncode == 0, r.stderr
        write_raster(Raster(np.full((64, 64, 4), 1e200)), tmp_path / "fbig.msr")
        r = run_cli("eval", "--fused", tmp_path / "fbig.msr", "--reference",
                    tmp_path / "reference.msr", "--lrms", tmp_path / "lrms.msr",
                    "--pan", tmp_path / "pan.msr", "--out", tmp_path / "report")
        assert r.returncode == 4, r.stderr
        assert r.stdout == "" and "eval fbig: " in r.stderr
        assert not (tmp_path / "report" / "report.csv").exists()


@pytest.fixture(scope="module")
def scaled_fused_dir(tmp_path_factory):
    """A 16 x 16 x 4 fused image scaled by 1e200 beside an unscaled reference
    and lrms: the SAM parts overflow, but SAM is scale-invariant."""
    out = tmp_path_factory.mktemp("scaled")
    rng = np.random.default_rng(41)
    write_raster(Raster(rng.random((16, 16, 4)) * 1e200), out / "a.msr")
    write_raster(Raster(rng.random((16, 16, 4))), out / "b.msr")
    write_raster(Raster(rng.random((4, 4, 4))), out / "lrms.msr")
    return out


class TestLossOverflowRaises:
    """An overflow inside a loss is an exit 4 naming the loss, in a fresh
    process: no numpy warning line, and no value printed beside it."""

    @pytest.mark.parametrize("name", ["sam", "total-sam", "mse"])
    @pytest.mark.parametrize("grad_check", [False, True], ids=["value", "grad-check"])
    def test_exit_four_without_warning(self, scaled_fused_dir, name, grad_check):
        r = run_cli("loss", "--name", name, *(["--grad-check"] * grad_check),
                    "--lrms", scaled_fused_dir / "lrms.msr", "--ratio", 4,
                    scaled_fused_dir / "a.msr", scaled_fused_dir / "b.msr")
        assert r.returncode == 4, r.stderr
        assert r.stdout == ""
        assert r.stderr == f"error: loss {name} overflowed\n"


class TestGradientCheckStep:
    """A step below sqrt(eps) is refused: there a sign-flipped gradient passed."""

    def _flipped(self):
        fused, reference = separated_pair(33, height=16, width=16, bands=4)
        flipped = Raster(-loss_gradient("mse", fused, reference).data)
        return (lambda x: pixel_loss(x, reference, "mse")), flipped, fused

    @pytest.mark.parametrize("h", [1e-13, 1e-10, 1e-8])
    def test_small_step_is_a_usage_error(self, h):
        with pytest.raises(ParameterError, match="step size of a gradient check") as info:
            gradient_check(*self._flipped(), h)
        assert info.value.exit_code == 2

    def test_sqrt_eps_is_the_smallest_step(self):
        assert gradient_check(*self._flipped(), math.sqrt(np.finfo(np.float64).eps)) > 1e-4

    def test_cli_exits_two(self, tmp_path, capsys):
        fused, reference = separated_pair(34, height=16, width=16, bands=4)
        write_raster(fused, tmp_path / "f.msr")
        write_raster(reference, tmp_path / "r.msr")
        argv = ["loss", "--name", "sam", "--grad-check", "--h", "1e-13",
                str(tmp_path / "f.msr"), str(tmp_path / "r.msr")]
        assert cli.main(argv) == 2
        assert "step size" in capsys.readouterr().err
