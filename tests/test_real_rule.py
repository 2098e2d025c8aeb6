"""One rule for every real parameter (a loss weight, a leaky slope, a
finite-difference step, a pan weight): a finite real number, else the integer
rule's usage error (exit 2), which is also a ``ValueError``."""

import json
import math
import re
import struct

import numpy as np
import pytest

from panfuse import (
    ConvLayer,
    LossSpec,
    Raster,
    cli,
    combined_loss,
    finite_difference_gradient,
    pan_from_weights,
    pixel_loss,
    synth_scene,
)
from panfuse.errors import ParameterError, UsageError
from panfuse.raster import _finite_real
from helpers import random_raster

HR = random_raster(41, 8, 8, 4, lo=0.1, hi=0.9)
SMALL = random_raster(42, 2, 2, 2, lo=0.1, hi=0.9)
TARGET = random_raster(43, 2, 2, 2, lo=0.1, hi=0.9)


def _slope(v):
    return ConvLayer(np.full((1, 1, 1, 1), 0.5), np.zeros(1), 1, v)


def _step(v):
    return finite_difference_gradient(lambda x: pixel_loss(x, TARGET, "mse"), SMALL, v)


# public entry point and parameter -> (a call of that one real number, a real it takes)
REAL_SITES = {
    "ConvLayer slope": (_slope, 0.2),
    **{f"LossSpec {name}": (lambda v, name=name: LossSpec(**{name: v}), 0.5)
       for name in ("alpha", "beta", "eta1", "eta2")},
    "combined_loss base": (lambda v: combined_loss(v, 0.3, LossSpec(eta1=2.0)), 0.1),
    "combined_loss regularizer": (lambda v: combined_loss(0.3, v, LossSpec(eta2=2.0)), 0.1),
    "finite_difference_gradient step": (_step, 1e-5),
    "pan_from_weights weight": (lambda v: pan_from_weights(HR, [v, 1.0, 1.0, 1.0]), 2.0),
    "synth_scene pan weight": (lambda v: synth_scene(8, 8, 2, 0, [1.0, v]), 3.0),
}

# Values no real parameter takes, by name: no real number, or no finite float.
NOT_REALS = {"True": True, "np.True_": np.True_, "'1'": "1", "None": None, "1j": 1j}
NOT_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
              "np.nan": np.float64(math.nan), "10**400": 10**400}

CASES = [(site, name) for site in sorted(REAL_SITES) for name in [*NOT_REALS, *NOT_FINITE]]

# a call with real parameters outside their domain -> the message it raises
OUT_OF_DOMAIN = {
    "LossSpec eta1=-1": (lambda: LossSpec(eta1=-1), "eta1 and eta2 must be nonnegative"),
    "LossSpec eta2=-1": (lambda: LossSpec(eta2=-1), "eta1 and eta2 must be nonnegative"),
    "pan weights [1, -1]": (lambda: synth_scene(8, 8, 2, 0, [1.0, -1.0]),
                            "pan_weights must be nonnegative"),
    "pan weights [0, 0]": (lambda: synth_scene(8, 8, 2, 0, [0.0, 0.0]),
                           "pan_weights must have a finite positive sum"),
    "pan weights [1] for 2 bands": (lambda: synth_scene(8, 8, 2, 0, [1.0]),
                                    "pan_weights length 1 does not match band count 2"),
    "pan_from_weights [1, -1, 1, 1]": (lambda: pan_from_weights(HR, [1.0, -1.0, 1.0, 1.0]),
                                       "pan_weights must be nonnegative"),
}


def _bits(result) -> bytes:
    """Every number of ``result`` as bytes, in order."""
    if isinstance(result, Raster):
        return result.data.tobytes()
    if isinstance(result, ConvLayer):
        return _bits([result.weights, result.bias, result.leaky_slope])
    if isinstance(result, LossSpec):
        return _bits([result.alpha, result.beta, result.eta1, result.eta2])
    if isinstance(result, (tuple, list)):
        return b"".join(_bits(r) for r in result)
    return np.asarray(result, dtype=np.float64).tobytes()


class TestRealRule:
    @pytest.mark.parametrize("site, name", CASES, ids=[f"{s}={n}" for s, n in CASES])
    def test_every_real_parameter_follows_the_rule(self, site, name):
        """The rule's own error and wording, never a TypeError, a raw
        ValueError or a taken value."""
        with pytest.raises(ParameterError) as info:
            REAL_SITES[site][0]({**NOT_REALS, **NOT_FINITE}[name])
        assert info.value.exit_code == 2 and isinstance(info.value, ValueError)
        wording = "must be a real number" if name in NOT_REALS else "must be finite"
        assert wording in str(info.value)

    @pytest.mark.parametrize("site", sorted(REAL_SITES))
    def test_a_numpy_real_gives_the_bits_of_the_float(self, site):
        call, accepted = REAL_SITES[site]
        assert _bits(call(np.float64(accepted))) == _bits(call(accepted))
        assert _bits(call(np.float32(accepted))) == _bits(call(float(np.float32(accepted))))

    def test_loss_weights_come_back_plain_floats(self):
        spec = LossSpec(alpha=1, beta=np.float64(2.0), eta1=np.int64(3), eta2=np.float32(0.5))
        assert [type(w) for w in (spec.alpha, spec.beta, spec.eta1, spec.eta2)] == [float] * 4
        assert spec == LossSpec(1.0, 2.0, 3.0, 0.5)

    @pytest.mark.parametrize("h", [0.0, -1e-5, 0, math.nan])
    def test_step_must_be_finite_and_positive(self, h):
        with pytest.raises(ParameterError, match="step size must be finite and positive"):
            _step(h)

    def test_zero_is_a_real_but_not_a_positive_one(self):
        assert _finite_real("weight", 0) == 0.0
        assert _finite_real("weight", -2.5) == -2.5
        with pytest.raises(ParameterError, match="weight must be finite and positive, got 0.0"):
            _finite_real("weight", 0, positive=True)

    @pytest.mark.parametrize("weights", [["1", "2"], ["a", "b"], [None, 1.0], [True, 1.0]])
    def test_pan_weights_that_are_no_numbers(self, weights):
        """A string was converted, or leaked numpy's own ValueError."""
        with pytest.raises(ParameterError, match="pan weight must be a real number"):
            synth_scene(8, 8, 2, 0, weights)

    @pytest.mark.parametrize("site", OUT_OF_DOMAIN)
    def test_a_real_outside_its_domain_is_the_rules_error(self, site):
        """Was a plain UsageError, which ``except ValueError`` missed."""
        call, message = OUT_OF_DOMAIN[site]
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$") as info:
            call()
        assert info.value.exit_code == 2 and isinstance(info.value, ValueError)

    @pytest.mark.parametrize("weights", [[1.0], [[1.0, 2.0]], 2.0, [-1.0, 2.0], [0.0, 0.0]])
    def test_other_pan_weight_faults_stay_usage_errors(self, weights):
        with pytest.raises(UsageError):
            synth_scene(8, 8, 2, 0, weights)


class TestCswSlope:
    """A CSW header slope that breaks the rule is a header error, exit 5."""

    @pytest.mark.parametrize(
        "slope", [True, "1", None, math.nan, math.inf, 10**400],
        ids=["bool", "string", "null", "nan", "inf", "beyond-float"],
    )
    def test_bad_csw_slope_exits_five(self, tmp_path, capsys, slope):
        header = json.dumps(
            {"bands": 1, "layers": [{"out": 1, "in": 1, "k": 1, "stride": 1, "slope": slope}]}
        ).encode()
        csw = tmp_path / "bad.csw"
        csw.write_bytes(b"CSW1" + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        cli.main(["simulate", "--size", "16", "--bands", "2", "--out", str(tmp_path)])
        ms = tmp_path / "hrms.msr"
        argv = ["loss", "--name", "perceptual", "--extractor", str(csw), str(ms), str(ms)]
        assert cli.main(argv) == 5
        err = capsys.readouterr().err
        assert "bad.csw" in err and "slope" in err
