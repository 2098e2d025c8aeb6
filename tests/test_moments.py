"""``raster._moments`` gives the bits of ``np.mean`` and ``np.var``, and
``raster._real_array`` finds a non-finite value in any strip of its check."""

import math

import numpy as np
import pytest

from panfuse import raster
from panfuse._strips import _STRIP_ELEMENTS as S
from panfuse.errors import NonFiniteRasterError

# Element counts at and around the 8-element blocks, numpy's 128-element
# pairwise block, the leaf size and its multiples, where numpy's halving
# (rounded down to a multiple of 8) makes a leaf just above or below S.
SIZES = [1, 2, 7, 8, 9, 127, 128, 129, 1000, S - 8, S - 1, S, S + 1, S + 8, 2 * S - 1,
         2 * S, 2 * S + 1, 2 * S + 15, 2 * S + 16, 2 * S + 17, 3 * S, 3 * S + 9]

VALUES = {
    "uniform": lambda rng, n: rng.random(n),
    "mixed-magnitudes": lambda rng, n: rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n),
    "large-offset": lambda rng, n: 1e8 + rng.random(n),
    "constant": lambda rng, n: np.full(n, 0.1),
}


def _divisor(n: int) -> int:
    """The largest divisor of ``n`` no larger than its square root."""
    return max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)


def _shape(n: int, ndim: int) -> tuple[int, ...]:
    """A C-ordered shape of ``n`` elements with ``ndim`` axes, as square as ``n`` allows."""
    a = _divisor(n)
    b = _divisor(n // a)
    return {1: (n,), 2: (a, n // a), 3: (a, b, n // a // b)}[ndim]


@pytest.mark.parametrize("kind", VALUES)
@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("n", SIZES)
def test_moments_have_the_bits_of_mean_and_var(n, ndim, kind):
    arr = VALUES[kind](np.random.default_rng(n + ndim), n).reshape(_shape(n, ndim))
    mean, var = raster._moments(arr)
    assert float(mean).hex() == float(np.mean(arr)).hex()
    assert float(var).hex() == float(np.var(arr)).hex()


# The last strip of S + 1 elements holds one; that of 2 S + 9 holds nine.
CUBE_SIZES = [S + 1, 2 * S + 9]


@pytest.mark.parametrize("copy", [True, False], ids=["copy", "no-copy"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, S - 1, S, -1], ids=["first", "strip-end", "strip-start", "last"])
@pytest.mark.parametrize("n", CUBE_SIZES)
def test_real_array_refuses_a_non_finite_value_in_any_strip(n, at, bad, copy):
    arr = np.random.default_rng(n).random(n)
    arr[at] = bad
    with pytest.raises(NonFiniteRasterError, match="^cube contains non-finite values$"):
        raster._real_array("cube", arr.reshape(_shape(n, 3)), copy=copy)


@pytest.mark.parametrize("n", CUBE_SIZES)
def test_real_array_accepts_a_finite_cube_over_several_strips(n):
    arr = np.random.default_rng(n).random(n).reshape(_shape(n, 3))
    assert raster._real_array("cube", arr).tobytes() == arr.tobytes()
