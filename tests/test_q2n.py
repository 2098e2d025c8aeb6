"""Q2^n against the hand-expanded quaternion Q4, a complex-number Q2 and an
independent Cayley-Dickson product, plus the metric identities on 2-16 bands.

``q4_tiles`` below is the per-tile Q4 callback the tile core ran before one
Cayley-Dickson sign table served every band count; it is kept verbatim as
the 4-band oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panfuse import (
    Raster, metric_ergas, metric_q2n, metric_q4, metric_sam, metric_ssim, metric_uiqi,
)
from panfuse.errors import ShapeMismatchError
from panfuse.metrics import _EPS, _conj_signs, _q2n, _tile_index
from helpers import random_raster


def q4_tiles(m, v, cov):
    """Per-tile Q4 of channels 0-3 (z1) against channels 4-7 (z2)."""
    mx, my = m[:, :4], m[:, 4:]
    var1, var2 = v[:, :4].sum(axis=1), v[:, 4:].sum(axis=1)
    sigma1, sigma2 = np.sqrt(var1), np.sqrt(var2)
    # Quaternion covariance sum(d1 * conj(d2)) / (n-1), read off s[t, i, j] = cov(z1_i, z2_j).
    s = cov[:, :4, 4:]
    q = np.stack(
        [
            s[:, 0, 0] + s[:, 1, 1] + s[:, 2, 2] + s[:, 3, 3],
            s[:, 1, 0] - s[:, 0, 1] + s[:, 3, 2] - s[:, 2, 3],
            s[:, 2, 0] - s[:, 0, 2] + s[:, 1, 3] - s[:, 3, 1],
            s[:, 3, 0] - s[:, 0, 3] + s[:, 2, 1] - s[:, 1, 2],
        ],
        axis=1,
    )
    mod_cov = np.sqrt(np.sum(q * q, axis=1))
    mod_mu1 = np.sqrt(np.sum(mx * mx, axis=1))
    mod_mu2 = np.sqrt(np.sum(my * my, axis=1))
    den_corr = sigma1 * sigma2
    den_var = var1 + var2
    den_mean = mod_mu1 * mod_mu1 + mod_mu2 * mod_mu2
    valid = (den_corr >= _EPS) & (den_var >= _EPS) & (den_mean >= _EPS)
    values = (
        (mod_cov / den_corr)
        * (2.0 * sigma1 * sigma2 / den_var)
        * (2.0 * mod_mu1 * mod_mu2 / den_mean)
    )
    return values[:, None], valid[:, None]


def conj(x):
    return np.concatenate([x[:1], -x[1:]])


def cd_mult(x, y):
    """Cayley-Dickson product of two 2^k-vectors, by the pair rule
    (a, b)(c, d) = (ac - conj(d) b, da + b conj(c))."""
    if len(x) == 1:
        return x * y
    h = len(x) // 2
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]
    return np.concatenate([cd_mult(a, c) - cd_mult(conj(d), b),
                           cd_mult(d, a) + cd_mult(b, conj(c))])


def table_mult_conj(a, b):
    """a * conj(b) through the sign table: component i xor j gets S[i, j] a_i b_j."""
    sign = _conj_signs(len(a))
    out = np.zeros(len(sign))
    for i in range(len(a)):
        for j in range(len(b)):
            out[i ^ j] += sign[i, j] * a[i] * b[j]
    return out


def full_tiles(height, width, block):
    return [(r, c) for r in range(0, height - block + 1, block)
            for c in range(0, width - block + 1, block)]


class TestSignTable:
    @pytest.mark.parametrize("order", [1, 2, 4, 8, 16])
    def test_matches_the_pair_rule_product(self, order):
        basis = np.eye(order)
        sign = _conj_signs(order)
        assert sign.shape == (order, order)
        for i in range(order):
            for j in range(order):
                want = sign[i, j] * basis[i ^ j]
                assert np.array_equal(cd_mult(basis[i], conj(basis[j])), want)

    def test_order_is_the_next_power_of_two(self):
        assert [len(_conj_signs(b)) for b in range(1, 18)] == (
            [1, 2, 4, 4] + [8] * 4 + [16] * 8 + [32])

    def test_quaternion_table_is_hamilton(self):
        # i*j = k, j*k = i, k*i = j, i*i = j*j = k*k = -1
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.normal(size=4), rng.normal(size=4)
            hamilton = np.array([
                a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
                a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
                a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
                a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0],
            ])
            assert np.allclose(table_mult_conj(a, conj(b)), hamilton, rtol=0, atol=1e-14)

    def test_octonion_table_one_nonzero_per_pair_and_composition(self):
        sign = _conj_signs(8)
        i, j = np.indices(sign.shape)
        table = np.zeros((8, 8, 8))
        table[i ^ j, i, j] = sign
        assert np.array_equal(np.count_nonzero(table, axis=0), np.ones((8, 8)))
        assert set(np.unique(table[table != 0])) == {-1.0, 1.0}
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(200):
            a, b = rng.normal(size=8), rng.normal(size=8)
            got = np.linalg.norm(table_mult_conj(a, b))
            worst = max(worst, abs(got - np.linalg.norm(a) * np.linalg.norm(b)))
        assert worst < 1e-12


class TestQ4Oracle:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), height=st.integers(2, 40),
           width=st.integers(2, 40), block_frac=st.floats(0.0, 1.0))
    def test_q4_within_1e12_of_the_hand_expanded_quaternion(self, seed, height, width,
                                                            block_frac):
        block = 2 + int(block_frac * (min(height, width) - 2))
        fused = random_raster(seed, height, width, 4)
        ref = random_raster(seed + 1, height, width, 4)
        groups = [(range(4), range(4, 8))]
        want = _tile_index((ref.data, fused.data), block, q4_tiles, groups)[0]
        assert abs(metric_q4(fused, ref, block) - want) <= 1e-12
        assert abs(metric_q2n(fused, ref, block) - want) <= 1e-12

    def test_tile_callback_within_1e12_of_the_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = rng.normal(size=(6, 9, 8))
            m, v = rng.random((6, 8)), np.einsum("tnc,tnc->tc", d, d) / 8
            cov = np.matmul(d.transpose(0, 2, 1), d) / 8
            got, got_valid = _q2n(4)(m, v, cov)
            want, want_valid = q4_tiles(m, v, cov)
            assert np.array_equal(got_valid, want_valid)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_requires_four_bands_but_q2n_takes_three(self):
        a, b = random_raster(0, 8, 8, 3), random_raster(1, 8, 8, 3)
        with pytest.raises(ShapeMismatchError):
            metric_q4(a, b, 8)
        assert -1.0 <= metric_q2n(a, b, 8) <= 1.0

    def test_one_band_rejected(self):
        with pytest.raises(ShapeMismatchError):
            metric_q2n(random_raster(0, 8, 8, 1), random_raster(1, 8, 8, 1), 8)


def complex_q2(fused, ref, block):
    """Q2 with each pixel's two bands one complex number, tile by tile."""
    values = []
    for r, c in full_tiles(*ref.shape[:2], block):
        z1 = ref[r : r + block, c : c + block].reshape(-1, 2) @ [1, 1j]
        z2 = fused[r : r + block, c : c + block].reshape(-1, 2) @ [1, 1j]
        n = z1.size
        d1, d2 = z1 - z1.mean(), z2 - z2.mean()
        var1, var2 = np.sum(abs(d1) ** 2) / (n - 1), np.sum(abs(d2) ** 2) / (n - 1)
        cov = np.sum(d1 * np.conj(d2)) / (n - 1)
        mu1, mu2 = abs(z1.mean()), abs(z2.mean())
        values.append(abs(cov) / np.sqrt(var1 * var2) * 2 * np.sqrt(var1 * var2)
                      / (var1 + var2) * 2 * mu1 * mu2 / (mu1**2 + mu2**2))
    return np.mean(values)


@pytest.mark.parametrize("height, width, block", [(8, 8, 8), (32, 24, 8), (40, 56, 16)])
def test_q2_matches_complex_numbers(height, width, block):
    fused = random_raster(3, height, width, 2)
    ref = random_raster(4, height, width, 2)
    want = complex_q2(fused.data, ref.data, block)
    assert abs(metric_q2n(fused, ref, block) - want) <= 1e-12


def test_an_inverted_cube_scores_near_plus_one():
    """Q2^n is the modulus of a hypercomplex index, so it is never negative:
    ``1 - reference`` scores near +1 where band 0's UIQI reads near -1."""
    reference = random_raster(3, 64, 64, 4, lo=0.2, hi=0.8)
    fused = Raster(1.0 - reference.data)
    assert 0.9999 < metric_q2n(fused, reference, 32) <= 1.0
    band0 = [Raster(r.data[:, :, :1]) for r in (fused, reference)]
    assert metric_uiqi(*band0, 32) < -0.9998


@settings(derandomize=True, deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), height=st.integers(11, 36),
       width=st.integers(11, 36), bands=st.integers(2, 16), block_frac=st.floats(0.0, 1.0))
def test_metric_identities_and_symmetry(seed, height, width, bands, block_frac):
    """ERGAS(x, x) = 0, SAM(x, x) = 0, SSIM(x, x) = 1 and Q2^n(x, x) = 1 on a
    non-constant x; SSIM, SAM and Q2^n are symmetric; |Q2^n| <= 1 up to 8
    bands, where the algebra is still a composition algebra."""
    block = 2 + int(block_frac * (min(height, width) - 2))
    x = random_raster(seed, height, width, bands, lo=0.05, hi=0.95)
    y = random_raster(seed + 1, height, width, bands, lo=0.05, hi=0.95)
    assert metric_ergas(x, x, 4) == 0.0
    assert metric_sam(x, x) == 0.0
    assert abs(metric_ssim(x, x) - 1.0) <= 1e-12
    assert abs(metric_q2n(x, x, block) - 1.0) <= 1e-9
    assert metric_ssim(x, y) == metric_ssim(y, x)
    assert metric_sam(x, y) == metric_sam(y, x)
    q = metric_q2n(x, y, block)
    assert abs(q - metric_q2n(y, x, block)) <= 1e-12
    if bands <= 8:
        assert abs(q) <= 1.0 + 1e-12
