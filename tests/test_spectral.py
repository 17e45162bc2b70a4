"""Spectral tests. numpy.fft is the independent oracle for the transform
pair; frozen small examples pin the conventions (unnormalised forward,
1/n inverse, half-spectrum layout)."""

import numpy as np
import pytest

from helpers import check_gradients

import lino.spectral as sp
from lino.errors import DimensionError
from lino.tensor import Tensor


class TestTransformPair:
    def test_constant_signal_is_dc_only(self):
        re, im = sp.rfft_arrays(np.ones(4))
        np.testing.assert_allclose(re, [4.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(im, [0.0, 0.0, 0.0], atol=1e-12)

    def test_impulse_is_flat(self):
        re, im = sp.rfft_arrays(np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(re, [1.0, 1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(im, [0.0, 0.0, 0.0], atol=1e-12)

    def test_single_harmonic_lands_in_one_bin(self):
        n = 16
        t = np.arange(n)
        x = np.cos(2 * np.pi * 3 * t / n)
        re, im = sp.rfft_arrays(x)
        expected = np.zeros(n // 2 + 1)
        expected[3] = n / 2
        np.testing.assert_allclose(re, expected, atol=1e-10)
        np.testing.assert_allclose(im, 0.0, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 4, 8, 64, 256, 6, 10, 18])
    def test_matches_numpy_oracle(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(3, n))
        re, im = sp.rfft_arrays(x)
        ref = np.fft.rfft(x, axis=-1)
        np.testing.assert_allclose(re, ref.real, atol=1e-9)
        np.testing.assert_allclose(im, ref.imag, atol=1e-9)

    @pytest.mark.parametrize("n", [4, 8, 256, 512, 6, 12])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.normal(size=(2, 3, n))
        re, im = sp.rfft_arrays(x)
        back = sp.irfft_arrays(re, im, n)
        assert np.abs(back - x).max() < 1e-10

    def test_parseval(self):
        """Energy identity with interior bins counted twice."""
        rng = np.random.default_rng(99)
        for n in (8, 64, 256, 10):
            x = rng.normal(size=n)
            re, im = sp.rfft_arrays(x)
            power = re**2 + im**2
            spectral = (power[0] + 2.0 * power[1:-1].sum() + power[-1]) / n
            assert abs(spectral - (x**2).sum()) < 1e-8

    def test_forward_linearity(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=8), rng.normal(size=8)
        rx, ix = sp.rfft_arrays(x)
        ry, iy = sp.rfft_arrays(y)
        rs, is_ = sp.rfft_arrays(2.0 * x - 3.0 * y)
        np.testing.assert_allclose(rs, 2 * rx - 3 * ry, atol=1e-10)
        np.testing.assert_allclose(is_, 2 * ix - 3 * iy, atol=1e-10)

    def test_dc_only_spectrum_gives_constant(self):
        re = np.zeros(5)
        re[0] = 8.0
        y = sp.irfft_arrays(re, np.zeros(5), 8)
        np.testing.assert_allclose(y, 1.0, atol=1e-12)

    def test_zero_maps_to_zero(self):
        re, im = sp.rfft_arrays(np.zeros(16))
        assert not re.any() and not im.any()
        assert not sp.irfft_arrays(re, im, 16).any()

    def test_odd_length_rejected(self):
        with pytest.raises(DimensionError):
            sp.rfft_arrays(np.zeros(7))
        with pytest.raises(DimensionError):
            sp.irfft_arrays(np.zeros(4), np.zeros(4), 7)

    def test_bin_count_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            sp.irfft_arrays(np.zeros(4), np.zeros(4), 8)

    def test_bases_cached_and_read_only(self):
        fwd, inv = sp._bases(16, np.dtype(np.float64))
        assert sp._bases(16, np.dtype(np.float64))[0] is fwd
        assert fwd.shape == (16, 18) and inv.shape == (18, 16)
        assert not fwd.flags.writeable and not inv.flags.writeable
        np.testing.assert_allclose(fwd @ inv, np.eye(16), atol=1e-12)

    def test_float32_stays_float32(self):
        x = np.random.default_rng(2).normal(size=(3, 12)).astype(np.float32)
        re, im = sp.rfft_arrays(x)
        assert re.dtype == im.dtype == np.float32
        assert sp.irfft_arrays(re, im, 12).dtype == np.float32
        w_re, w_im = np.eye(7, dtype=np.float32), np.zeros((7, 7), dtype=np.float32)
        y = sp.freq_projection(Tensor(x), Tensor(w_re), Tensor(w_im))
        assert y.dtype == np.float32
        np.testing.assert_allclose(y.data, x, atol=1e-5)


class TestSpectrumOps:
    def test_identity_weights_identity_map(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(4, 3, 16))
        w_re, w_im = np.eye(9), np.zeros((9, 9))
        y = sp.freq_projection(Tensor(x), Tensor(w_re), Tensor(w_im))
        assert np.abs(y.data - x).max() < 1e-9

    def test_zero_weights_zero_map(self):
        x = np.random.default_rng(0).normal(size=(2, 8))
        y = sp.freq_projection(Tensor(x), Tensor(np.zeros((5, 5))), Tensor(np.zeros((5, 5))))
        np.testing.assert_allclose(y.data, 0.0, atol=1e-12)

    def test_projection_is_linear(self):
        rng = np.random.default_rng(14)
        x, y = rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
        w_re = Tensor(rng.normal(size=(5, 5)))
        w_im = Tensor(rng.normal(size=(5, 5)))
        f = lambda a: sp.freq_projection(Tensor(a), w_re, w_im).data
        lhs = f(1.5 * x - 0.5 * y)
        rhs = 1.5 * f(x) - 0.5 * f(y)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_dc_selector_weights_average(self):
        """Keeping only the DC bin turns the projection into a mean."""
        rng = np.random.default_rng(77)
        x = rng.normal(size=(2, 8))
        w_re = np.zeros((5, 5))
        w_re[0, 0] = 1.0
        y = sp.freq_projection(Tensor(x), Tensor(w_re), Tensor(np.zeros((5, 5))))
        np.testing.assert_allclose(y.data, x.mean(axis=-1, keepdims=True) * np.ones(8),
                                   atol=1e-10)

    @pytest.mark.parametrize("n", [2, 8, 64, 256, 6, 12, 20, 96])
    def test_projection_matches_numpy_oracle(self, n):
        """Power-of-two and other even lengths against numpy.fft."""
        rng = np.random.default_rng(n + 2)
        b = n // 2 + 1
        x = rng.normal(size=(4, 3, n))
        w_re, w_im = rng.normal(size=(b, b)), rng.normal(size=(b, b))
        y = sp.freq_projection(Tensor(x), Tensor(w_re), Tensor(w_im)).data
        mixed = np.fft.rfft(x, axis=-1) @ (w_re + 1j * w_im).T
        # irfft reads only the real parts of the DC and Nyquist bins
        np.testing.assert_allclose(y, np.fft.irfft(mixed, n=n, axis=-1), atol=1e-9)

    def test_weight_shape_checked(self):
        with pytest.raises(DimensionError):
            sp.freq_projection(Tensor(np.zeros((2, 8))), Tensor(np.zeros((4, 4))),
                               Tensor(np.zeros((4, 4))))

    def test_freq_projection_gradients(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 6))
        w_re = rng.normal(size=(4, 4)) * 0.3
        w_im = rng.normal(size=(4, 4)) * 0.3
        check_gradients(sp.freq_projection, [x, w_re, w_im])
