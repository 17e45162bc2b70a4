"""Spectral tests. numpy.fft is the independent oracle for the transform
pair behind the cached bases; frozen small examples pin the conventions
(unnormalised forward, 1/n inverse, half-spectrum layout)."""

import numpy as np
import pytest

from helpers import check_gradients

import lino.spectral as sp
from lino.errors import DimensionError
from lino.tensor import Tensor


def _spectrum(x):
    """Half spectrum (re, im) of real signals along the last axis: x @ fwd."""
    n = x.shape[-1]
    spec = x @ sp._bases(n)[0]
    return spec[..., :sp.n_bins(n)], spec[..., sp.n_bins(n):]


def _signal(re, im, n):
    """Real signals from half spectra: [re | im] @ inv."""
    return np.concatenate([re, im], axis=-1) @ sp._bases(n)[1]


class TestTransformPair:
    def test_constant_signal_is_dc_only(self):
        re, im = _spectrum(np.ones(4))
        np.testing.assert_allclose(re, [4.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(im, [0.0, 0.0, 0.0], atol=1e-12)

    def test_impulse_is_flat(self):
        re, im = _spectrum(np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(re, [1.0, 1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(im, [0.0, 0.0, 0.0], atol=1e-12)

    def test_single_harmonic_lands_in_one_bin(self):
        n = 16
        t = np.arange(n)
        x = np.cos(2 * np.pi * 3 * t / n)
        re, im = _spectrum(x)
        expected = np.zeros(n // 2 + 1)
        expected[3] = n / 2
        np.testing.assert_allclose(re, expected, atol=1e-10)
        np.testing.assert_allclose(im, 0.0, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 4, 8, 64, 256, 6, 10, 18])
    def test_matches_numpy_oracle(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(3, n))
        re, im = _spectrum(x)
        ref = np.fft.rfft(x, axis=-1)
        np.testing.assert_allclose(re, ref.real, atol=1e-9)
        np.testing.assert_allclose(im, ref.imag, atol=1e-9)

    @pytest.mark.parametrize("n", [4, 8, 256, 512, 6, 12])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.normal(size=(2, 3, n))
        re, im = _spectrum(x)
        back = _signal(re, im, n)
        assert np.abs(back - x).max() < 1e-10

    def test_parseval(self):
        """Energy identity with interior bins counted twice."""
        rng = np.random.default_rng(99)
        for n in (8, 64, 256, 10):
            x = rng.normal(size=n)
            re, im = _spectrum(x)
            power = re**2 + im**2
            spectral = (power[0] + 2.0 * power[1:-1].sum() + power[-1]) / n
            assert abs(spectral - (x**2).sum()) < 1e-8

    def test_forward_linearity(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=8), rng.normal(size=8)
        rx, ix = _spectrum(x)
        ry, iy = _spectrum(y)
        rs, is_ = _spectrum(2.0 * x - 3.0 * y)
        np.testing.assert_allclose(rs, 2 * rx - 3 * ry, atol=1e-10)
        np.testing.assert_allclose(is_, 2 * ix - 3 * iy, atol=1e-10)

    def test_dc_only_spectrum_gives_constant(self):
        re = np.zeros(5)
        re[0] = 8.0
        y = _signal(re, np.zeros(5), 8)
        np.testing.assert_allclose(y, 1.0, atol=1e-12)

    def test_zero_maps_to_zero(self):
        re, im = _spectrum(np.zeros(16))
        assert not re.any() and not im.any()
        assert not _signal(re, im, 16).any()

    def test_bases_cached_and_read_only(self):
        fwd, inv = sp._bases(16)
        assert sp._bases(16)[0] is fwd
        assert fwd.shape == (16, 18) and inv.shape == (18, 16)
        assert not fwd.flags.writeable and not inv.flags.writeable
        np.testing.assert_allclose(fwd @ inv, np.eye(16), atol=1e-12)


class TestSpectrumOps:
    """`freq_projection(w_re, w_im)` is the [n, n] operator S with
    `x @ S` = transform, mix bins, transform back."""

    def test_identity_weights_identity_map(self):
        s = sp.freq_projection(Tensor(np.eye(9)), Tensor(np.zeros((9, 9))))
        assert s.shape == (16, 16)
        assert np.abs(s.data - np.eye(16)).max() < 1e-9

    def test_zero_weights_zero_map(self):
        s = sp.freq_projection(Tensor(np.zeros((5, 5))), Tensor(np.zeros((5, 5))))
        assert s.shape == (8, 8)
        np.testing.assert_allclose(s.data, 0.0, atol=1e-12)

    def test_projection_is_linear(self):
        """S is linear in the weights."""
        rng = np.random.default_rng(14)
        a_re, a_im, b_re, b_im = (rng.normal(size=(5, 5)) for _ in range(4))
        f = lambda wr, wi: sp.freq_projection(Tensor(wr), Tensor(wi)).data
        lhs = f(1.5 * a_re - 0.5 * b_re, 1.5 * a_im - 0.5 * b_im)
        rhs = 1.5 * f(a_re, a_im) - 0.5 * f(b_re, b_im)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_dc_selector_weights_average(self):
        """Keeping only the DC bin turns the projection into a mean."""
        w_re = np.zeros((5, 5))
        w_re[0, 0] = 1.0
        s = sp.freq_projection(Tensor(w_re), Tensor(np.zeros((5, 5))))
        np.testing.assert_allclose(s.data, np.full((8, 8), 1.0 / 8), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 8, 64, 256, 6, 12, 20, 96])
    def test_projection_matches_numpy_oracle(self, n):
        """Power-of-two and other even lengths against numpy.fft."""
        rng = np.random.default_rng(n + 2)
        b = n // 2 + 1
        x = rng.normal(size=(4, 3, n))
        w_re, w_im = rng.normal(size=(b, b)), rng.normal(size=(b, b))
        y = x @ sp.freq_projection(Tensor(w_re), Tensor(w_im)).data
        mixed = np.fft.rfft(x, axis=-1) @ (w_re + 1j * w_im).T
        # irfft reads only the real parts of the DC and Nyquist bins
        np.testing.assert_allclose(y, np.fft.irfft(mixed, n=n, axis=-1), atol=1e-9)

    @pytest.mark.parametrize("b", [2, 5, 9, 129, 257])
    def test_matches_block_matrix_build_bitwise(self, b):
        """The slice-filled bin mix gives the operator of the `np.block`
        build bit for bit: same values in the same (F) order."""
        rng = np.random.default_rng(b)
        w_re, w_im = rng.normal(size=(b, b)), rng.normal(size=(b, b))
        fwd, inv = sp._bases(2 * (b - 1))
        want = (fwd @ np.block([[w_re.T, w_im.T], [-w_im.T, w_re.T]])) @ inv
        assert np.array_equal(sp.freq_projection(Tensor(w_re), Tensor(w_im)).data, want)

    def test_weight_shape_checked(self):
        for re_shape, im_shape in [
            ((1, 1), (1, 1)),  # b < 2: no even length >= 2
            ((4, 5), (4, 5)),  # not square
            ((4, 4), (5, 5)),  # real and imaginary parts disagree
            ((4,), (4,)),      # not a matrix
        ]:
            with pytest.raises(DimensionError):
                sp.freq_projection(Tensor(np.zeros(re_shape)), Tensor(np.zeros(im_shape)))

    def test_freq_projection_gradients(self):
        rng = np.random.default_rng(7)
        for b in (2, 4, 5):
            w_re = rng.normal(size=(b, b)) * 0.3
            w_im = rng.normal(size=(b, b)) * 0.3
            assert check_gradients(sp.freq_projection, [w_re, w_im])
