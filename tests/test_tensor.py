"""Engine tests: frozen numeric examples, exact oracles, gradient checks.

The brute-force convolution reference and the finite-difference checker
are the oracles here; engine code is never trusted to test itself.
"""

import ast
import contextlib
import sys
import threading
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from helpers import check_gradients, fd_gradients, relative_error

import lino
import lino.tensor as T
from lino.errors import DimensionError, NonFiniteError
from lino.spectral import freq_projection
from lino.tensor import Lane, Tape, Tensor, backward


def conv_reference(h, phi, beta):
    """Brute-force causal depthwise convolution, ascending-k accumulation,
    every multiply and add rounded to float64."""
    h = np.asarray(h, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    out = np.zeros_like(h)
    c, d = h.shape[-2], h.shape[-1]
    for idx in np.ndindex(h.shape[:-2]):
        for ci in range(c):
            for di in range(d):
                acc = np.float64(0)
                for k in range(di + 1):
                    acc += phi[ci, k] * h[idx + (ci, di - k)]
                out[idx + (ci, di)] = acc
    return out + np.asarray(beta, dtype=np.float64)[:, None]


def conv_vjp_reference(h, phi, g):
    """Ascending-k loop adjoint of the causal depthwise convolution."""
    d = h.shape[-1]
    lead = tuple(range(h.ndim - 2))
    gh = np.zeros_like(h)
    gphi = np.zeros_like(phi)
    for k in range(d):
        gh[..., : d - k] += phi[:, k, None] * g[..., k:]
        gphi[:, k] = (g[..., k:] * h[..., : d - k]).sum(axis=lead + (-1,))
    return gh, gphi, g.sum(axis=lead + (-1,))


# Matmul vjp vs loop vjp, float64: eps (2.2e-16) times a reduction length of
# up to 256 terms times a margin of 16, relative to the largest reference entry.
CONV_VJP_RTOL = 1e-12

# Recorded (GEMM) forward vs the loop, relative to the largest reference
# entry, at D up to 512: measured at most 2.1e-15, a margin of about 50.
CONV_GEMM_RTOL = 1e-13


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

class TestElementwise:
    def test_add_values(self):
        y = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(y.data, [4.0, 6.0])

    def test_sub_values(self):
        y = T.sub(Tensor([1.0, 2.0]), Tensor([3.0, 5.0]))
        np.testing.assert_array_equal(y.data, [-2.0, -3.0])

    def test_scalar_variants(self):
        x = Tensor([1.0, 2.0])
        np.testing.assert_array_equal(T.scale(x, -2.0).data, [-2.0, -4.0])

    def test_mul_backward_product_rule(self):
        """Seeding with ones, each factor's gradient is the other factor."""
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.mul(a, b))
        grads = backward(tape, loss)
        np.testing.assert_array_equal(grads[a], [4.0, 5.0])
        np.testing.assert_array_equal(grads[b], [2.0, 3.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            T.add(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_tanh_range_and_odd(self):
        x = np.linspace(-4, 4, 33)
        y = T.tanh(Tensor(x)).data
        assert np.all(np.abs(y) < 1.0)
        np.testing.assert_allclose(y, -T.tanh(Tensor(-x)).data, atol=1e-15)

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "tanh", "scale"])
    def test_gradients(self, op):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        if op == "tanh":
            check_gradients(T.tanh, [a])
        elif op == "scale":
            check_gradients(lambda t: T.scale(t, 1.7), [a])
        else:
            check_gradients(getattr(T, op), [a, b])


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

class TestLinear:
    def test_worked_example(self):
        x = Tensor([1.0, 2.0])
        w = Tensor([[1.0, 0.0], [0.0, 2.0]])
        b = Tensor([0.0, 1.0])
        np.testing.assert_array_equal(T.linear(x, w, b).data, [1.0, 5.0])

    def test_batched_leading_axes(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=(2,))
        y = T.linear(Tensor(x), Tensor(w), Tensor(b))
        assert y.shape == (5, 3, 2)
        np.testing.assert_allclose(y.data, x @ w + b, atol=1e-15)

    def test_no_bias(self):
        x = Tensor([[1.0, 2.0]])
        w = Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(T.linear(x, w).data, [[11.0]])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            T.linear(Tensor([1.0, 2.0, 3.0]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))

    def test_gradients(self):
        rng = np.random.default_rng(3)
        check_gradients(T.linear,
                        [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)),
                         rng.normal(size=(5,))])


# ---------------------------------------------------------------------------
# causal depthwise convolution
# ---------------------------------------------------------------------------

class TestCausalConv:
    def test_shift_kernel(self):
        """phi = [0,1,0] is a one-step delay."""
        h = Tensor([[1.0, 2.0, 3.0]])
        phi = Tensor([[0.0, 1.0, 0.0]])
        beta = Tensor([0.0])
        out = T.causal_depthwise_conv(h, phi, beta)
        np.testing.assert_array_equal(out.data, [[0.0, 1.0, 2.0]])

    def test_running_sum_kernel(self):
        h = Tensor([[1.0, 2.0, 3.0]])
        phi = Tensor([[1.0, 1.0, 1.0]])
        beta = Tensor([0.0])
        out = T.causal_depthwise_conv(h, phi, beta)
        np.testing.assert_array_equal(out.data, [[1.0, 3.0, 6.0]])

    def test_matches_reference_bitwise(self):
        """Vectorised k-loop must agree with the triple loop exactly."""
        rng = np.random.default_rng(11)
        h = rng.normal(size=(3, 4, 8))
        phi = rng.normal(size=(4, 8))
        beta = rng.normal(size=(4,))
        out = T.causal_depthwise_conv(Tensor(h), Tensor(phi), Tensor(beta))
        ref = conv_reference(h, phi, beta)
        assert np.array_equal(out.data, ref)

    @staticmethod
    def _case(name, monkeypatch):
        """(h, phi, beta) for one forward case."""
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        if name == "blocks":
            # whole-channel blocks: two full column blocks plus a remainder
            # of one channel row
            c, d = 3, 4
            monkeypatch.setattr(T, "_CONV_BLOCK_BYTES", c * d * 8 * 10)
            n = 2 * T._conv_block_width(c, d) // c + 1
            h = rng.normal(size=(n, c, d))
        elif name == "channel_blocks":
            # one-channel blocks of 100 columns: ten full blocks and a
            # remainder of 25 per channel
            c, d = 3, 16
            monkeypatch.setattr(T, "_CONV_BLOCK_BYTES", d * 8 * 100)
            h = rng.normal(size=(T._CONV_CHANNEL_MIN // d + 1, c, d))
        elif name == "below_channel_rule":
            # one window short of one-channel blocks: whole-channel blocks
            c, d = 2, 16
            h = rng.normal(size=(T._CONV_CHANNEL_MIN // d - 1, c, d))
        elif name == "d256":
            c, d = 2, 256
            h = rng.normal(size=(1, c, d))
        elif name == "batch1":
            c, d = 7, 32
            h = rng.normal(size=(1, c, d))
        elif name == "transposed":
            c, d = 4, 16
            h = rng.normal(size=(d, c, 5)).transpose(2, 1, 0)
            assert not h.flags.c_contiguous
        elif name == "window_transposed":
            c, d = 4, 16
            h = rng.normal(size=(d, c, 1)).transpose(2, 1, 0)
            assert not h.flags.c_contiguous
        elif name == "window_2d":
            c, d = 5, 12
            h = rng.normal(size=(c, d))
        elif name == "widest_toeplitz":
            # two output tiles, the second a remainder of three
            c, d = 1, T._CONV_TOEPLITZ_TILE + 3
            h = rng.normal(size=(T._CONV_TOEPLITZ_COLS, c, d))
        else:  # narrowest_blocked
            c, d = 1, 256
            h = rng.normal(size=(T._CONV_TOEPLITZ_COLS + 1, c, d))
        phi = rng.normal(size=(c, d))
        beta = rng.normal(size=(c,))
        if name in ("window_2d", "channel_blocks"):
            # channel 0: input -0.0, kernel positive, bias -0.0. Every term
            # is -0.0, so the loop's sum, started at +0.0, is +0.0; a sum
            # started from its first term would end at -0.0
            h[..., 0, :] = -0.0
            phi[0] = np.abs(phi[0])
            beta[0] = -0.0
        return h, phi, beta

    @pytest.mark.parametrize("name", ["blocks", "channel_blocks", "below_channel_rule",
                                      "d256", "batch1", "transposed",
                                      "window_transposed", "window_2d",
                                      "widest_toeplitz", "narrowest_blocked"])
    def test_blocked_forward_matches_reference_bitwise(self, name, monkeypatch):
        """Both forward forms, the Toeplitz form (at most
        `_CONV_TOEPLITZ_COLS` columns) and the blocked loop in either block
        layout, agree with the triple loop exactly, sign of zero included."""
        h, phi, beta = self._case(name, monkeypatch)
        wide = ("blocks", "channel_blocks", "below_channel_rule", "transposed",
                "narrowest_blocked")
        form = "_conv_blocked" if name in wide else "_conv_toeplitz"
        windows = h.size // h.shape[-1] // h.shape[-2]
        one_channel = windows * h.shape[-1] >= T._CONV_CHANNEL_MIN
        assert one_channel == (name == "channel_blocks")
        called = []
        helper = getattr(T, form)

        def spy(*args):
            called.append(form)
            return helper(*args)

        monkeypatch.setattr(T, form, spy)
        before = [a.copy() for a in (h, phi, beta)]
        out = T.causal_depthwise_conv(Tensor(h), Tensor(phi), Tensor(beta)).data
        assert called == [form]
        ref = conv_reference(h, phi, beta)
        assert np.array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))
        for arr, copy in zip((h, phi, beta), before):
            assert np.array_equal(arr, copy)

    @pytest.mark.parametrize("n", [256, 300])
    def test_block_layouts_agree_bitwise_at_paper_shape(self, n, monkeypatch):
        """At paper shape (7 channels, D = 256) the triple loop is too slow,
        so the one-channel layout is checked against the whole-channel one,
        forced through the rule's constant: both are bitwise the loop, so
        they agree exactly. 300 windows leave a remainder block."""
        rng = np.random.default_rng(n)
        h = rng.normal(size=(n, 7, 256))
        h[:, 3] = -0.0
        phi, beta = rng.normal(size=(7, 256)), rng.normal(size=(7,))
        beta[3] = -0.0
        outs = []
        for rule in (0, h.size + 1):
            monkeypatch.setattr(T, "_CONV_CHANNEL_MIN", rule)
            outs.append(T.causal_depthwise_conv(Tensor(h), Tensor(phi), Tensor(beta)).data)
        assert outs[0].tobytes() == outs[1].tobytes()

    def test_moving_average_in_one_channel_blocks(self):
        """A uniform k = 4 kernel through one-channel blocks is bitwise the
        scalar moving-average loop, ascending taps from +0.0."""
        k, c, d = 4, 2, 64
        n = T._CONV_CHANNEL_MIN // d + 1
        h = np.random.default_rng(4).normal(size=(n, c, d))
        phi = np.zeros((c, d))
        phi[:, :k] = 1.0 / k
        out = T.causal_depthwise_conv(Tensor(h), Tensor(phi), Tensor(np.zeros(c))).data
        want = np.zeros_like(h)
        for w in range(n):
            for ci in range(c):
                for dpos in range(d):
                    acc = 0.0
                    for kk in range(min(dpos + 1, k)):
                        acc += (1.0 / k) * h[w, ci, dpos - kk]
                    want[w, ci, dpos] = acc
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("c, d", [(1, 1), (1, 8), (3, 16), (7, 256)])
    def test_toeplitz_views_match_sliding_window_builds(self, c, d):
        """The strided views of both Toeplitz forms against the
        `sliding_window_view` builds they replace: same values and strides,
        and the same contiguous conv operator, bit for bit."""
        rng = np.random.default_rng(c * d)
        pd = rng.normal(size=(c, d))
        padded = np.concatenate([np.zeros((c, d - 1)), pd], axis=-1)
        for got, want in [(T._toeplitz(padded), sliding_window_view(padded, d, axis=-1)[..., ::-1]),
                          (T._toeplitz(padded[0]).T, sliding_window_view(padded[0], d)[::-1])]:
            assert got.strides == want.strides and not got.flags.writeable
            assert np.array_equal(got, want)
        op = T._conv_operator(pd)
        assert op.flags.c_contiguous
        assert np.array_equal(op, np.ascontiguousarray(
            sliding_window_view(padded, d, axis=-1)[..., ::-1]))

    def test_channels_independent(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(3, 6))
        phi = rng.normal(size=(3, 6))
        beta = np.zeros(3)
        full = T.causal_depthwise_conv(Tensor(h), Tensor(phi), Tensor(beta)).data
        for c in range(3):
            solo = np.zeros_like(h)
            solo[c] = h[c]
            part = T.causal_depthwise_conv(Tensor(solo), Tensor(phi), Tensor(beta)).data
            np.testing.assert_array_equal(part[c], full[c])

    def test_kernel_shape_checked(self):
        with pytest.raises(DimensionError):
            T.causal_depthwise_conv(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 3))),
                                    Tensor(np.zeros(2)))

    @pytest.mark.parametrize("shape", [(3, 4, 8), (4, 8), (2, 3, 7, 256)])
    def test_vjp_matches_loop_reference(self, shape):
        rng = np.random.default_rng(shape[-1])
        c, d = shape[-2:]
        h = Tensor(rng.normal(size=shape), requires_grad=True)
        phi = Tensor(rng.normal(size=(c, d)), requires_grad=True)
        beta = Tensor(rng.normal(size=(c,)), requires_grad=True)
        g = rng.normal(size=shape)
        with Tape() as tape:
            loss = T.sum_all(T.mul(T.causal_depthwise_conv(h, phi, beta), Tensor(g)))
        grads = backward(tape, loss)
        for got, want in zip((grads[h], grads[phi], grads[beta]),
                             conv_vjp_reference(h.data, phi.data, g)):
            assert got.shape == want.shape
            assert relative_error(got, want) < CONV_VJP_RTOL

    # the ids name the precision, so the case names stay stable
    @pytest.mark.parametrize("d", [8, 16, 96, 256, 512], ids=lambda d: f"float64-{d}")
    @pytest.mark.parametrize("batch", [1, 32])
    def test_recorded_forward_matches_reference(self, batch, d):
        """A recorded call runs the GEMM form, which agrees with the triple
        loop to rounding. Batch 32 takes one channel to keep the reference
        loop to about a second at D = 512."""
        rng = np.random.default_rng(zlib.crc32(f"gemm{batch}/{d}".encode()))
        c = 3 if batch == 1 else 1
        h = Tensor(rng.normal(size=(batch, c, d)), requires_grad=True)
        phi = Tensor(rng.normal(size=(c, d)))
        beta = Tensor(rng.normal(size=(c,)))
        with Tape():
            out = T.causal_depthwise_conv(h, phi, beta)
        assert out.requires_grad
        ref = conv_reference(h.data, phi.data, beta.data)
        assert relative_error(out.data, ref) < CONV_GEMM_RTOL

    @staticmethod
    def _spy_loop_forms(monkeypatch):
        called = []
        for form in ("_conv_toeplitz", "_conv_blocked"):
            def spy(*args, _form=form, _helper=getattr(T, form)):
                called.append(_form)
                return _helper(*args)
            monkeypatch.setattr(T, form, spy)
        return called

    @pytest.mark.parametrize("n", [1, 32])
    @pytest.mark.parametrize("grad", ["h", "phi", "beta"])
    def test_recorded_forward_runs_no_loop_form(self, n, grad, monkeypatch):
        called = self._spy_loop_forms(monkeypatch)
        rng = np.random.default_rng(n)
        h, phi, beta = (Tensor(rng.normal(size=shape), requires_grad=name == grad)
                        for name, shape in (("h", (n, 3, 16)), ("phi", (3, 16)),
                                            ("beta", (3,))))
        with Tape() as tape:
            T.causal_depthwise_conv(h, phi, beta)
        assert called == [] and len(tape) == 1

    @pytest.mark.parametrize("n, form", [(1, "_conv_toeplitz"), (32, "_conv_blocked")])
    @pytest.mark.parametrize("tape", [False, True])
    def test_unrecorded_forward_runs_a_loop_form(self, n, form, tape, monkeypatch):
        """With no tape, or a tape but no parent that requires grad, the
        forward takes a bitwise loop form."""
        called = self._spy_loop_forms(monkeypatch)
        rng = np.random.default_rng(n)
        h = Tensor(rng.normal(size=(n, 3, 16)), requires_grad=not tape)
        phi, beta = Tensor(rng.normal(size=(3, 16))), Tensor(rng.normal(size=(3,)))
        if tape:
            with Tape() as active:
                out = T.causal_depthwise_conv(h, phi, beta)
            assert len(active) == 0
        else:
            out = T.causal_depthwise_conv(h, phi, beta)
        assert called == [form] and not out.requires_grad
        assert np.array_equal(out.data, conv_reference(h.data, phi.data, beta.data))

    def test_gradients(self):
        rng = np.random.default_rng(13)
        check_gradients(T.causal_depthwise_conv,
                        [rng.normal(size=(2, 3, 5)), rng.normal(size=(3, 5)),
                         rng.normal(size=(3,))])


# ---------------------------------------------------------------------------
# channel mixing
# ---------------------------------------------------------------------------

def channel_mix_reference(x, w1, b1, w2, b2):
    """The mixing in plain numpy: softmax over channels (axis -2), the
    pooled summary broadcast back over channels, and one GEMM on the
    concatenated [own | pooled] features, in the order `w1`'s rows are
    stored in a checkpoint."""
    e = np.exp(x - x.max(axis=-2, keepdims=True))
    s = e / e.sum(axis=-2, keepdims=True)
    pooled = np.broadcast_to((s * x).sum(axis=-2, keepdims=True), x.shape)
    return x + np.tanh(np.concatenate([x, pooled], axis=-1) @ w1 + b1) @ w2 + b2


def channel_mix_arrays(rng, lead, c, d):
    return [rng.normal(size=lead + (c, d)), rng.normal(size=(2 * d, d)) / d,
            rng.normal(size=d), rng.normal(size=(d, d)) / d, rng.normal(size=d)]


class TestChannelMix:
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    def test_matches_numpy_reference(self, lead):
        rng = np.random.default_rng(len(lead))
        arrays = channel_mix_arrays(rng, lead, 4, 6)
        got = T.channel_mix(*map(Tensor, arrays)).data
        assert relative_error(got, channel_mix_reference(*arrays)) < 1e-12

    def test_extreme_inputs_stay_finite(self):
        """Inputs of +-1000 across channels: the max-subtracted softmax
        neither overflows nor divides by zero."""
        x = np.array([0.0, 1000.0, -1000.0])[:, None] * np.ones((3, 4))
        d = x.shape[-1]
        out = T.channel_mix(Tensor(x), Tensor(np.zeros((2 * d, d))), Tensor(np.zeros(d)),
                            Tensor(np.zeros((d, d))), Tensor(np.zeros(d))).data
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out, x)

    @pytest.mark.parametrize("name,shape", [
        ("w1", (6, 6)), ("w1", (12, 5)), ("b1", (5,)), ("w2", (6, 5)), ("b2", (7,)),
    ])
    def test_weight_shapes_checked(self, name, shape):
        rng = np.random.default_rng(3)
        arrays = dict(zip(("x", "w1", "b1", "w2", "b2"), channel_mix_arrays(rng, (2,), 3, 6)))
        arrays[name] = rng.normal(size=shape)
        with pytest.raises(DimensionError, match=f"channel_mix: {name} shape"):
            T.channel_mix(*map(Tensor, arrays.values()))

    def test_overflowing_pre_activation_raises(self):
        """An overflow before the tanh would saturate to a finite output;
        the op reports it instead, as a `linear` output would be."""
        rng = np.random.default_rng(4)
        arrays = channel_mix_arrays(rng, (2,), 3, 4)
        arrays[0] = np.abs(arrays[0]) + 0.1
        arrays[1] = np.concatenate([np.full((4, 4), 1e308), np.zeros((4, 4))])
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="channel_mix"):
            T.channel_mix(*map(Tensor, arrays))


def layer_norm_reference(x, gamma, beta, g, eps=1e-5):
    """layer_norm's forward and vjp as plain expressions, each step a new
    array: (y, gx, ggamma, gbeta)."""
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce((x - mu) ** 2, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    gxhat = g * gamma
    gx = inv * (gxhat - np.add.reduce(gxhat, axis=-1, keepdims=True) / d
                - xhat * (np.add.reduce(gxhat * xhat, axis=-1, keepdims=True) / d))
    lead = tuple(range(g.ndim - 1))
    return xhat * gamma + beta, gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


class TestLayerNorm:
    @pytest.mark.parametrize("shape", [(64, 3, 16), (32, 7, 256), (1, 7, 16), (4, 16), (16,)])
    @pytest.mark.parametrize("layout", ["c", "f", "reversed"])
    def test_matches_reference_expressions_bitwise(self, shape, layout):
        """Forward and vjp against the plain expressions, bit for bit, for
        an upstream gradient (and an input) in C order, F order or a
        reversed view: a reduce over the leading axes follows the memory
        order, so this pins the summation order for non-contiguous g."""
        rng = np.random.default_rng(len(shape) + shape[-1])
        arrays = [rng.normal(size=shape) * 3 + 1, rng.normal(size=shape)]
        if layout == "f":
            arrays = [np.asfortranarray(a) for a in arrays]
        elif layout == "reversed":
            arrays = [a[..., ::-1] for a in arrays]
        x, g = arrays
        gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        with Tape() as tape:
            y = T.layer_norm(*leaves)
        got = (y.data,) + tuple(tape.nodes[-1].vjp(g))
        for a, b in zip(got, layer_norm_reference(x, gamma, beta, g)):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_two_point_example(self):
        y = T.layer_norm(Tensor([1.0, 3.0]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]),
                         eps=1e-12).data
        np.testing.assert_allclose(y, [-1.0, 1.0], atol=1e-9)

    def test_population_variance(self):
        """Three points [0,1,2]: population std is sqrt(2/3), not 1."""
        y = T.layer_norm(Tensor([0.0, 1.0, 2.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                         eps=1e-12).data
        np.testing.assert_allclose(y, [-np.sqrt(1.5), 0.0, np.sqrt(1.5)], atol=1e-9)

    def test_normalised_rows(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 8)) * 5 + 3
        y = T.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)

    def test_gradients(self):
        rng = np.random.default_rng(17)
        check_gradients(T.layer_norm,
                        [rng.normal(size=(2, 3, 6)), rng.normal(size=(6,)),
                         rng.normal(size=(6,))])


class TestDropout:
    def test_eval_is_bitwise_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(7, 7)))
        y = T.dropout(x, 0.5)
        assert y is x

    def test_p_zero_train_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_keep_rate(self):
        rng = np.random.default_rng(123)
        x = Tensor(np.ones(100_000))
        y = T.dropout(x, 0.5, rng).data
        keep = np.count_nonzero(y) / y.size
        assert 0.495 <= keep <= 0.505

    def test_kept_values_scaled(self):
        rng = np.random.default_rng(42)
        y = T.dropout(Tensor(np.ones(1000)), 0.2, rng).data
        kept = y[y != 0.0]
        np.testing.assert_allclose(kept, 1.0 / 0.8, atol=1e-15)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            T.dropout(Tensor([1.0]), 1.0, np.random.default_rng(0))

    def test_mask_reused_in_backward(self):
        rng = np.random.default_rng(77)
        x = Tensor(np.ones(64), requires_grad=True)
        with Tape() as tape:
            y = T.dropout(x, 0.5, rng)
            loss = T.sum_all(y)
        grads = backward(tape, loss)
        np.testing.assert_array_equal((grads[x] != 0), (y.data != 0))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

class TestShapeOps:
    def test_mean_all(self):
        x = Tensor([[1.0, 2.0], [3.0, 6.0]])
        assert T.mean_all(x).item() == 3.0

    def test_sum_all_gradients(self):
        rng = np.random.default_rng(zlib.crc32(b"sum_all"))
        check_gradients(T.sum_all, [rng.normal(size=(3, 4))])


# ---------------------------------------------------------------------------
# no op writes into its inputs
# ---------------------------------------------------------------------------

# One case per op `_record` can tag, named by the op (a suffix after "/"
# tells apart the conv's forms): the call on Tensors, and its arguments'
# shapes. The conv's unrecorded forward is the Toeplitz form at 3 columns
# and the blocked loop at 12; recorded, both run the GEMM form.
WRITE_CASES = {
    "add": (T.add, [(3, 4), (3, 4)]),
    "sub": (T.sub, [(3, 4), (3, 4)]),
    "mul": (T.mul, [(3, 4), (3, 4)]),
    "scale": (lambda a: T.scale(a, 0.5), [(3, 4)]),
    "tanh": (T.tanh, [(3, 4)]),
    "linear": (T.linear, [(2, 3, 5), (5, 4), (4,)]),
    "causal_depthwise_conv/toeplitz": (T.causal_depthwise_conv, [(1, 3, 8), (3, 8), (3,)]),
    "causal_depthwise_conv/blocked": (T.causal_depthwise_conv, [(4, 3, 8), (3, 8), (3,)]),
    "channel_mix": (T.channel_mix, [(2, 3, 6), (12, 6), (6,), (6, 6), (6,)]),
    "layer_norm": (T.layer_norm, [(2, 3, 6), (6,), (6,)]),
    "dropout": (lambda a: T.dropout(a, 0.5, np.random.default_rng(0)), [(3, 4)]),
    "sum_all": (T.sum_all, [(3, 4)]),
    "freq_projection": (freq_projection, [(5, 5), (5, 5)]),
}


def recorded_op_names():
    """Every op name a `_record` call in `src/lino` tags its node with."""
    names = set()
    for path in Path(lino.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_record":
                tag = node.args[-1]
                assert isinstance(tag, ast.Constant), f"{path.name}: computed op name"
                names.add(tag.value)
    return names


def frozen(a):
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


class TestNoWritesIntoInputs:
    """Inputs, parameters and the upstream gradient go in read-only, so an
    op that wrote into one would raise; outputs must not alias them either,
    so a later in-place write into an op's fresh output cannot reach them.
    Dropout with no rng, which returns its input tensor, is the one forward
    exception; `add` and `sub` pass the upstream gradient through as an
    input gradient, which `backward` never writes into."""

    @pytest.mark.parametrize("name", sorted(WRITE_CASES))
    def test_op_leaves_its_arrays_alone(self, name):
        op, shapes = WRITE_CASES[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        arrays = [frozen(rng.normal(size=s)) for s in shapes]

        def aliases(out, *more):
            return [i for i, a in enumerate(arrays + list(more)) if np.shares_memory(out, a)]

        assert aliases(op(*[Tensor(a) for a in arrays]).data) == []
        with Tape() as tape:
            out = op(*[Tensor(a, requires_grad=True) for a in arrays])
        assert aliases(out.data) == []
        g = frozen(rng.normal(size=out.shape))
        for pg in tape.nodes[-1].vjp(g):
            assert aliases(pg, g) == [] or (name in ("add", "sub") and pg is g)

    def test_every_recorded_op_has_a_case(self):
        names = recorded_op_names()
        assert {"freq_projection", "channel_mix", "layer_norm"} <= names
        uncovered = sorted(op for op in names if op not in {c.split("/")[0] for c in WRITE_CASES})
        assert not uncovered, f"ops with no read-only case: {uncovered}"


# ---------------------------------------------------------------------------
# tape mechanics
# ---------------------------------------------------------------------------

class TestTape:
    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_data_is_float64(self, dtype):
        """Every tensor holds float64, whatever array it is given."""
        arr = np.arange(6).reshape(2, 3).astype(dtype)
        t = Tensor(arr, requires_grad=True)
        assert t.data.dtype == np.float64
        np.testing.assert_array_equal(t.data, arr)

    def test_creation_order_is_topological(self):
        a = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            b = T.scale(a, 2.0)
            c = T.add(b, a)       # diamond: a feeds both b and c
            loss = T.sum_all(T.mul(c, c))
        outs = [id(n.out) for n in tape.nodes]
        assert outs.index(id(b)) < outs.index(id(c))
        grads = backward(tape, loss)
        # d/da (3a)^2 = 18a = 18
        np.testing.assert_allclose(grads[a], [18.0], atol=1e-12)

    def test_fanout_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            y = T.add(T.mul(x, x), x)
        grads = backward(tape, T.sum_all(y) if y.size != 1 else y)
        np.testing.assert_allclose(grads[x], [7.0], atol=1e-12)

    def test_no_tape_records_nothing(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = T.mul(x, x)
        assert y.requires_grad is False

    def test_one_tape_open_at_a_time(self):
        """Re-entering an open tape, or opening another inside it, raises;
        the outer tape still exits, and afterwards no tape records."""
        for inner in ("same", "other"):
            outer = Tape()
            with pytest.raises(RuntimeError, match="already open"):
                with outer:
                    with outer if inner == "same" else Tape():
                        pass
            y = T.scale(Tensor([1.0], requires_grad=True), 2.0)
            assert not y.requires_grad and len(outer) == 0, inner

    def test_nested_tapes_restore(self):
        """A tape refused inside an open one records nothing and leaves the
        outer tape open: ops after the refusal still record onto it."""
        x = Tensor([1.0], requires_grad=True)
        inner = Tape()
        with Tape() as outer:
            with pytest.raises(RuntimeError, match="already open"):
                with inner:
                    T.scale(x, 2.0)
            T.scale(x, 3.0)
        assert len(inner) == 0 and len(outer) == 1
        assert not T.scale(x, 4.0).requires_grad

    def test_exit_out_of_order_is_refused(self):
        """Exiting a tape that is not the open one raises and changes
        nothing: the open tape still records, then exits cleanly."""
        outer, stray = Tape(), Tape()
        x = Tensor([1.0], requires_grad=True)
        with outer:
            with pytest.raises(RuntimeError, match="not the open one"):
                stray.__exit__(None, None, None)
            T.scale(x, 2.0)
        assert len(outer) == 1 and len(stray) == 0
        with pytest.raises(RuntimeError, match="not the open one"):
            outer.__exit__(None, None, None)
        assert not T.scale(x, 2.0).requires_grad

    def test_backward_needs_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(DimensionError):
            backward(tape, y)

    def test_grad_shapes_match_leaves(self):
        rng = np.random.default_rng(6)
        leaves = [Tensor(rng.normal(size=s), requires_grad=True)
                  for s in [(2, 3), (3, 4), (4,)]]
        with Tape() as tape:
            h = T.linear(leaves[0], leaves[1], leaves[2])
            loss = T.sum_all(T.tanh(h))
        grads = backward(tape, loss)
        for leaf in leaves:
            assert grads[leaf].shape == leaf.shape

    def test_constant_branch_gets_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([5.0])
        with Tape() as tape:
            y = T.mul(x, c)
        grads = backward(tape, y)
        assert c not in grads and x in grads

    def test_leaves_get_their_own_gradient_arrays(self):
        """`add` hands one array to both operands; each leaf still gets an
        array of its own, so writing into one leaves the other alone."""
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(T.add(a, b))
        grads = backward(tape, loss)
        assert grads[a] is not grads[b]
        grads[a] += 1.0
        np.testing.assert_array_equal(grads[b], [1.0, 1.0])

    def test_mul_vjp_skips_an_operand_without_grad(self):
        """The recorded vjp returns None for the operand that needs no
        gradient, in either position, and the product rule for the other."""
        x = Tensor([2.0, 3.0], requires_grad=True)
        c = Tensor([5.0, 7.0])
        with Tape() as tape:
            T.mul(x, c)
            T.mul(c, x)
        g = np.ones(2)
        (gx, gc), (gc2, gx2) = (node.vjp(g) for node in tape.nodes)
        assert gc is None and gc2 is None
        np.testing.assert_array_equal(gx, [5.0, 7.0])
        np.testing.assert_array_equal(gx2, [5.0, 7.0])

    def test_nonfinite_forward_raises(self):
        big = Tensor([1e308])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            T.mul(big, big)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_each_nonfinite_value_raises(self, bad):
        with pytest.raises(NonFiniteError, match="mul"):
            T.mul(Tensor([1.0, bad, 2.0]), Tensor([1.0, 1.0, 1.0]))

    def test_finite_values_with_overflowing_sum_pass(self):
        """The check reduces to one sum first; a sum that overflows while
        every value is finite must not raise."""
        with np.errstate(over="ignore"):
            out = T.mul(Tensor([1e308, 1e308]), Tensor([1.0, 1.0]))
        np.testing.assert_array_equal(out.data, [1e308, 1e308])


def lane_or_not(on):
    return Lane() if on else contextlib.nullcontext()


class TestLane:
    """Weight-side gradients run on the lane while it is open, and at once
    otherwise; neither the bits nor the error depends on which."""

    @pytest.mark.parametrize("on", [False, True], ids=["inline", "lane"])
    def test_gradients_are_bitwise_the_same(self, on):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 3, 8)), requires_grad=True)
        leaves = [Tensor(rng.normal(size=s), requires_grad=True)
                  for s in [(3, 8), (3,), (16, 8), (8,), (8, 8), (8,), (8, 8), (8,)]]
        w_re, w_im = (Tensor(rng.normal(size=(5, 5)), requires_grad=True) for _ in "ri")

        def grads():
            phi, beta, w1, b1, w2, b2, w, b = leaves
            with Tape() as tape:
                h = T.causal_depthwise_conv(x, phi, beta)
                h = T.channel_mix(h, w1, b1, w2, b2)
                h = T.linear(h, T.add(w, freq_projection(w_re, w_im)), b)
                loss = T.sum_all(T.tanh(h))
            return backward(tape, loss)

        want = grads()
        with lane_or_not(on):
            got = grads()
        for leaf in [x, w_re, w_im] + leaves:
            assert np.array_equal(got[leaf], want[leaf])

    @pytest.mark.parametrize("on", [False, True], ids=["inline", "lane"])
    def test_first_failure_in_walk_order_is_raised(self, on):
        """The walk reaches w2's weight gradient (infinite, deferred) before
        x's input gradient (infinite, computed at once): the error names w2."""
        x = Tensor([[1e-5]], requires_grad=True)
        w1 = Tensor([[1e160]], requires_grad=True, name="w1")
        w2 = Tensor([[1e-10]], requires_grad=True, name="w2")
        with np.errstate(all="ignore"), lane_or_not(on):
            with Tape() as tape:
                y = T.linear(T.linear(x, w1), w2)
                loss = T.sum_all(T.mul(y, Tensor([[1e160]])))
            with pytest.raises(NonFiniteError) as err:
                backward(tape, loss)
        assert str(err.value) == "backward[linear:w2]: non-finite values in output"

    @pytest.mark.parametrize("on", [False, True], ids=["inline", "lane"])
    def test_on_grad_gets_each_leaf_once_after_its_last_use(self, on):
        """`backward` hands `tape.on_grad` each used leaf once, after the
        vjp of every node that uses it has run, with the gradient it
        returns. `w_unused` gets none; `w2`, whose one use comes after the
        first use of the others, comes first."""
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True, name="x")
        w1 = Tensor(rng.normal(size=(4, 4)), requires_grad=True, name="w1")
        b1 = Tensor(rng.normal(size=(4,)), requires_grad=True, name="b1")
        w2 = Tensor(rng.normal(size=(4, 4)), requires_grad=True, name="w2")
        w_unused = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        log, handed = [], {}

        def on_grad(leaf, g):
            log.append(leaf.name)
            handed[leaf] = g

        with lane_or_not(on):
            with Tape(on_grad) as tape:
                h = T.tanh(T.linear(x, w1, b1))
                loss = T.sum_all(T.mul(T.linear(h, w2), T.linear(x, w1)))
            for at, node in enumerate(tape.nodes):
                node.vjp = (lambda vjp, at: lambda g: log.append(at) or vjp(g))(node.vjp, at)
            grads = backward(tape, loss)
            handed = {leaf: T._value(g) for leaf, g in handed.items()}
        assert [e for e in log if isinstance(e, str)] == ["w2", "x", "w1", "b1"]
        users = {leaf.name: [at for at, node in enumerate(tape.nodes) if leaf in node.parents]
                 for leaf in (x, w1, b1, w2)}
        for name, nodes in users.items():
            assert all(log.index(at) < log.index(name) for at in nodes), name
        assert handed.keys() == grads.keys()
        for leaf, g in grads.items():
            assert np.array_equal(handed[leaf], g)

    def test_weight_gradient_names_its_parameter(self):
        x = Tensor([[1e308], [1e308]])
        w = Tensor([[1e-300]], requires_grad=True, name="level0.no.ff.w1")
        with np.errstate(all="ignore"):
            with Tape() as tape:
                loss = T.sum_all(T.linear(x, w))
            with pytest.raises(NonFiniteError, match=r"^backward\[linear:level0\.no\.ff\.w1\]: "
                                                     "non-finite values in output$"):
                backward(tape, loss)

    def test_an_unstarted_computation_runs_on_the_reader(self):
        """A result the lane has not started is taken back and computed by
        the thread that reads it; the lane skips it."""
        gate, ran_on = threading.Event(), []
        with Lane():
            blocker = T._defer(gate.wait)
            task = T._defer(lambda: ran_on.append(threading.get_ident()) or np.ones(2))
            np.testing.assert_array_equal(task.result(), [1.0, 1.0])
            gate.set()
            blocker.result()
        assert ran_on == [threading.get_ident()]

    @pytest.mark.parametrize("mode", ["raise", "ignore"])
    def test_runs_under_the_submitters_error_state(self, mode):
        with np.errstate(all=mode), Lane(), warnings.catch_warnings():
            warnings.simplefilter("error")
            task = T._defer(np.multiply, np.array([1e308]), 10.0)
            if mode == "raise":
                with pytest.raises(FloatingPointError):
                    task.result()
            else:
                assert np.isinf(task.result()).all() and not task.finite

    def test_each_computation_runs_once_under_contention(self):
        """With a tiny switch interval and results read both before and
        after the lane reaches them, every computation runs exactly once
        and each result is its own."""
        runs, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Lane() as lane:
                tasks = [T._defer(lambda i=i: runs.append(i) or np.full(3, float(i)))
                         for i in range(2000)]
                early = [tasks[i].result()[0] for i in range(0, 2000, 7)]
                late = [task.result()[0] for task in tasks]
            assert not lane._thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert early == list(range(0, 2000, 7)) and late == list(range(2000))
        assert sorted(runs) == list(range(2000))

    def test_one_lane_at_a_time_and_no_thread_outlives_it(self):
        before = threading.active_count()
        with Lane():
            assert threading.active_count() == before + 1
            with pytest.raises(RuntimeError, match="already open"):
                with Lane():
                    pass
            assert T._lane is not None
        assert threading.active_count() == before and T._lane is None


class TestFiniteDifferenceOracle:
    def test_checker_catches_wrong_gradient(self):
        """The oracle itself must be able to fail: feed it a broken vjp."""
        def bad_op(t):
            # correct forward, broken backward (off by 2x)
            return T._record(np.tanh(t.data), (t,),
                             lambda g: (2.0 * g * (1 - np.tanh(t.data) ** 2),), "bad")
        with pytest.raises(AssertionError):
            check_gradients(bad_op, [np.random.default_rng(0).normal(size=(3,))])

    def test_fd_on_quadratic(self):
        g = fd_gradients(lambda a: float((a * a).sum()), [np.array([1.0, -2.0])])[0]
        np.testing.assert_allclose(g, [2.0, -4.0], atol=1e-8)

    def test_relative_error_scale(self):
        assert relative_error(np.array([1.0]), np.array([1.0])) == 0.0
