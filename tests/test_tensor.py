"""Engine tests: frozen numeric examples, exact oracles, gradient checks.

The brute-force convolution reference and the finite-difference checker
are the oracles here; engine code is never trusted to test itself.
"""

import zlib

import numpy as np
import pytest

from helpers import check_gradients, fd_gradients, relative_error

import lino.tensor as T
from lino.errors import DimensionError, NonFiniteError
from lino.tensor import Tape, Tensor, backward


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
    def _case(name):
        """(h, phi, beta) for one forward case."""
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        if name == "blocks":
            # two full column blocks plus a remainder of one channel row
            c, d = 3, 4
            n = 2 * T._conv_block_width(c, d) // c + 1
            h = rng.normal(size=(n, c, d))
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
        if name == "window_2d":
            # channel 0: input -0.0, kernel positive, bias -0.0. Every term
            # is -0.0, so the loop's sum, started at +0.0, is +0.0; a sum
            # started from its first term would end at -0.0
            h[0] = -0.0
            phi[0] = np.abs(phi[0])
            beta[0] = -0.0
        return h, phi, beta

    @pytest.mark.parametrize("name", ["blocks", "d256", "batch1", "transposed",
                                      "window_transposed", "window_2d",
                                      "widest_toeplitz", "narrowest_blocked"])
    def test_blocked_forward_matches_reference_bitwise(self, name, monkeypatch):
        """Both forward forms, the Toeplitz form (at most
        `_CONV_TOEPLITZ_COLS` columns) and the blocked loop, agree with the
        triple loop exactly, sign of zero included."""
        h, phi, beta = self._case(name)
        wide = ("blocks", "transposed", "narrowest_blocked")
        form = "_conv_blocked" if name in wide else "_conv_toeplitz"
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
# softmax / layer norm / dropout
# ---------------------------------------------------------------------------

class TestSoftmax:
    def test_two_point_example(self):
        y = T.softmax_axis(Tensor([0.0, np.log(2.0)]), axis=0).data
        np.testing.assert_allclose(y, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 5, 6)) * 30.0
        for axis in (0, 1, 2):
            s = T.softmax_axis(Tensor(x), axis=axis).data
            np.testing.assert_allclose(s.sum(axis=axis), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        x = np.array([1.0, 2.0, 3.0])
        a = T.softmax_axis(Tensor(x), axis=0).data
        b = T.softmax_axis(Tensor(x + 100.0), axis=0).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_extreme_inputs_stay_finite(self):
        x = np.array([0.0, 1000.0, -1000.0])
        s = T.softmax_axis(Tensor(x), axis=0).data
        assert np.all(np.isfinite(s))

    def test_gradients(self):
        rng = np.random.default_rng(21)
        check_gradients(lambda t: T.softmax_axis(t, axis=-2), [rng.normal(size=(3, 4))])


class TestLayerNorm:
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
        y = T.dropout(x, 0.5, "eval")
        assert y is x

    def test_p_zero_train_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert T.dropout(x, 0.0, "train") is x

    def test_keep_rate(self):
        rng = np.random.default_rng(123)
        x = Tensor(np.ones(100_000))
        y = T.dropout(x, 0.5, "train", rng).data
        keep = np.count_nonzero(y) / y.size
        assert 0.495 <= keep <= 0.505

    def test_kept_values_scaled(self):
        rng = np.random.default_rng(42)
        y = T.dropout(Tensor(np.ones(1000)), 0.2, "train", rng).data
        kept = y[y != 0.0]
        np.testing.assert_allclose(kept, 1.0 / 0.8, atol=1e-15)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            T.dropout(Tensor([1.0]), 1.0, "train", np.random.default_rng(0))

    def test_mask_reused_in_backward(self):
        rng = np.random.default_rng(77)
        x = Tensor(np.ones(64), requires_grad=True)
        with Tape() as tape:
            y = T.dropout(x, 0.5, "train", rng)
            loss = T.sum_all(y)
        grads = backward(tape, loss)
        np.testing.assert_array_equal((grads[x] != 0), (y.data != 0))


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

class TestShapeOps:
    def test_sum_axis_values(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        np.testing.assert_array_equal(T.sum_axis(x, 0).data, [3.0, 5.0, 7.0])
        np.testing.assert_array_equal(T.sum_axis(x, 1, keepdims=True).data, [[3.0], [12.0]])

    def test_mean_all(self):
        x = Tensor([[1.0, 2.0], [3.0, 6.0]])
        assert T.mean_all(x).item() == 3.0

    def test_concat_values(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 5))
        cat = T.concat([Tensor(a), Tensor(b)], axis=1).data
        np.testing.assert_array_equal(cat[:, :3], a)
        np.testing.assert_array_equal(cat[:, 3:], b)

    def test_repeat_axis(self):
        x = Tensor([[1.0], [2.0]])
        np.testing.assert_array_equal(
            T.repeat_axis(x, 1, 3).data, [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        with pytest.raises(DimensionError):
            T.repeat_axis(x, 0, 2)

    @pytest.mark.parametrize("op,shape", [
        ("sum0", (3, 4)), ("sumk", (3, 4)), ("repeat", (3, 1)),
        ("sum_all", (3, 4)), ("concat", (2, 3)),
    ])
    def test_gradients(self, op, shape):
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        x = rng.normal(size=shape)
        builders = {
            "sum0": lambda t: T.sum_axis(t, 0),
            "sumk": lambda t: T.sum_axis(t, 1, keepdims=True),
            "sum_all": T.sum_all,
            "concat": lambda t: T.concat([t, T.scale(t, 2.0)], axis=0),
            "repeat": lambda t: T.repeat_axis(t, 1, 4),
        }
        check_gradients(builders[op], [x])


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

    def test_nested_tapes_restore(self):
        with Tape() as outer:
            x = Tensor([1.0], requires_grad=True)
            with Tape() as inner:
                T.scale(x, 2.0)
            T.scale(x, 3.0)
        assert len(inner) == 1 and len(outer) == 1

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
