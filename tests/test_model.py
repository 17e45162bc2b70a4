"""Model tests: normalisation, block semantics, the residual recursion and
its exact identities, comparison variants, and gradient flow."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import check_gradients, randomized_params

import lino.tensor as T
from lino.data import SplitSpec, prepare
from lino.errors import ConfigError
from lino.evaluate import evaluate
from lino.model import (ABLATIONS, REVIN_EPS, VARIANTS, Forecaster, LiNoConfig,
                        build_projections, forward, forward_normalized,
                        init_params, li_block, no_block, no_projection,
                        revin_denormalize, revin_normalize)
from lino.seeding import stream
from lino.tensor import Tape, Tensor, backward


def tiny_config(**kw):
    base = dict(channels=2, lookback=8, horizon=4, dim=8, blocks=1, dropout=0.0)
    base.update(kw)
    return LiNoConfig(**base)


# ---------------------------------------------------------------------------
# instance normalisation
# ---------------------------------------------------------------------------

class TestRevin:
    def test_three_point_example(self):
        xn, (mu, sigma) = revin_normalize(np.array([[1.0, 2.0, 3.0]]))
        assert mu[0, 0] == 2.0
        # 1 / sqrt(2/3 + 1e-5)
        np.testing.assert_allclose(xn, [[-1.22473569, 0.0, 1.22473569]], atol=1e-6)

    def test_population_scale(self):
        _, (_, sigma) = revin_normalize(np.array([[0.0, 1.0, 2.0]]))
        np.testing.assert_allclose(sigma, np.sqrt(2.0 / 3.0 + REVIN_EPS), atol=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3, 16)) * 7 + 2
        xn, stats = revin_normalize(x)
        back = revin_denormalize(Tensor(xn), stats).data
        assert np.abs(back - x).max() < 1e-12

    @pytest.mark.parametrize("layout", ["c", "f", "reversed"])
    def test_matches_mean_and_var_bitwise(self, layout):
        """One centred array scaled in place gives the bits of the plain
        `x.mean` / `x.var` expression, for any memory layout."""
        x = np.random.default_rng(3).normal(size=(64, 7, 96)) * 5 + 2
        x = {"c": x, "f": np.asfortranarray(x), "reversed": x[..., ::-1]}[layout]
        xn, (mu, sigma) = revin_normalize(x)
        want_sigma = np.sqrt(x.var(axis=-1, keepdims=True) + REVIN_EPS)
        assert np.array_equal(mu, x.mean(axis=-1, keepdims=True))
        assert np.array_equal(sigma, want_sigma)
        assert np.array_equal(xn, (x - x.mean(axis=-1, keepdims=True)) / want_sigma)

    def test_constant_channel_guarded(self):
        x = np.full((1, 2, 8), 3.0)
        xn, _ = revin_normalize(x)
        np.testing.assert_array_equal(xn, 0.0)

    def test_unit_stats_denorm_is_identity(self):
        y = np.random.default_rng(2).normal(size=(2, 4))
        out = revin_denormalize(Tensor(y), (np.zeros((2, 1)), np.ones((2, 1)))).data
        np.testing.assert_array_equal(out, y)

    def test_denorm_differentiable(self):
        stats = (np.full((2, 1), 1.5), np.full((2, 1), 2.0))
        check_gradients(lambda t: revin_denormalize(t, stats),
                        [np.random.default_rng(3).normal(size=(2, 4))])


# ---------------------------------------------------------------------------
# configuration and initialisation
# ---------------------------------------------------------------------------

class TestConfig:
    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(dim=7)

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(variant="nbeats")

    def test_ablation_needs_primary_variant(self):
        with pytest.raises(ConfigError):
            tiny_config(variant="raw", ablation="no_li")

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            tiny_config(dropout=1.0)


class TestInit:
    def test_conv_kernels_start_at_zero(self):
        params = init_params(tiny_config(blocks=2), stream(0, "init"))
        assert not params["level0.li.phi"].data.any()
        assert not params["level1.li.beta"].data.any()

    def test_glorot_bound(self):
        cfg = LiNoConfig(channels=7, lookback=96, horizon=96, dim=256)
        params = init_params(cfg, stream(0, "init"))
        w = params["embed.w"].data
        bound = np.sqrt(6.0 / (96 + 256))
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.5 * bound  # actually filled, not zeros

    def test_freq_weights_near_identity(self):
        params = init_params(tiny_config(), stream(5, "init"))
        w_re = params["level0.no.freq.w_re"].data
        w_im = params["level0.no.freq.w_im"].data
        b = w_re.shape[0]
        assert np.abs(np.diag(w_re) - 1.0).max() < 0.05
        assert np.abs(w_re - np.eye(b)).max() < 0.05
        assert np.abs(w_im).max() < 0.05

    def test_seed_determinism(self):
        cfg = tiny_config()
        a = init_params(cfg, stream(3, "init"))
        b = init_params(cfg, stream(3, "init"))
        c = init_params(cfg, stream(4, "init"))
        assert all(np.array_equal(a[k].data, b[k].data) for k in a)
        assert any(not np.array_equal(a[k].data, c[k].data) for k in a)

    def test_name_inventory_scales_with_blocks(self):
        n1 = len(init_params(tiny_config(blocks=1), stream(0, "init")))
        n3 = len(init_params(tiny_config(blocks=3), stream(0, "init")))
        assert n3 - n1 == 2 * (n1 - 2)  # embed pair constant, levels repeat


# ---------------------------------------------------------------------------
# linear block
# ---------------------------------------------------------------------------

class TestLiBlock:
    def test_zero_kernel_zero_pattern(self):
        cfg = tiny_config()
        params = init_params(cfg, stream(0, "init"))
        h = Tensor(np.random.default_rng(0).normal(size=(3, 2, 8)))
        out = li_block(h, params, 0, cfg)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_moving_average_kernel_matches_oracle(self):
        """Uniform 1/4 kernel over the last four positions, exact match."""
        rng = np.random.default_rng(8)
        c, d, k = 3, 8, 4
        h = rng.normal(size=(c, d))
        phi = np.zeros((c, d))
        phi[:, :k] = 1.0 / k
        params = {"level0.li.phi": Tensor(phi), "level0.li.beta": Tensor(np.zeros(c))}
        out = li_block(Tensor(h), params, 0, tiny_config(channels=c)).data

        expected = np.zeros_like(h)
        for ci in range(c):
            for di in range(d):
                acc = 0.0
                for j in range(min(k, di + 1)):
                    acc += (1.0 / k) * h[ci, di - j]
                expected[ci, di] = acc
        assert np.array_equal(out, expected)

    def test_eval_mode_ignores_dropout_probability(self):
        rng = np.random.default_rng(1)
        h = Tensor(rng.normal(size=(2, 2, 8)))
        params = {"level0.li.phi": Tensor(rng.normal(size=(2, 8))),
                  "level0.li.beta": Tensor(rng.normal(size=(2,)))}
        a = li_block(h, params, 0, tiny_config()).data
        b = li_block(h, params, 0, tiny_config(dropout=0.9)).data
        np.testing.assert_array_equal(a, b)

    def test_train_mode_dropout_masks(self):
        h = Tensor(np.ones((4, 2, 8)))
        params = {"level0.li.phi": Tensor(np.ones((2, 8))), "level0.li.beta": Tensor(np.zeros(2))}
        out = li_block(h, params, 0, tiny_config(dropout=0.5),
                       np.random.default_rng(0)).data
        assert (out == 0.0).any()


# ---------------------------------------------------------------------------
# nonlinear block
# ---------------------------------------------------------------------------

def run_no_block(r, p, cfg):
    """Level 0's nonlinear block with its own fused projection."""
    return no_block(r, p, 0, no_projection(p, cfg, 0), cfg)


class TestNoBlock:
    def test_zero_remainder_zero_output(self):
        """At init all biases are zero, so zero in means zero out."""
        cfg = tiny_config()
        p = init_params(cfg, stream(0, "init"))
        r = Tensor(np.zeros((3, 2, 8)))
        out = run_no_block(r, p, cfg)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_single_channel_pooling_degenerates(self):
        """With one channel the softmax weight is 1 and the pooled summary
        equals the channel's own features; a mixing MLP wired to subtract
        the two concatenated halves therefore sees exactly zero."""
        cfg = tiny_config(channels=1)
        d = cfg.dim
        p = randomized_params(cfg, seed=4)
        p["level0.no.mix.w1"] = Tensor(np.concatenate([np.eye(d), -np.eye(d)], axis=0))
        p["level0.no.mix.b1"] = Tensor(np.zeros(d))
        p["level0.no.mix.w2"] = Tensor(np.random.default_rng(0).normal(size=(d, d)))
        p["level0.no.mix.b2"] = Tensor(np.zeros(d))
        r = Tensor(np.random.default_rng(1).normal(size=(2, 1, 8)))
        with_mix = run_no_block(r, p, cfg).data
        without = run_no_block(r, p, replace(cfg, ablation="no_cd")).data
        np.testing.assert_array_equal(with_mix, without)

    def test_te_fe_flags_cut_dependencies(self):
        cfg = tiny_config()
        p = randomized_params(cfg, seed=2)
        r = Tensor(np.random.default_rng(3).normal(size=(2, 2, 8)))
        no_te, no_fe = replace(cfg, ablation="no_te"), replace(cfg, ablation="no_fe")
        base_no_te = run_no_block(r, p, no_te).data
        p2 = dict(p)
        p2["level0.no.time.w"] = Tensor(np.random.default_rng(9).normal(size=(8, 8)))
        p2["level0.no.time.b"] = Tensor(np.random.default_rng(11).normal(size=8))
        np.testing.assert_array_equal(base_no_te, run_no_block(r, p2, no_te).data)
        base_no_fe = run_no_block(r, p, no_fe).data
        p3 = dict(p)
        p3["level0.no.freq.w_re"] = Tensor(np.random.default_rng(10).normal(size=(5, 5)))
        np.testing.assert_array_equal(base_no_fe, run_no_block(r, p3, no_fe).data)

    def test_gradients_through_block(self):
        cfg = tiny_config()
        p = randomized_params(cfg, seed=5)
        names = sorted(n for n in p if n.startswith("level0.no."))
        arrays = [p[n].data for n in names]

        def op(r, *weights):
            return run_no_block(r, dict(zip(names, weights)), cfg)

        check_gradients(op, [np.random.default_rng(6).normal(size=(2, 8))] + arrays,
                        tol=1e-3)

    @pytest.mark.parametrize("ablation, per_level", [("none", 1), ("no_cd", 0)])
    def test_one_channel_mix_node_per_level(self, ablation, per_level):
        """A train-mode forward records the mixing as one `channel_mix`
        node per level, none under `no_cd`, and no generic softmax, sum,
        concat or repeat node."""
        cfg = tiny_config(blocks=2, ablation=ablation)
        params = init_params(cfg, stream(0, "init"))
        x = np.random.default_rng(0).normal(size=(3, 2, 8))
        with Tape() as tape:
            forward(x, params, cfg, mode="train")
        ops = [node.op for node in tape.nodes]
        assert ops.count("channel_mix") == per_level * cfg.blocks
        assert not {"softmax_axis", "sum_axis", "concat", "repeat_axis"} & set(ops)


class TestFusedProjection:
    """The one D x D operator per level against the two projections it
    replaces, summed as separate paths."""

    @pytest.mark.parametrize("ablation", ["none", "no_te", "no_fe"])
    def test_matches_time_plus_frequency_projection(self, ablation):
        cfg = LiNoConfig(channels=7, lookback=32, horizon=16, dim=64, blocks=1,
                         ablation=ablation)
        p = randomized_params(cfg, seed=12)
        r = Tensor(np.random.default_rng(13).normal(size=(5, 7, 64)))
        parts = []
        if ablation != "no_te":
            parts.append(T.linear(r, p["level0.no.time.w"], p["level0.no.time.b"]).data)
        if ablation != "no_fe":
            # numpy.fft: transform, mix bins, transform back
            w = p["level0.no.freq.w_re"].data + 1j * p["level0.no.freq.w_im"].data
            parts.append(np.fft.irfft(np.fft.rfft(r.data, axis=-1) @ w.T, n=64, axis=-1))
        want = sum(parts)
        got = T.linear(r, *no_projection(p, cfg, 0)).data
        gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert gap <= 1e-12, f"relative gap {gap:.1e}"

    def test_one_spectral_node_per_level_on_its_weights(self):
        cfg = tiny_config(blocks=3, dropout=0.2)
        params = init_params(cfg, stream(0, "init"))
        x = np.random.default_rng(5).normal(size=(3, 2, 8))
        with Tape() as tape:
            forward(x, params, cfg, mode="train", rng=stream(0, "dropout"))
        parents = [node.parents for node in tape.nodes if node.op == "freq_projection"]
        assert parents == [(params[f"level{i}.no.freq.w_re"], params[f"level{i}.no.freq.w_im"])
                           for i in range(3)]

    def test_one_operator_per_level_and_none_without_nonlinear_blocks(self):
        cfg = tiny_config(blocks=3)
        params = randomized_params(cfg, seed=1)
        assert [w.shape for w, _ in build_projections(params, cfg)] == [(8, 8)] * 3
        assert build_projections(params, replace(cfg, ablation="no_no")) == ()


# ---------------------------------------------------------------------------
# primary recursion
# ---------------------------------------------------------------------------

class TestPrimaryForward:
    def test_output_shapes(self):
        cfg = tiny_config(blocks=2)
        params = init_params(cfg, stream(0, "init"))
        x = np.random.default_rng(0).normal(size=(5, 2, 8))
        res = forward(x, params, cfg)
        assert res.y.shape == (5, 2, 4)
        assert res.y_norm.shape == (5, 2, 4)
        assert len(res.trace.patterns) == 2

    @pytest.mark.parametrize("blocks", [1, 2, 3, 4])
    def test_telescoping_completeness(self, blocks):
        """Embedded input == sum of all extracted patterns + remainder."""
        cfg = tiny_config(blocks=blocks)
        params = randomized_params(cfg, seed=blocks)
        x = np.random.default_rng(blocks).normal(size=(4, 2, 8))
        res = forward(x, params, cfg)
        total = np.zeros_like(res.trace.embedded.data)
        for li_pat, no_pat in res.trace.patterns:
            total = total + li_pat.data + no_pat.data
        total = total + res.trace.remainder.data
        assert np.abs(res.trace.embedded.data - total).max() < 1e-9

    def test_prediction_identity_bitwise(self):
        cfg = tiny_config(blocks=3)
        params = randomized_params(cfg, seed=9)
        x = np.random.default_rng(9).normal(size=(2, 2, 8))
        res = forward(x, params, cfg)
        total = res.trace.heads[0][1].data.copy()
        for _, head in res.trace.heads[1:]:
            total = total + head.data
        assert np.array_equal(res.y_norm.data, total)

    @pytest.mark.parametrize("variant, ablation",
                             [(v, "none") for v in VARIANTS]
                             + [("lino", a) for a in ABLATIONS if a != "none"])
    def test_untraced_pass_keeps_no_trace_and_the_same_bits(self, variant, ablation):
        cfg = tiny_config(blocks=2, variant=variant, ablation=ablation)
        params = randomized_params(cfg, seed=11)
        x = np.random.default_rng(11).normal(size=(3, 2, 8))
        untraced = forward(x, params, cfg, trace=False)
        assert untraced.trace is None
        assert np.array_equal(untraced.y.data, forward(x, params, cfg).y.data)

    def test_constant_input_embeds_to_bias(self):
        cfg = tiny_config()
        params = randomized_params(cfg, seed=3)
        x = np.full((1, 2, 8), 5.0)
        res = forward(x, params, cfg)
        expected = np.broadcast_to(params["embed.b"].data, (1, 2, 8))
        np.testing.assert_array_equal(res.trace.embedded.data, expected)

    def test_deterministic_eval(self):
        cfg = tiny_config(blocks=2)
        params = randomized_params(cfg, seed=1)
        x = np.random.default_rng(1).normal(size=(3, 2, 8))
        a = forward(x, params, cfg).y.data
        b = forward(x, params, cfg).y.data
        assert np.array_equal(a, b)

    def test_train_dropout_perturbs_and_is_seeded(self):
        cfg = tiny_config(dropout=0.5)
        params = randomized_params(cfg, seed=2)
        x = np.random.default_rng(2).normal(size=(3, 2, 8))
        eval_y = forward(x, params, cfg).y.data
        t1 = forward(x, params, cfg, mode="train", rng=stream(7, "dropout")).y.data
        t2 = forward(x, params, cfg, mode="train", rng=stream(7, "dropout")).y.data
        assert not np.array_equal(eval_y, t1)
        assert np.array_equal(t1, t2)

    def test_mode_other_than_train_or_eval_raises(self):
        cfg = tiny_config()
        x = np.random.default_rng(2).normal(size=(3, 2, 8))
        with pytest.raises(ValueError, match="mode must be 'train' or 'eval'"):
            forward(x, randomized_params(cfg, seed=2), cfg, mode="test")

    def test_train_dropout_without_rng_raises(self):
        """Dropout > 0 in train mode needs an rng; without dropout, or in
        eval mode, none is needed."""
        cfg = tiny_config(dropout=0.5)
        params = randomized_params(cfg, seed=2)
        x = np.random.default_rng(2).normal(size=(3, 2, 8))
        with pytest.raises(ValueError, match="needs an rng"):
            forward(x, params, cfg, mode="train")
        forward(x, params, tiny_config(), mode="train")
        forward(x, params, cfg, mode="eval")

    def test_no_li_removes_kernel_dependency(self):
        cfg = tiny_config(ablation="no_li")
        params = randomized_params(cfg, seed=4)
        x = np.random.default_rng(4).normal(size=(2, 2, 8))
        base = forward(x, params, cfg).y.data
        params2 = dict(params)
        params2["level0.li.phi"] = Tensor(np.ones((2, 8)))
        assert np.array_equal(base, forward(x, params2, cfg).y.data)
        trace = forward(x, params, cfg).trace
        assert [label for label, _ in trace.heads] == ["level0.no"]
        np.testing.assert_array_equal(trace.patterns[0][0].data, 0.0)

    def test_no_no_removes_nonlinear_path(self):
        cfg = tiny_config(ablation="no_no")
        params = randomized_params(cfg, seed=5)
        x = np.random.default_rng(5).normal(size=(2, 2, 8))
        base = forward(x, params, cfg).y.data
        params2 = dict(params)
        params2["level0.no.time.w"] = Tensor(np.eye(8) * 3.0)
        assert np.array_equal(base, forward(x, params2, cfg).y.data)

    def test_no_cd_channel_permutation_equivariance(self):
        """With mixing ablated and channel-uniform depthwise kernels, the
        model commutes with channel permutations bitwise."""
        cfg = LiNoConfig(channels=4, lookback=8, horizon=4, dim=8, blocks=2,
                         ablation="no_cd")
        params = randomized_params(cfg, seed=6)
        rng = np.random.default_rng(6)
        for i in range(cfg.blocks):
            row = rng.normal(size=(1, cfg.dim)) * 0.3
            params[f"level{i}.li.phi"] = Tensor(np.tile(row, (cfg.channels, 1)))
            params[f"level{i}.li.beta"] = Tensor(np.full(cfg.channels, 0.2))
        x = rng.normal(size=(3, 4, 8))
        perm = np.array([2, 0, 3, 1])
        y = forward(x, params, cfg).y.data
        y_perm = forward(x[:, perm, :], params, cfg).y.data
        assert np.array_equal(y_perm, y[:, perm, :])

    def test_gradient_reaches_every_parameter(self):
        cfg = tiny_config(blocks=2)
        params = randomized_params(cfg, seed=8)
        x = np.random.default_rng(8).normal(size=(2, 2, 8))
        target = np.random.default_rng(9).normal(size=(2, 2, 4))
        with Tape() as tape:
            res = forward(x, params, cfg, mode="train", rng=stream(0, "dropout"))
            diff = T.sub(res.y, Tensor(target))
            loss = T.mean_all(T.mul(diff, diff))
        grads = backward(tape, loss)
        missing = [n for n, t in params.items() if t not in grads]
        assert missing == [], f"no gradient for {missing}"

    def test_spot_gradient_check_end_to_end(self):
        cfg = tiny_config()
        params = randomized_params(cfg, seed=10)
        x = np.random.default_rng(10).normal(size=(2, 2, 8))
        probe_names = ["embed.w", "level0.li.phi", "level0.no.freq.w_re",
                       "level0.no_head.b"]

        def op(*arrays):
            p = dict(params)
            for n, a in zip(probe_names, arrays):
                p[n] = a if isinstance(a, Tensor) else Tensor(a)
            return forward(x, p, cfg).y

        check_gradients(op, [params[n].data for n in probe_names], tol=1e-3)


# ---------------------------------------------------------------------------
# comparison variants
# ---------------------------------------------------------------------------

class TestVariants:
    def test_mu_single_subtraction_telescopes(self):
        cfg = tiny_config(blocks=3, variant="mu")
        params = randomized_params(cfg, seed=1)
        x = np.random.default_rng(1).normal(size=(2, 2, 8))
        res = forward(x, params, cfg)
        total = np.zeros_like(res.trace.embedded.data)
        for _, no_pat in res.trace.patterns:
            total = total + no_pat.data
        remainder = res.trace.embedded.data - total
        assert np.abs(remainder - res.trace.remainder.data).max() < 1e-9

    def test_raw_single_head_on_final_features(self):
        cfg = tiny_config(blocks=2, variant="raw")
        params = randomized_params(cfg, seed=2)
        x = np.random.default_rng(2).normal(size=(2, 2, 8))
        res = forward(x, params, cfg)
        final = res.trace.patterns[-1][1].data
        w = params["level1.no_head.w"].data
        b = params["level1.no_head.b"].data
        np.testing.assert_allclose(res.y_norm.data, final @ w + b, atol=1e-12)
        assert [label for label, _ in res.trace.heads] == ["head"]

    def test_ln_heads_every_block_no_subtraction(self):
        cfg = tiny_config(blocks=2, variant="ln")
        params = randomized_params(cfg, seed=3)
        x = np.random.default_rng(3).normal(size=(2, 2, 8))
        res = forward(x, params, cfg)
        assert [label for label, _ in res.trace.heads] == [
            "level0.li", "level0.no", "level1.li", "level1.no"]
        # chained flow: level 1 consumed level 0's nonlinear pattern, and
        # nothing was ever subtracted from the running features
        assert np.array_equal(res.trace.remainder.data,
                              res.trace.patterns[-1][1].data)

    def test_ln_meets_primary_at_zero_linear_pattern_and_zero_embedding(self):
        """With zero conv kernels both recursions feed the nonlinear block
        the same features only when the embedded input is itself zero
        (constant input, zero embed bias). There they coincide; on a
        generic input they do not."""
        base = dict(channels=2, lookback=8, horizon=4, dim=8, blocks=1)
        cfg_lino = LiNoConfig(**base)
        cfg_ln = LiNoConfig(**base, variant="ln")
        params = randomized_params(cfg_lino, seed=4,
                                   keep=("embed.b", "level0.li.phi", "level0.li.beta"))
        const = np.full((2, 2, 8), 3.5)
        y_lino = forward(const, params, cfg_lino).y.data
        y_ln = forward(const, params, cfg_ln).y.data
        assert np.array_equal(y_lino, y_ln)
        assert np.abs(y_lino).max() > 0  # non-vacuous: heads have biases
        generic = np.random.default_rng(4).normal(size=(2, 2, 8))
        assert not np.array_equal(forward(generic, params, cfg_lino).y.data,
                                  forward(generic, params, cfg_ln).y.data)

    @pytest.mark.parametrize("variant", ["mu", "raw", "ln"])
    def test_variant_shapes_and_determinism(self, variant):
        cfg = tiny_config(blocks=2, variant=variant)
        params = randomized_params(cfg, seed=5)
        x = np.random.default_rng(5).normal(size=(3, 2, 8))
        a = forward(x, params, cfg).y.data
        b = forward(x, params, cfg).y.data
        assert a.shape == (3, 2, 4)
        assert np.array_equal(a, b)


class TestForecaster:
    def test_predict_shapes_and_normalized_path(self):
        cfg = tiny_config(blocks=2)
        params = randomized_params(cfg, seed=0)
        model = Forecaster(params, cfg)
        x = np.random.default_rng(0).normal(size=(4, 2, 8))
        assert model.predict(x).shape == (4, 2, 4)
        xn, stats = revin_normalize(x)
        yn = forward_normalized(Tensor(xn), params, cfg)[0].data
        manual = yn * stats[1] + stats[0]
        np.testing.assert_allclose(model.predict(x), manual, atol=1e-12)

    @pytest.mark.parametrize("blocks", [2, 4])
    def test_batch_predict_peak_stays_a_few_activations_at_any_depth(self, blocks):
        """`predict` keeps no trace and `no_block` frees each stage once
        the next exists, so a batch's traced peak stays under 8
        activations of [batch, channels, dim] however many levels run. A
        pass that kept every pattern until its end peaked at 16 (2 blocks)
        and 23 (4 blocks) here."""
        cfg = LiNoConfig(channels=4, lookback=96, horizon=96, dim=128, blocks=blocks)
        model = Forecaster(randomized_params(cfg, seed=3), cfg)
        x = np.random.default_rng(3).normal(size=(128, 4, 96))
        model.predict(x)
        tracemalloc.start()
        try:
            model.predict(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        activations = peak / (128 * 4 * 128 * 8)
        assert activations < 8, f"peak {activations:.2f} activations"

    def test_float32_windows_forecast_in_float64(self):
        """Windows of another dtype are normalised and forecast in float64:
        the forecast is bitwise that of the same windows given as float64."""
        cfg = tiny_config(blocks=2)
        model = Forecaster(randomized_params(cfg, seed=4), cfg)
        x = np.random.default_rng(4).normal(size=(3, 2, 8)).astype(np.float32)
        y = model.predict(x)
        assert y.dtype == np.float64
        assert np.array_equal(y, model.predict(x.astype(np.float64)))

    def test_strided_windows_forecast_as_their_contiguous_copy(self):
        """Prepared windows are strided views of the series; `forward`
        copies the batch it is given into one contiguous array, so a view
        and its contiguous copy forecast the same bits, and score the same
        per-window errors through `evaluate`, short last batch included."""
        cfg = LiNoConfig(channels=3, lookback=24, horizon=8, dim=16, blocks=2)
        model = Forecaster(randomized_params(cfg, seed=3), cfg)
        values = np.random.default_rng(3).normal(size=(900, 3))
        x, y = prepare(values, SplitSpec(ratios=(0.5, 0.1, 0.4)), 24, 8).test
        batch = x[5:65:3]
        assert not batch.flags.c_contiguous
        assert np.array_equal(model.predict(batch),
                              model.predict(np.ascontiguousarray(batch)))
        assert not y.flags.c_contiguous and len(y) % 64
        views = evaluate(model, x, y, batch_size=64)
        copies = evaluate(model, np.ascontiguousarray(x), np.ascontiguousarray(y),
                          batch_size=64)
        assert views.per_window_mse.tobytes() == copies.per_window_mse.tobytes()
        assert views.per_window_mae.tobytes() == copies.per_window_mae.tobytes()

    def test_input_shape_validated(self):
        cfg = tiny_config()
        params = init_params(cfg, stream(0, "init"))
        with pytest.raises(ConfigError):
            Forecaster(params, cfg).predict(np.zeros((2, 3, 8)))

    @pytest.mark.parametrize("variant, ablation",
                             [(v, "none") for v in VARIANTS]
                             + [("lino", a) for a in ABLATIONS if a != "none"])
    def test_predict_is_forward_bitwise(self, variant, ablation):
        """The projections built at construction are the ones `forward`
        builds per call, bit for bit."""
        cfg = tiny_config(blocks=2, variant=variant, ablation=ablation)
        params = randomized_params(cfg, seed=7)
        x = np.random.default_rng(7).normal(size=(5, 2, 8))
        assert np.array_equal(Forecaster(params, cfg).predict(x),
                              forward(x, params, cfg).y.data)

    def test_batch_layout_changes_forecasts_only_by_rounding(self):
        """The matmuls flatten the leading axes into one GEMM, so a window's
        forecast may differ in the last bits with its batch-mates, but only
        by rounding: a reshape that mixed rows would move whole values. An
        odd batch exercises the GEMM remainder blocks. The gap is relative
        to the window's largest value, as in the benchmark's check."""
        cfg = LiNoConfig(channels=7, lookback=32, horizon=16, dim=64, blocks=2)
        model = Forecaster(randomized_params(cfg, seed=5), cfg)
        x = np.random.default_rng(6).normal(size=(37, 7, 32))
        batched = model.predict(x)
        assert np.array_equal(model.predict(x), batched)
        for i in range(len(x)):
            alone = model.predict(x[i:i + 1])[0]
            gap = np.max(np.abs(alone - batched[i])) / np.max(np.abs(batched[i]))
            assert gap <= 1e-12, f"window {i}: relative gap {gap:.1e}"
