"""Training-stack tests: loss values, optimiser against a hand-rolled
reference, stopping semantics, loop determinism, checkpoint format."""

import numpy as np
import pytest

import lino.train

from helpers import (TextbookAdam, check_gradients, rewrite_dtype_code,
                     rewrite_model_header)

from lino.errors import CheckpointError, ConfigError, NonFiniteError
from lino.model import LiNoConfig, forward, init_params
from lino.seeding import stream
from lino.tensor import Tape, Tensor, backward
from lino.train import (AdamState, EarlyStopper, TrainConfig, adam_step,
                        load_checkpoint, mse_loss, save_checkpoint, train)


def tiny_config(**kw):
    base = dict(channels=1, lookback=8, horizon=4, dim=8, blocks=1, dropout=0.0)
    base.update(kw)
    return LiNoConfig(**base)


def trend_windows(n_points=60, lookback=8, horizon=4, slope=0.5):
    """Noiseless linear trend cut into forecasting windows, standardised."""
    series = slope * np.arange(n_points, dtype=np.float64)
    series = (series - series.mean()) / series.std()
    xs, ys = [], []
    for s in range(n_points - lookback - horizon + 1):
        xs.append(series[s:s + lookback][None, :])
        ys.append(series[s + lookback:s + lookback + horizon][None, :])
    return np.stack(xs), np.stack(ys)


class TestLoss:
    def test_worked_example(self):
        loss = mse_loss(Tensor([2.0, 5.0]), Tensor([1.0, 3.0]))
        assert loss.item() == 2.5

    def test_gradient_is_scaled_residual(self):
        pred = Tensor([2.0, 5.0], requires_grad=True)
        target = Tensor([1.0, 3.0])
        with Tape() as tape:
            loss = mse_loss(pred, target)
        grads = backward(tape, loss)
        np.testing.assert_allclose(grads[pred], [1.0, 2.0], atol=1e-15)  # 2*(p-t)/2

    def test_gradient_check(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(3, 4))
        check_gradients(lambda p: mse_loss(p, Tensor(t)), [rng.normal(size=(3, 4))])


class TestAdam:
    def _single(self, value):
        return {"w": Tensor(np.array([value]), requires_grad=True)}

    def test_zero_gradient_is_noop(self):
        params = self._single(1.5)
        adam_step(params, {"w": np.zeros(1)}, AdamState.fresh(params), lr=0.1)
        np.testing.assert_array_equal(params["w"].data, [1.5])

    def test_missing_gradient_holds_still(self):
        params = self._single(1.5)
        adam_step(params, {}, AdamState.fresh(params), lr=0.1)
        np.testing.assert_array_equal(params["w"].data, [1.5])

    def test_zero_lr_is_noop(self):
        params = self._single(2.0)
        adam_step(params, {"w": np.array([3.0])}, AdamState.fresh(params), lr=0.0)
        np.testing.assert_array_equal(params["w"].data, [2.0])

    def test_first_step_magnitude_is_lr(self):
        params = self._single(0.0)
        adam_step(params, {"w": np.array([7.0])}, AdamState.fresh(params), lr=1e-3)
        assert abs(abs(float(params["w"].data[0])) - 1e-3) < 1e-9

    def test_twenty_steps_match_reference(self):
        """Drive adam_step on a scalar quadratic and compare against an
        independently coded textbook Adam trajectory."""
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        grad_of = lambda w: 2.0 * (w - 3.0)

        w_ref, m, v = 10.0, 0.0, 0.0
        reference = []
        for t in range(1, 21):
            g = grad_of(w_ref)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w_ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            reference.append(w_ref)

        params = self._single(10.0)
        state = AdamState.fresh(params)
        mine = []
        for _ in range(20):
            g = grad_of(float(params["w"].data[0]))
            adam_step(params, {"w": np.array([g])}, state, lr=lr)
            mine.append(float(params["w"].data[0]))
        np.testing.assert_allclose(mine, reference, atol=1e-12)

    def test_nonfinite_gradient_named(self):
        params = self._single(0.0)
        with pytest.raises(NonFiniteError, match="w"):
            adam_step(params, {"w": np.array([np.nan])}, AdamState.fresh(params), lr=0.1)


def hand_made(sizes, seed=0):
    """Parameters named p0, p1, ... of the given shapes, at generic values."""
    rng = np.random.default_rng(seed)
    return {f"p{i}": Tensor(rng.normal(size=shape), requires_grad=True)
            for i, shape in enumerate(sizes)}


class TestFlatAdam:
    """`adam_step` over the flat buffers against `TextbookAdam`, bitwise."""

    def _run(self, params, steps=6, lr=1e-2, missing=(), seed=1):
        """`steps` updates from random gradients, with the names in
        `missing` given no gradient on odd steps; asserts every parameter
        equals the reference after every step."""
        rng = np.random.default_rng(seed)
        ref = TextbookAdam()
        expect = {k: t.data.copy() for k, t in params.items()}
        state = AdamState.fresh(params)
        for step in range(steps):
            grads = {k: 3.0 * rng.normal(size=t.shape)
                     for k, t in params.items()
                     if not (step % 2 and k in missing)}
            expect = ref.step(expect, grads, lr)
            adam_step(params, grads, state, lr)
            for k, t in params.items():
                assert t.data.dtype == expect[k].dtype
                np.testing.assert_array_equal(t.data, expect[k], err_msg=f"{k}, step {step}")
        assert state.step == steps

    def test_init_params_match_reference(self):
        params = init_params(tiny_config(blocks=2), stream(0, "init"))
        self._run(params)

    def test_parameters_straddling_blocks_match_reference(self, monkeypatch):
        # 33 values in blocks of 8: p1 and p3 straddle block edges, and the
        # last block is one value long
        monkeypatch.setattr(lino.train, "_ADAM_BLOCK", 8)
        self._run(hand_made([(5,), (3, 3), (3,), (4, 4)]), missing={"p1"})

    def test_buffer_shorter_than_a_block_matches_reference(self):
        params = hand_made([(2, 3), (1,), (7,)])
        assert sum(t.size for t in params.values()) < lino.train._ADAM_BLOCK
        self._run(params, missing={"p0", "p2"})

    def test_parameters_become_views_of_the_flat_buffer(self):
        params = hand_made([(2, 3), (4,)])
        before = {k: t.data.copy() for k, t in params.items()}
        state = AdamState.fresh(params)
        assert state.values.size == 10
        for k, t in params.items():
            assert np.shares_memory(t.data, state.values)
            np.testing.assert_array_equal(t.data, before[k])

    def test_nan_in_middle_parameter_named_before_anything_moves(self):
        params = hand_made([(3,), (2, 2), (5,)])
        before = {k: t.data.copy() for k, t in params.items()}
        state = AdamState.fresh(params)
        grads = {k: np.ones(t.shape) for k, t in params.items()}
        grads["p1"][1, 0] = np.nan
        with pytest.raises(NonFiniteError, match=r"non-finite gradient for p1$"):
            adam_step(params, grads, state, lr=0.1)
        assert state.step == 0
        for k, t in params.items():
            np.testing.assert_array_equal(t.data, before[k])

    def test_finite_gradients_whose_sum_overflows_step(self):
        params = hand_made([(2,), (2,)])
        ref = TextbookAdam()
        grads = {k: np.full(t.shape, 1e308) for k, t in params.items()}
        with np.errstate(over="ignore"):
            expect = ref.step({k: t.data.copy() for k, t in params.items()}, grads, 0.1)
            adam_step(params, grads, AdamState.fresh(params), lr=0.1)
        for k, t in params.items():
            np.testing.assert_array_equal(t.data, expect[k])


class TestEarlyStopper:
    def test_plateau_sequence(self):
        """Values 5,4,4,4,4,4,4,4: improvement at epoch 2, patience 6 burns
        through epochs 3-8, stop signalled after epoch 8."""
        stopper = EarlyStopper(patience=6)
        history = []
        for epoch, val in enumerate([5.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0], start=1):
            stopper.update(epoch, val)
            history.append((epoch, stopper.should_stop))
        assert history[-2] == (7, False)
        assert history[-1] == (8, True)
        assert stopper.best_epoch == 2

    def test_tolerance_blocks_tiny_gains(self):
        stopper = EarlyStopper(patience=2)
        assert stopper.update(1, 1.0)
        assert not stopper.update(2, 1.0 - 5e-8)   # within tolerance: no credit
        assert stopper.best_epoch == 1

    def test_improvement_resets_patience(self):
        stopper = EarlyStopper(patience=2)
        stopper.update(1, 3.0)
        stopper.update(2, 3.0)
        assert not stopper.should_stop
        stopper.update(3, 2.0)
        assert stopper.bad_epochs == 0


class TestTrainLoop:
    def test_overfits_linear_trend(self):
        x, y = trend_windows()
        cfg = tiny_config(ablation="no_no")
        tcfg = TrainConfig(lr=1e-2, batch_size=16, max_epochs=60, seed=0)
        result = train(x, y, x, y, cfg, tcfg)
        assert result.history[-1][1] < 0.05
        assert result.history[-1][1] < result.history[0][1]

    def test_deterministic_given_seed(self):
        x, y = trend_windows(40)
        cfg = tiny_config(dropout=0.2)
        tcfg = TrainConfig(lr=1e-3, batch_size=8, max_epochs=5, seed=3)
        a = train(x, y, x, y, cfg, tcfg)
        b = train(x, y, x, y, cfg, tcfg)
        assert a.history == b.history
        assert all(np.array_equal(a.params[k].data, b.params[k].data) for k in a.params)

    def test_seed_changes_trajectory(self):
        x, y = trend_windows(40)
        cfg = tiny_config()
        a = train(x, y, x, y, cfg, TrainConfig(lr=1e-3, batch_size=8, max_epochs=3, seed=1))
        b = train(x, y, x, y, cfg, TrainConfig(lr=1e-3, batch_size=8, max_epochs=3, seed=2))
        assert a.history != b.history

    def test_full_batch_loss_non_increasing_early(self):
        x, y = trend_windows(40)
        cfg = tiny_config(ablation="no_no")
        tcfg = TrainConfig(lr=1e-4, batch_size=1024, max_epochs=5, seed=0)
        result = train(x, y, x, y, cfg, tcfg)
        losses = [row[1] for row in result.history]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_restores_best_validation_params(self):
        x, y = trend_windows(50)
        cfg = tiny_config()
        tcfg = TrainConfig(lr=5e-3, batch_size=8, max_epochs=25, seed=4)
        result = train(x, y, x, y, cfg, tcfg)
        returned_val = float(
            ((forward(x, result.params, cfg).y.data - y) ** 2).mean())
        assert abs(returned_val - result.best_val) < 1e-12
        # best-so-far under strict-improvement-with-tolerance semantics: the
        # kept value can exceed the raw minimum by at most MIN_DELTA
        assert result.best_val <= min(row[2] for row in result.history) + EarlyStopper.MIN_DELTA

    def test_last_partial_batch_used(self):
        """Batch size 7 over 29 windows leaves a tail of 1; training must
        still consume every window (train mse accounts all of them)."""
        x, y = trend_windows(40)
        assert len(x) % 7 != 0
        cfg = tiny_config(ablation="no_no")
        result = train(x, y, x, y, cfg, TrainConfig(lr=1e-3, batch_size=7,
                                                    max_epochs=2, seed=0))
        assert len(result.history) == 2

    def test_noise_alpha_perturbs_training(self):
        x, y = trend_windows(40)
        cfg = tiny_config()
        base = TrainConfig(lr=1e-3, batch_size=8, max_epochs=3, seed=5)
        noisy = TrainConfig(lr=1e-3, batch_size=8, max_epochs=3, seed=5,
                            noise_alpha=0.5)
        a = train(x, y, x, y, cfg, base)
        b = train(x, y, x, y, cfg, noisy)
        assert a.history != b.history

    def test_a_gradient_does_not_outlive_its_step(self, monkeypatch):
        """The parameter tensors live across steps. One that the backward
        pass does not reach on a step gets no gradient on it, not the
        gradient of the step before."""
        x, y = trend_windows(40)
        seen, live = [], {}
        real_backward, real_adam = lino.train.backward, lino.train.adam_step

        def backward_skipping_on_even_steps(tape, loss):
            grads = real_backward(tape, loss)
            if len(seen) % 2:
                # as if the pass had not reached it
                del grads[live["params"]["embed.w"]]
            return grads

        def recording_adam(params, grads, state, lr):
            live["params"] = params
            seen.append("embed.w" in grads)
            real_adam(params, grads, state, lr)

        monkeypatch.setattr(lino.train, "backward", backward_skipping_on_even_steps)
        monkeypatch.setattr(lino.train, "adam_step", recording_adam)
        train(x, y, x, y, tiny_config(), TrainConfig(lr=1e-3, batch_size=8,
                                                     max_epochs=1, seed=0))
        assert seen == [True, False, True, False]

    def test_alpha_validated(self):
        with pytest.raises(ConfigError):
            TrainConfig(noise_alpha=1.5)

    def test_empty_split_rejected(self):
        x, y = trend_windows(40)
        with pytest.raises(ConfigError):
            train(x[:0], y[:0], x, y, tiny_config(), TrainConfig())


class TestCheckpoint:
    def _params(self, cfg, seed=0):
        return init_params(cfg, stream(seed, "init"))

    def test_roundtrip_bitwise(self, tmp_path):
        cfg = tiny_config(blocks=2)
        params = self._params(cfg, seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), cfg, params, extra={"dataset": "synth", "seed": 9})
        loaded_cfg, loaded, extra = load_checkpoint(str(path))
        assert loaded_cfg == cfg
        assert extra["dataset"] == "synth"
        assert list(loaded) == list(params)
        assert all(np.array_equal(loaded[k].data, params[k].data) for k in params)

    def test_resave_is_byte_identical(self, tmp_path):
        cfg = tiny_config()
        params = self._params(cfg)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(p1), cfg, params)
        _, loaded, _ = load_checkpoint(str(p1))
        save_checkpoint(str(p2), cfg, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_detected(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), cfg, self._params(cfg))
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(CheckpointError, match="integrity|magic"):
            load_checkpoint(str(path))

    def test_corruption_detected(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), cfg, self._params(cfg))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_parent_header_loads(self, tmp_path):
        """A header that still carries the five retired model keys, at the
        values earlier versions always wrote, loads to the same config and
        params."""
        cfg = tiny_config(blocks=2)
        params = self._params(cfg, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), cfg, params)
        rewrite_model_header(path, {"mlp_hidden": 0, "revin_eps": 1e-5,
                                    "fusion": "tanh", "integration": True,
                                    "dtype": "float64"})
        loaded_cfg, loaded, _ = load_checkpoint(str(path))
        assert loaded_cfg == cfg
        assert list(loaded) == list(params)
        assert all(np.array_equal(loaded[k].data, params[k].data) for k in params)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), cfg, self._params(cfg, seed=1))
        before = path.read_bytes()

        class HalfWrite:
            """File whose write stores half the bytes, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        real_open = open
        monkeypatch.setattr("lino.train.open", lambda *a, **k: HalfWrite(real_open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(str(path), cfg, self._params(cfg, seed=2))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_unknown_dtype_code_names_the_tensor(self, tmp_path):
        """Float64 (code 0) is the only tensor encoding; an entry with any
        other code is rejected by name, checksum notwithstanding."""
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), cfg, self._params(cfg))
        rewrite_dtype_code(path, "level0.li.phi", 1)
        with pytest.raises(CheckpointError, match="unknown dtype code 1 for level0.li.phi"):
            load_checkpoint(str(path))
