"""Metric, report, probing, and decomposition tests.

Probing gets the strongest oracles here: an affine map reconstructed from
unit vectors must reproduce known coefficients exactly, and the linear
pattern block's probed matrix must show its banded causal structure entry
by entry.
"""

import multiprocessing
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from helpers import force_workers, randomized_params

from lino.data import SplitSpec, SynthSpec, prepare, synth_generate
from lino.errors import (ConfigError, DataError, DimensionError, NonFiniteError,
                         WorkerDiedError)
from lino.evaluate import (EvalReport, ReportRow, decomposition_table,
                           evaluate, export_decomposition, li_block_map,
                           model_map, no_block_map, probe_affine)
from lino.model import Forecaster, LiNoConfig, init_params
from lino.seeding import stream
from lino.train import TrainConfig, train


def last_value_predictor(x):
    """Deterministic stand-in model: repeat each window's last reading."""
    return np.repeat(x[..., -1:], 4, axis=-1)


class TestEvaluate:
    def _windows(self, n=40, c=2, t=8, f=4, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, c, t)), rng.normal(size=(n, c, f))

    def test_perfect_oracle_scores_zero(self):
        x, _ = self._windows()
        y = np.repeat(x[..., -1:], 4, axis=-1)
        m = evaluate(last_value_predictor, x, y)
        assert m.mse == 0.0 and m.mae == 0.0

    def test_row_count_matches_windows(self):
        x, y = self._windows(n=37)
        m = evaluate(last_value_predictor, x, y, batch_size=16)
        assert m.windows == 37
        assert len(m.per_window_mse) == 37 and len(m.per_window_mae) == 37

    def test_mean_predictor_tracks_target_variance(self):
        # on standardized data the all-zero predictor is the train-mean
        # predictor; its squared error is exactly var + mean^2 of the
        # targets, and close to the variance alone where the mean is small
        values = synth_generate(SynthSpec(length=800, channels=2, seed=4)).values
        prep = prepare(values, SplitSpec(ratios=(0.7, 0.1, 0.2)),
                       lookback=16, horizon=8)
        x, y = prep.train
        m = evaluate(lambda xb: np.zeros((len(xb), 2, 8)), x, y)
        assert m.mse == pytest.approx(np.var(y) + np.mean(y) ** 2, abs=1e-12)
        assert m.mse == pytest.approx(np.var(y), rel=0.1)

    def test_invariant_to_window_order(self):
        x, y = self._windows(n=33)
        base = evaluate(last_value_predictor, x, y, batch_size=8)
        perm = np.random.default_rng(3).permutation(33)
        mixed = evaluate(last_value_predictor, x[perm], y[perm], batch_size=8)
        np.testing.assert_array_equal(np.sort(base.per_window_mse),
                                      np.sort(mixed.per_window_mse))
        assert mixed.mse == pytest.approx(base.mse, abs=1e-12)
        assert mixed.mae == pytest.approx(base.mae, abs=1e-12)

    def test_batching_does_not_change_aggregates(self):
        x, y = self._windows(n=50)
        a = evaluate(last_value_predictor, x, y, batch_size=7)
        b = evaluate(last_value_predictor, x, y, batch_size=50)
        np.testing.assert_array_equal(a.per_window_mse, b.per_window_mse)

    def test_accepts_forecaster_objects(self):
        config = LiNoConfig(channels=2, lookback=8, horizon=4, dim=8, blocks=1)
        model = Forecaster(init_params(config, stream(0, "init")), config)
        x, y = self._windows()
        m = evaluate(model, x, y)
        assert m.windows == 40 and np.isfinite(m.mse)

    def test_empty_split_rejected(self):
        with pytest.raises(DataError, match="empty"):
            evaluate(last_value_predictor, np.zeros((0, 2, 8)), np.zeros((0, 2, 4)))

    def test_target_count_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            evaluate(last_value_predictor, np.zeros((3, 2, 8)), np.zeros((2, 2, 4)))

    @pytest.mark.parametrize("batch_size", [0, -1, -256])
    def test_batch_size_below_one_rejected(self, batch_size):
        x, y = self._windows()
        with pytest.raises(ConfigError, match=f"batch_size must be >= 1, got {batch_size}"):
            evaluate(last_value_predictor, x, y, batch_size=batch_size)


def pid_logging(predict, log):
    """`predict`, appending the id of the process each call runs in to
    the file `log`."""
    def logged(xb):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return predict(xb)
    return logged


def logged_pids(log):
    return [int(line) for line in Path(log).read_text().split()]


def raise_on_inf_input(xb):
    """As a model whose forward overflows on an infinite input."""
    if np.isinf(xb).any():
        raise NonFiniteError("linear: non-finite values in output")
    return last_value_predictor(xb)


class TestEvaluateFanOut:
    """`evaluate` scores its batches in forked workers, one per CPU; the
    results, errors and exit state are those of an in-process loop."""

    def _windows(self, n=40):
        rng = np.random.default_rng(1)
        return rng.normal(size=(n, 2, 8)), rng.normal(size=(n, 2, 4))

    def test_worker_count_does_not_change_bits(self, tmp_path, monkeypatch):
        config = LiNoConfig(channels=2, lookback=8, horizon=4, dim=8, blocks=2)
        model = Forecaster(randomized_params(config, seed=3), config)
        x, y = self._windows()
        metrics, pids = {}, {}
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            log = tmp_path / f"w{workers}.log"
            metrics[workers] = evaluate(pid_logging(model.predict, log), x, y, batch_size=8)
            pids[workers] = logged_pids(log)
            assert not multiprocessing.active_children()
        assert pids[1] == [os.getpid()] * 5
        assert len(pids[2]) == 5 and os.getpid() not in pids[2]
        for name in ("per_window_mse", "per_window_mae"):
            assert (getattr(metrics[1], name).tobytes()
                    == getattr(metrics[2], name).tobytes()), name

    @pytest.mark.parametrize("predictor, inf_window, error, message", [
        # the last of five batches (windows 32-36) comes back a step short
        (lambda xb: np.zeros((len(xb), 2, 4 if len(xb) == 8 else 3)), None,
         DimensionError, "prediction shape (5, 2, 3) != target shape (5, 2, 4)"),
        (last_value_predictor, 30,
         NonFiniteError, "evaluate: squared error of window 30 is not finite"),
        (raise_on_inf_input, 30, NonFiniteError, "linear: non-finite values in output"),
    ], ids=["shape", "inf-prediction", "raised-in-predict"])
    def test_errors_match_the_in_process_loop(self, monkeypatch, predictor, inf_window,
                                              error, message):
        x, y = self._windows(n=37)
        if inf_window is not None:
            x[inf_window, :, -1] = np.inf
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            with pytest.raises(error) as caught:
                evaluate(predictor, x, y, batch_size=8)
            assert type(caught.value) is error and str(caught.value) == message
            assert not multiprocessing.active_children()

    def test_killed_worker_raises_worker_died(self, monkeypatch):
        parent = os.getpid()

        def die_in_child(xb):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return last_value_predictor(xb)

        force_workers(monkeypatch, 2)
        x, y = self._windows()
        with pytest.raises(WorkerDiedError, match="^an evaluate worker process died: "):
            evaluate(die_in_child, x, y, batch_size=8)
        assert not multiprocessing.active_children()

    def test_one_batch_runs_in_process(self, tmp_path, monkeypatch):
        force_workers(monkeypatch, 2)
        x, y = self._windows()
        log = tmp_path / "pids.log"
        evaluate(pid_logging(last_value_predictor, log), x, y, batch_size=40)
        assert logged_pids(log) == [os.getpid()]

    @pytest.mark.parametrize("n, fanned", [(15, False), (16, True), (23, True)])
    def test_one_worker_per_full_batch(self, tmp_path, monkeypatch, n, fanned):
        """A split of one full batch and a short one starts no child, even
        with workers forced; two full batches fan out."""
        force_workers(monkeypatch, 4)
        x, y = self._windows(n)
        log = tmp_path / "pids.log"
        evaluate(pid_logging(last_value_predictor, log), x, y, batch_size=8)
        pids = logged_pids(log)
        assert len(pids) == -(-n // 8)
        if fanned:
            assert os.getpid() not in pids
        else:
            assert set(pids) == {os.getpid()}
        assert not multiprocessing.active_children()


class TestReport:
    def _report(self):
        rep = EvalReport()
        rep.add(ReportRow("synth", 24, "lino", "none", 1, 100, 0.3, 0.25, 1.0))
        rep.add(ReportRow("synth", 24, "lino", "none", 2, 100, 0.5, 0.35, 2.0))
        rep.add(ReportRow("synth", 48, "lino", "none", 1, 90, 0.7, 0.45, 3.0))
        return rep

    def test_seed_summary_mean_and_spread(self):
        agg = self._report().seed_summary()
        first = agg[0]
        assert first["seeds"] == 2
        assert first["mse_mean"] == pytest.approx(0.4, abs=1e-15)
        assert first["mse_std"] == pytest.approx(0.1, abs=1e-15)
        assert first["mae_mean"] == pytest.approx(0.3, abs=1e-15)

    def test_summaries_rederivable_from_rows(self):
        rep = self._report()
        for g in rep.seed_summary():
            rows = [r for r in rep.rows
                    if (r.dataset, r.horizon, r.variant, r.ablation)
                    == (g["dataset"], g["horizon"], g["variant"], g["ablation"])]
            assert g["mse_mean"] == pytest.approx(
                np.mean([r.mse for r in rows]), abs=1e-12)
            assert g["mse_std"] == pytest.approx(
                np.std([r.mse for r in rows]), abs=1e-12)

    def test_metrics_nonnegative_in_rows(self):
        for r in self._report().rows:
            assert r.mse >= 0.0 and r.mae >= 0.0

    def test_table_ignores_runtime(self):
        rep = self._report()
        before = rep.table()
        rep.rows = [ReportRow(r.dataset, r.horizon, r.variant, r.ablation,
                              r.seed, r.windows, r.mse, r.mae, r.runtime + 99)
                    for r in rep.rows]
        assert rep.table() == before

    def test_summary_text_mentions_scale_and_runtime(self):
        text = self._report().summary_text()
        assert "standardized scale" in text
        assert "runtime=1.0s" in text


class TestProbeAffine:
    def test_one_dimensional_line(self):
        probed = probe_affine(lambda v: 2.0 * v + 1.0, in_dim=1)
        np.testing.assert_array_equal(probed.matrix, [[2.0]])
        np.testing.assert_array_equal(probed.bias, [1.0])
        assert probed.residual < 1e-12

    @pytest.mark.parametrize("n_in,n_out", [(3, 5), (16, 16), (64, 8)])
    def test_recovers_random_affine_maps(self, n_in, n_out):
        rng = np.random.default_rng(n_in)
        a = rng.normal(size=(n_out, n_in))
        b = rng.normal(size=n_out)
        probed = probe_affine(lambda v: a @ v + b, in_dim=n_in)
        np.testing.assert_allclose(probed.matrix, a, atol=1e-12)
        np.testing.assert_allclose(probed.bias, b, atol=1e-12)
        assert probed.residual < 1e-10

    def test_deterministic_probe_stream(self):
        f = lambda v: np.tanh(v)
        one = probe_affine(f, in_dim=4)
        two = probe_affine(f, in_dim=4)
        assert one.residual == two.residual

    def test_li_block_probe_is_exact_and_banded(self):
        config = LiNoConfig(channels=2, lookback=12, horizon=4, dim=8, blocks=1)
        params = randomized_params(config, seed=7)
        probed = probe_affine(li_block_map(params, config, level=0),
                              in_dim=config.channels * config.dim)
        assert probed.residual < 1e-8
        phi = params["level0.li.phi"].data
        beta = params["level0.li.beta"].data
        c, d = config.channels, config.dim
        np.testing.assert_array_equal(probed.bias, np.repeat(beta, d))
        for ci in range(c):
            for cj in range(c):
                block = probed.matrix[ci * d:(ci + 1) * d, cj * d:(cj + 1) * d]
                if ci != cj:
                    np.testing.assert_array_equal(block, 0.0)
                    continue
                # off-band entries are exact zeros (bias cancels itself);
                # in-band entries pay one rounding for the bias subtraction
                for row in range(d):
                    for col in range(d):
                        if row < col:
                            assert block[row, col] == 0.0
                        else:
                            assert block[row, col] == pytest.approx(
                                phi[ci, row - col], rel=1e-12, abs=1e-15)

    def test_no_block_probe_reports_nonlinearity(self):
        config = LiNoConfig(channels=2, lookback=12, horizon=4, dim=8, blocks=1)
        params = randomized_params(config, seed=9)
        probed = probe_affine(no_block_map(params, config, level=0),
                              in_dim=config.channels * config.dim)
        assert np.isfinite(probed.residual)
        assert probed.residual > 1e-6  # honest local picture, not a fit

    def test_model_map_probe_shapes(self):
        config = LiNoConfig(channels=2, lookback=8, horizon=4, dim=8, blocks=1)
        params = randomized_params(config, seed=2)
        probed = probe_affine(model_map(params, config),
                              in_dim=config.channels * config.lookback, probes=4)
        assert probed.matrix.shape == (2 * 4, 2 * 8)
        assert probed.bias.shape == (2 * 4,)
        assert np.isfinite(probed.residual)


class TestDecomposition:
    def _setup(self, variant="lino", blocks=2, seed=5):
        config = LiNoConfig(channels=3, lookback=16, horizon=6, dim=8,
                            blocks=blocks, variant=variant)
        params = randomized_params(config, seed=seed)
        x = np.random.default_rng(seed).normal(size=(3, 16)) * 2.0 + 1.0
        return config, params, x

    def test_components_sum_to_forecast(self):
        config, params, x = self._setup()
        dec = export_decomposition(params, config, x)
        total = sum(vals for _, vals in dec.components)
        np.testing.assert_allclose(total, dec.total, atol=1e-9)

    def test_two_rows_per_level_plus_total(self):
        for blocks in (1, 2, 3):
            config, params, x = self._setup(blocks=blocks)
            dec = export_decomposition(params, config, x)
            assert len(dec.components) == 2 * blocks
            labels = [label for label, _ in dec.components]
            assert labels == [f"level{i}.{kind}"
                              for i in range(blocks) for kind in ("li", "no")]

    def test_forecast_matches_model_output(self):
        config, params, x = self._setup()
        dec = export_decomposition(params, config, x)
        np.testing.assert_array_equal(
            dec.total, Forecaster(params, config).predict(x[None])[0])

    def test_variant_exports_still_sum(self):
        for variant, n_rows in (("mu", 2), ("raw", 1), ("ln", 4)):
            config, params, x = self._setup(variant=variant, blocks=2)
            dec = export_decomposition(params, config, x)
            assert len(dec.components) == n_rows
            total = sum(vals for _, vals in dec.components)
            np.testing.assert_allclose(total, dec.total, atol=1e-9)

    def test_table_layout(self):
        config, params, x = self._setup(blocks=2)
        columns, rows = decomposition_table(export_decomposition(params, config, x))
        assert columns[:2] == ["component", "channel"]
        assert len(columns) == 2 + config.horizon
        assert len(rows) == (2 * config.blocks + 1) * config.channels
        assert rows[-1][0] == "total"
        # every numeric cell round-trips exactly through its text form
        got = float(rows[0][2])
        assert got == dec_first_value(params, config, x)

    def test_batch_input_rejected(self):
        config, params, x = self._setup()
        with pytest.raises(DimensionError, match="window"):
            export_decomposition(params, config, x[None])

    def test_trained_linear_series_keeps_energy_in_linear_path(self):
        # series with no nonlinear family at all; after a short fit the
        # exported nonlinear components should carry little of the
        # forecast's energy on the data's own scale, where each window's
        # level rides on the first linear component
        values = synth_generate(SynthSpec(length=480, channels=2, seed=3,
                                          noise_sigma=0.0,
                                          nonlinear_amplitude=0.0)).values
        prep = prepare(values, SplitSpec(ratios=(0.7, 0.1, 0.2)),
                       lookback=24, horizon=8)
        config = LiNoConfig(channels=2, lookback=24, horizon=8, dim=16, blocks=1)
        tcfg = TrainConfig(lr=1e-2, batch_size=32, max_epochs=100,
                           patience=100, seed=0)
        result = train(*prep.train, *prep.val, config, tcfg)
        x_test, _ = prep.test
        nonlinear = total = 0.0
        for window in x_test[:64]:
            dec = export_decomposition(result.params, config, window)
            nonlinear += sum(float((vals ** 2).sum())
                             for label, vals in dec.components
                             if label.endswith(".no"))
            total += float((dec.total ** 2).sum())
        assert nonlinear / total <= 0.2


def dec_first_value(params, config, x):
    dec = export_decomposition(params, config, x)
    return float(dec.components[0][1][0, 0])

