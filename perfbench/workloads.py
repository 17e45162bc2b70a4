"""The three benchmark workloads: inputs, one timed pass, and its checks.

A workload is set up once per process from the workload seed (input files,
config files, checkpoints), then runs passes until the run's time is up.
A pass is the closed-loop sequence of calls a user makes, one after the
other, from this one process:

* ``train_paper``: ``lino train`` at paper shape, then batch-1 forecasts
  from the checkpoint it wrote;
* ``sweep_small``: ``lino ablate`` over a small model, then batch-1
  forecasts from a small checkpoint;
* ``forecast_csv``: ``lino decompose``, ``evaluate`` over the ETTh2 test
  split at batch 256, then batch-1 forecasts on consecutive test windows.

Checks run after a pass, outside its timing. Expected window counts come
from the split rules written out here, not from the program.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import lino.cli
from lino.data import load_csv, prepare, save_csv, SplitSpec, SynthSpec, synth_generate
from lino.evaluate import evaluate
from lino.model import Forecaster, LiNoConfig, init_params
from lino.seeding import stream
from lino.train import load_checkpoint, save_checkpoint

ETT_COLUMNS = ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT")
ETTH_COUNTS = (8545, 2881, 2881)      # points per split the ETTh files get
ABLATIONS = ("none", "no_li", "no_no", "no_te", "no_fe", "no_cd")
MATCH_RTOL = 1e-9


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def etth_like(length: int, seed: int) -> np.ndarray:
    """An hourly 7-channel series shaped like ETTh: daily and weekly cycles,
    a slow drift and AR(1) noise per load channel, and an oil temperature
    (last column) that lags the loads."""
    rng = np.random.default_rng([seed, 7])
    t = np.arange(length, dtype=np.float64)
    out = np.empty((length, 7))
    noise = np.zeros(6)
    shocks = rng.normal(0.0, 0.3, size=(length, 6))
    ar = rng.uniform(0.6, 0.9, size=6)
    for i in range(length):
        noise = ar * noise + shocks[i]
        out[i, :6] = noise
    for c in range(6):
        level = rng.uniform(-2.0, 8.0)
        daily = rng.uniform(0.5, 3.0) * np.sin(2 * np.pi * t / 24 + rng.uniform(0, 2 * np.pi))
        weekly = rng.uniform(0.2, 1.5) * np.sin(2 * np.pi * t / 168 + rng.uniform(0, 2 * np.pi))
        drift = rng.uniform(-3.0, 3.0) * t / length
        out[:, c] += level + daily + weekly + drift
    loads = out[:, :6] @ rng.uniform(0.1, 0.4, size=6)
    lagged = np.concatenate([np.full(6, loads[0]), loads[:-6]])
    out[:, 6] = 20.0 + lagged + rng.normal(0.0, 0.2, size=length)
    return out


def write_ett_csv(path: str, values: np.ndarray) -> None:
    """Hourly rows under a `date` column, as the ETT files store them."""
    start = np.datetime64("2016-07-01T00:00")
    dates = np.datetime_as_string(start + np.arange(len(values)) * np.timedelta64(1, "h"))
    lines = ["date," + ",".join(ETT_COLUMNS)]
    for stamp, row in zip(dates, values):
        lines.append(stamp.replace("T", " ") + ":00," + ",".join(f"{v:.4f}" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_config(path: str, settings: dict) -> None:
    with open(path, "w") as fh:
        for key, value in settings.items():
            if isinstance(value, (list, tuple)):
                value = ", ".join(str(v) for v in value)
            fh.write(f"{key} = {value}\n")


def ratio_windows(length: int, lookback: int, horizon: int):
    """Train and test windows of a 70/10/20 chronological split (the ratio
    convention for CSVs not named like an ETT file); val and test reach
    back `lookback` points for context."""
    n_train, n_val = length * 7 // 10, length // 10
    n_test = length - n_train - n_val
    return n_train - lookback - horizon + 1, n_test - horizon + 1


def consecutive_windows(values: np.ndarray, lookback: int, count: int) -> np.ndarray:
    """The last `count` consecutive lookback windows, channel-major."""
    starts = range(len(values) - lookback - count + 1, len(values) - lookback + 1)
    return np.stack([values[s:s + lookback].T for s in starts])


# ---------------------------------------------------------------------------
# a pass and its operations
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """What one pass did. An operation is a CLI command, a fit or a predict
    call; `failures` names each one that failed."""

    work_s: float = 0.0           # wall time of the throughput command
    windows: int = 0              # windows that command processed
    latencies: list = field(default_factory=list)   # batch-1 predict seconds
    outputs: list = field(default_factory=list)     # (window index, forecast)
    attempted: int = 0
    failures: list = field(default_factory=list)
    metrics: object = None        # forecast_csv: what `evaluate` returned
    ckpt_bytes: int = 0           # size of the checkpoint the pass served

    def fail(self, message: str) -> None:
        self.failures.append(message)


def run_cli(argv, tr, p: Pass) -> bool:
    """One `lino` command through `cli.main`, output captured."""
    p.attempted += 1
    sink = io.StringIO()
    try:
        with tr.span("cli.other"), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = lino.cli.main(argv)
    except Exception as exc:   # a benchmark boundary: record and go on
        p.fail(f"lino {argv[0]} raised {type(exc).__name__}: {exc}")
        return False
    if code != 0:
        p.fail(f"lino {argv[0]} exited {code}: {sink.getvalue().strip()[-300:]}")
        return False
    return True


def load_forecaster(ckpt: str, tr) -> Forecaster:
    with tr.span("train.ckpt_load"):
        config, params, _ = load_checkpoint(ckpt)
    return Forecaster(params, config)


def serve(forecaster: Forecaster, windows: np.ndarray, p: Pass) -> None:
    """Forecast each window alone, as a caller serving one request at a
    time would."""
    for i, x in enumerate(windows):
        p.attempted += 1
        start = time.perf_counter()
        try:
            y = forecaster.predict(x[None])
        except Exception as exc:   # a benchmark boundary: record and go on
            p.fail(f"predict raised {type(exc).__name__}: {exc}")
            continue
        p.latencies.append(time.perf_counter() - start)
        p.outputs.append((i, y[0]))


def check_forecasts(p: Pass, reference: np.ndarray) -> None:
    """Batch-1 forecasts must match the rows of one batched predict."""
    for i, got in p.outputs:
        want = reference[i]
        scale = max(float(np.max(np.abs(want))), 1e-300)
        if got.shape != want.shape or not np.all(np.isfinite(got)) or \
                float(np.max(np.abs(got - want))) > MATCH_RTOL * scale:
            p.fail(f"batch-1 forecast {i} differs from the batched row")


def read_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def finite(rows, *columns) -> bool:
    return all(math.isfinite(float(r[c])) for r in rows for c in columns)


def reference_rows(ctx: dict) -> np.ndarray:
    """Forecasts for the probe windows from one batched predict: the
    batch-256 call over the first test windows for `forecast_csv`, one
    call over all probe windows otherwise."""
    config, params, _ = load_checkpoint(ctx["ckpt"])
    batch = ctx.get("x_test", ctx["probe"])[:256]
    return Forecaster(params, config).predict(batch)[:len(ctx["probe"])]


def finish_checks(ctx: dict, p: Pass) -> None:
    if "reference" not in ctx:
        ctx["reference"] = reference_rows(ctx)
    check_forecasts(p, ctx["reference"])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    length: int
    lookback: int
    horizon: int
    dim: int
    blocks: int
    batch: int
    lr: float
    epochs: int
    probes: int
    channels: int = 7
    seeds: int = 1


class TrainPaper:
    """`lino train` at paper shape, then serve the trained checkpoint."""

    name = "train_paper"
    shapes = {
        "full": Shape(length=1000, lookback=96, horizon=96, dim=256, blocks=2,
                      batch=32, lr=1e-4, epochs=1, probes=48),
        "tiny": Shape(length=300, lookback=24, horizon=12, dim=16, blocks=2,
                      batch=32, lr=1e-4, epochs=1, probes=4),
    }

    def __init__(self, scale: str):
        self.s = self.shapes[scale]

    def set_up(self, workdir: str, seed: int) -> dict:
        s = self.s
        values = etth_like(s.length, seed)
        data = os.path.join(workdir, "paper.csv")
        write_ett_csv(data, values)
        out = os.path.join(workdir, "train")
        cfg = os.path.join(workdir, "train.cfg")
        write_config(cfg, {
            "dataset": data, "lookback": s.lookback, "horizons": [s.horizon],
            "seeds": [seed], "dim": s.dim, "blocks": s.blocks, "batch": s.batch,
            "lr": s.lr, "epochs": s.epochs, "patience": s.epochs, "out": out})
        train_windows, test_windows = ratio_windows(s.length, s.lookback, s.horizon)
        return {"argv": ["train", "--config", cfg, "--unsafe-grid"], "out": out,
                "ckpt": os.path.join(out, "checkpoint"),
                "probe": consecutive_windows(values, s.lookback, s.probes),
                "train_windows": train_windows, "test_windows": test_windows,
                "expect": LiNoConfig(channels=7, lookback=s.lookback, horizon=s.horizon,
                                     dim=s.dim, blocks=s.blocks)}

    def run_pass(self, ctx: dict, tr) -> Pass:
        p = Pass()
        start = time.perf_counter()
        ok = run_cli(ctx["argv"], tr, p)
        p.work_s = time.perf_counter() - start
        p.attempted += 1   # the fit
        if ok:
            serve(load_forecaster(ctx["ckpt"], tr), ctx["probe"], p)
        return p

    def check(self, ctx: dict, p: Pass) -> None:
        out = ctx["out"]
        try:
            history = read_rows(os.path.join(out, "history.csv"))
            report = read_rows(os.path.join(out, "report.csv"))
            config, _, _ = load_checkpoint(ctx["ckpt"])
        except Exception as exc:   # missing or unreadable outputs
            p.fail(f"train outputs unreadable: {type(exc).__name__}: {exc}")
            return
        if len(history) != self.s.epochs or not finite(history, "train_mse", "val_mse"):
            p.fail(f"history.csv: want {self.s.epochs} finite rows, got {len(history)}")
        if len(report) != 1 or report[0]["windows"] != str(ctx["test_windows"]) \
                or not finite(report, "mse", "mae"):
            p.fail(f"report.csv: want one finite row over {ctx['test_windows']} windows")
        if config != ctx["expect"]:
            p.fail(f"checkpoint config {config} != expected {ctx['expect']}")
        p.windows = ctx["train_windows"] * len(history)
        p.ckpt_bytes = os.path.getsize(ctx["ckpt"])
        finish_checks(ctx, p)


class SweepSmall:
    """`lino ablate` over a small model on the mixed synthetic series, then
    serve a small checkpoint: per-op Python cost dominates."""

    name = "sweep_small"
    shapes = {
        "full": Shape(length=2000, lookback=48, horizon=24, dim=16, blocks=2,
                      batch=64, lr=1e-3, epochs=1, probes=128, channels=3, seeds=2),
        "tiny": Shape(length=400, lookback=24, horizon=12, dim=8, blocks=1,
                      batch=64, lr=1e-3, epochs=1, probes=4, channels=3, seeds=2),
    }

    def __init__(self, scale: str):
        self.s = self.shapes[scale]

    def set_up(self, workdir: str, seed: int) -> dict:
        s = self.s
        series = synth_generate(SynthSpec(length=s.length, channels=s.channels,
                                          s_components=2, seed=seed))
        data = os.path.join(workdir, "mixed.csv")
        save_csv(data, series.values, series.columns)
        out = os.path.join(workdir, "ablate")
        cfg = os.path.join(workdir, "ablate.cfg")
        seeds = [seed + k for k in range(s.seeds)]
        write_config(cfg, {
            "dataset": data, "lookback": s.lookback, "horizons": [s.horizon],
            "seeds": seeds, "dim": s.dim, "blocks": s.blocks, "batch": s.batch,
            "lr": s.lr, "epochs": s.epochs, "patience": s.epochs, "out": out})
        config = LiNoConfig(channels=s.channels, lookback=s.lookback,
                            horizon=s.horizon, dim=s.dim, blocks=s.blocks)
        ckpt = os.path.join(workdir, "small.ckpt")
        save_checkpoint(ckpt, config, init_params(config, stream(seed, "init")))
        train_windows, test_windows = ratio_windows(s.length, s.lookback, s.horizon)
        return {"argv": ["ablate", "--config", cfg, "--unsafe-grid"], "out": out,
                "ckpt": ckpt, "fits": len(ABLATIONS) * s.seeds,
                "probe": consecutive_windows(series.values, s.lookback, s.probes),
                "train_windows": train_windows, "test_windows": test_windows}

    def run_pass(self, ctx: dict, tr) -> Pass:
        p = Pass()
        start = time.perf_counter()
        ok = run_cli(ctx["argv"], tr, p)
        p.work_s = time.perf_counter() - start
        p.attempted += ctx["fits"]
        if ok:
            serve(load_forecaster(ctx["ckpt"], tr), ctx["probe"], p)
        return p

    def check(self, ctx: dict, p: Pass) -> None:
        out = ctx["out"]
        try:
            ablation = read_rows(os.path.join(out, "ablation.csv"))
            report = read_rows(os.path.join(out, "report.csv"))
        except OSError as exc:
            p.fail(f"ablate outputs unreadable: {exc}")
            return
        if sorted(r["ablation"] for r in ablation) != sorted(ABLATIONS) or not finite(
                ablation, "val_mse_mean", "mse_mean", "mae_mean", "mse_vs_full"):
            p.fail(f"ablation.csv: want one finite row per ablation, got {len(ablation)}")
        good = [r for r in report if r["windows"] == str(ctx["test_windows"])
                and finite([r], "mse", "mae")]
        for _ in range(ctx["fits"] - len(good)):
            p.fail(f"report.csv: {len(good)} good fit rows of {ctx['fits']}")
        # patience >= epochs, so every fit runs every epoch
        p.windows = ctx["train_windows"] * self.s.epochs * len(good)
        p.ckpt_bytes = os.path.getsize(ctx["ckpt"])
        finish_checks(ctx, p)


class ForecastCsv:
    """Forward-only use of a saved paper-shape model on an ETTh2-named CSV:
    decompose one window, evaluate the test split at batch 256, then
    forecast consecutive test windows one at a time."""

    name = "forecast_csv"
    shapes = {
        "full": Shape(length=14400, lookback=96, horizon=96, dim=256, blocks=2,
                      batch=256, lr=0.0, epochs=0, probes=256),
        "tiny": Shape(length=14400, lookback=24, horizon=12, dim=16, blocks=1,
                      batch=256, lr=0.0, epochs=0, probes=4),
    }

    def __init__(self, scale: str):
        self.s = self.shapes[scale]

    def set_up(self, workdir: str, seed: int) -> dict:
        s = self.s
        data = os.path.join(workdir, "ETTh2.csv")
        write_ett_csv(data, etth_like(s.length, seed))
        config = LiNoConfig(channels=7, lookback=s.lookback, horizon=s.horizon,
                            dim=s.dim, blocks=s.blocks)
        ckpt = os.path.join(workdir, "model.ckpt")
        save_checkpoint(ckpt, config, init_params(config, stream(seed, "init")))
        out = os.path.join(workdir, "decompose")
        cfg = os.path.join(workdir, "decompose.cfg")
        write_config(cfg, {"dataset": data, "checkpoint": ckpt, "window": 0, "out": out})
        values, _ = load_csv(data)
        x_test, y_test = prepare(values, SplitSpec(counts=ETTH_COUNTS),
                                 s.lookback, s.horizon).test
        return {"argv": ["decompose", "--config", cfg], "out": out, "ckpt": ckpt,
                "x_test": x_test, "y_test": y_test, "probe": x_test[:s.probes],
                "test_windows": ETTH_COUNTS[2] - s.horizon + 1}

    def run_pass(self, ctx: dict, tr) -> Pass:
        p = Pass()
        if not run_cli(ctx["argv"], tr, p):
            return p
        forecaster = load_forecaster(ctx["ckpt"], tr)
        # the batch-1 forecasts run on both sides of `evaluate`, so they
        # sample more of the run's time
        serve(forecaster, ctx["probe"], p)
        p.attempted += 1
        start = time.perf_counter()
        try:
            with tr.span("evaluate.self", "evaluate.evaluate"):
                p.metrics = evaluate(forecaster, ctx["x_test"], ctx["y_test"],
                                     batch_size=256)
        except Exception as exc:   # a benchmark boundary: record and go on
            p.fail(f"evaluate raised {type(exc).__name__}: {exc}")
            return p
        p.work_s = time.perf_counter() - start
        p.windows = p.metrics.windows
        serve(forecaster, ctx["probe"], p)
        return p

    def check(self, ctx: dict, p: Pass) -> None:
        metrics = p.metrics
        if metrics is None:
            return
        if metrics.windows != ctx["test_windows"] or not (
                math.isfinite(metrics.mse) and math.isfinite(metrics.mae)):
            p.fail(f"evaluate: want finite metrics over {ctx['test_windows']} windows, "
                   f"got {metrics.windows}")
        try:
            rows = read_rows(os.path.join(ctx["out"], "decomposition.csv"))
        except OSError as exc:
            p.fail(f"decomposition.csv unreadable: {exc}")
            rows = []
        steps = [k for k in (rows[0] if rows else {}) if k.startswith("step")]
        parts, totals = {}, {}
        for r in rows:
            vec = np.array([float(r[k]) for k in steps])
            into = totals if r["component"] == "total" else parts
            into[r["channel"]] = into.get(r["channel"], 0.0) + vec
        if not totals or set(parts) != set(totals):
            p.fail("decomposition.csv: components and total do not cover the same channels")
        for ch, total in totals.items():
            if np.max(np.abs(parts.get(ch, 0.0) - total)) > MATCH_RTOL * max(
                    1.0, float(np.max(np.abs(total)))):
                p.fail(f"decomposition.csv: channel {ch} components do not sum to total")
        p.ckpt_bytes = os.path.getsize(ctx["ckpt"])
        finish_checks(ctx, p)


WORKLOADS = {w.name: w for w in (TrainPaper, SweepSmall, ForecastCsv)}
