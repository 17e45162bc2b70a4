"""Metrics, benchmark report assembly, affine probing of trained blocks,
and forecast decomposition export."""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DataError, DimensionError, NonFiniteError
from .fanout import fan_out
from .model import (LiNoConfig, forward, forward_normalized, li_block,
                    no_block, no_projection)
from .seeding import stream
from .tensor import Tensor

# ---------------------------------------------------------------------------
# split evaluation
# ---------------------------------------------------------------------------

@dataclass
class WindowMetrics:
    """Per-window errors for one split; aggregates are plain means, which
    works because every window holds the same number of elements."""

    per_window_mse: np.ndarray
    per_window_mae: np.ndarray

    @property
    def windows(self) -> int:
        return len(self.per_window_mse)

    @property
    def mse(self) -> float:
        return float(self.per_window_mse.mean())

    @property
    def mae(self) -> float:
        return float(self.per_window_mae.mean())


def _score_batch(predict, x: np.ndarray, y: np.ndarray, batch_size: int,
                 lo: int) -> tuple:
    """Per-window (mse, mae) arrays of the batch of windows that starts
    at window `lo`."""
    hi = min(lo + batch_size, len(x))
    pred = np.asarray(predict(x[lo:hi]), dtype=np.float64)
    if pred.shape != y[lo:hi].shape:
        raise DimensionError(
            f"prediction shape {pred.shape} != target shape {y[lo:hi].shape}")
    diff = pred - np.asarray(y[lo:hi], dtype=np.float64)
    axes = tuple(range(1, diff.ndim))
    return (diff * diff).mean(axis=axes), np.abs(diff).mean(axis=axes)


def evaluate(predictor, x: np.ndarray, y: np.ndarray,
             batch_size: int = 256) -> WindowMetrics:
    """Full pass over the windows of a split, deterministic and dropout-free.

    `predictor` is either a callable mapping [n, channels, lookback] to
    [n, channels, horizon] or an object with such a `predict` method.
    Metrics stay on whatever scale the targets are on; the preparation
    pipeline hands standardized windows to keep reported numbers on the
    standardized scale. A window whose squared error is not finite is a
    `NonFiniteError`, not an infinite metric.

    The batches fan out over forked workers (`fan_out`), one per CPU and
    at most one per full batch, each scoring its batch with the code and
    data an in-process loop would use, so the per-window metrics do not
    depend on the worker count. A worker whose only batch would be the
    short last one costs more to start than it saves: at paper shape on
    two CPUs, a 256 + 44 window split took 420 ms per validation pass in
    two workers against 340 ms in-process, while 256 + 256 took 320
    against 570 ms (BENCH_convchan.json). So a split of one full batch
    runs in-process. A worker that dies raises `WorkerDiedError`.
    """
    if batch_size < 1:
        raise ConfigError(f"evaluate: batch_size must be >= 1, got {batch_size}")
    predict = getattr(predictor, "predict", predictor)
    x = np.asarray(x)
    y = np.asarray(y)
    n = x.shape[0]
    if n == 0:
        raise DataError("cannot evaluate an empty split")
    if y.shape[0] != n:
        raise DimensionError(f"{n} inputs but {y.shape[0]} targets")
    batches = list(fan_out(_score_batch, range(0, n, batch_size), predict, x, y,
                           batch_size, died="an evaluate worker process died",
                           most_workers=n // batch_size))
    per_mse = np.concatenate([mse for mse, _ in batches])
    per_mae = np.concatenate([mae for _, mae in batches])
    bad = ~np.isfinite(per_mse)
    if bad.any():
        raise NonFiniteError(f"evaluate: squared error of window {int(np.argmax(bad))} "
                             "is not finite")
    return WindowMetrics(per_mse, per_mae)


# ---------------------------------------------------------------------------
# benchmark report
# ---------------------------------------------------------------------------

REPORT_COLUMNS = ("dataset", "horizon", "variant", "ablation", "seed",
                  "windows", "mse", "mae")


@dataclass(frozen=True)
class ReportRow:
    dataset: str
    horizon: int
    variant: str
    ablation: str
    seed: int
    windows: int
    mse: float
    mae: float
    runtime: float = 0.0  # seconds; reported in the summary, never in tables


@dataclass
class EvalReport:
    """Raw benchmark rows plus aggregation views recomputable from them."""

    rows: list = field(default_factory=list)

    def add(self, row: ReportRow) -> None:
        self.rows.append(row)

    def table(self) -> list:
        """Stringified rows under REPORT_COLUMNS, runtime excluded so the
        emitted bytes depend only on the metrics."""
        out = []
        for r in self.rows:
            out.append([r.dataset, str(r.horizon), r.variant, r.ablation,
                        str(r.seed), str(r.windows), repr(r.mse), repr(r.mae)])
        return out

    def seed_summary(self) -> list:
        """Mean and spread over seeds per (dataset, horizon, variant,
        ablation) group, in first-appearance order."""
        groups: dict = {}
        for r in self.rows:
            key = (r.dataset, r.horizon, r.variant, r.ablation)
            groups.setdefault(key, []).append(r)
        out = []
        for key, rs in groups.items():
            ms = np.array([r.mse for r in rs])
            ma = np.array([r.mae for r in rs])
            out.append({"dataset": key[0], "horizon": key[1],
                        "variant": key[2], "ablation": key[3],
                        "seeds": len(rs),
                        "mse_mean": float(ms.mean()), "mse_std": float(ms.std()),
                        "mae_mean": float(ma.mean()), "mae_std": float(ma.std())})
        return out

    def summary_text(self) -> str:
        """Human-readable digest; the one place runtimes appear."""
        lines = ["metrics are on the standardized scale", ""]
        for r in self.rows:
            lines.append(
                f"{r.dataset} h={r.horizon} {r.variant}/{r.ablation} seed={r.seed}: "
                f"mse={r.mse:.6f} mae={r.mae:.6f} windows={r.windows} "
                f"runtime={r.runtime:.1f}s")
        agg = self.seed_summary()
        if agg:
            lines.append("")
            for g in agg:
                lines.append(
                    f"{g['dataset']} h={g['horizon']} {g['variant']}/{g['ablation']} "
                    f"({g['seeds']} seeds): mse={g['mse_mean']:.6f}±{g['mse_std']:.6f} "
                    f"mae={g['mae_mean']:.6f}±{g['mae_std']:.6f}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# affine probing
# ---------------------------------------------------------------------------

@dataclass
class ProbedAffineMap:
    """Local affine picture of a vector map: bias from the zero vector,
    columns from unit vectors, plus the worst reconstruction error seen on
    random probes. The residual is part of the result on purpose; for a
    nonlinear map it is the honest size of what the picture leaves out."""

    matrix: np.ndarray   # [out, in]
    bias: np.ndarray     # [out]
    residual: float


def probe_affine(f: Callable, in_dim: int, probes: int = 8,
                 rng: Optional[np.random.Generator] = None) -> ProbedAffineMap:
    if rng is None:
        rng = stream(0, "probe")
    bias = np.asarray(f(np.zeros(in_dim)), dtype=np.float64)
    cols = []
    for i in range(in_dim):
        e = np.zeros(in_dim)
        e[i] = 1.0
        cols.append(np.asarray(f(e), dtype=np.float64) - bias)
    matrix = np.stack(cols, axis=1)
    worst = 0.0
    for _ in range(probes):
        xp = rng.standard_normal(in_dim)
        recon = matrix @ xp + bias
        worst = max(worst, float(np.max(np.abs(np.asarray(f(xp)) - recon))))
    return ProbedAffineMap(matrix, bias, worst)


def li_block_map(params: dict, config: LiNoConfig, level: int) -> Callable:
    """The given level's linear pattern extractor as a map on flattened
    [channels * dim] feature vectors, dropout off."""
    c, d = config.channels, config.dim

    def f(vec):
        h = Tensor(np.reshape(vec, (c, d)))
        return li_block(h, params, level, config).data.reshape(-1)

    return f


def no_block_map(params: dict, config: LiNoConfig, level: int) -> Callable:
    """The given level's nonlinear pattern extractor, flattened the same
    way. Probing it is a linearisation, so expect a nonzero residual."""
    projection = no_projection(params, config, level)
    c, d = config.channels, config.dim

    def f(vec):
        r = Tensor(np.reshape(vec, (c, d)))
        return no_block(r, params, level, projection, config).data.reshape(-1)

    return f


def model_map(params: dict, config: LiNoConfig) -> Callable:
    """The whole forecaster on normalized inputs, [channels * lookback] ->
    [channels * horizon], for probing around the zero history."""
    c, t = config.channels, config.lookback

    def f(vec):
        xn = Tensor(np.reshape(vec, (c, t)))
        y, _ = forward_normalized(xn, params, config, trace=False)
        return y.data.reshape(-1)

    return f


# ---------------------------------------------------------------------------
# decomposition export
# ---------------------------------------------------------------------------

@dataclass
class Decomposition:
    """Additive forecast components for one window on the input's own
    scale: each level's head outputs rescaled by the window's spread, with
    the window's mean carried entirely by the first component so the
    components still sum to the forecast."""

    components: list      # (label, [channels, horizon]) pairs
    total: np.ndarray     # [channels, horizon] forecast


def export_decomposition(params: dict, config: LiNoConfig,
                         x: np.ndarray) -> Decomposition:
    x = np.asarray(x)
    if x.ndim != 2:
        raise DimensionError(f"expected one [channels, lookback] window, got shape {x.shape}")
    res = forward(x, params, config, mode="eval")
    mu, sigma = res.stats
    components = [(label, head.data * sigma) for label, head in res.trace.heads]
    label, first = components[0]
    components[0] = (label, first + mu)
    return Decomposition(components, res.y.data)


def decomposition_table(dec: Decomposition) -> tuple:
    """(columns, rows) ready for csv writing, floats in shortest
    roundtrip form."""
    horizon = dec.total.shape[-1]
    columns = ["component", "channel"] + [f"step{k + 1}" for k in range(horizon)]
    rows = []
    for label, vals in dec.components + [("total", dec.total)]:
        for c in range(vals.shape[0]):
            rows.append([label, str(c)] + [repr(float(v)) for v in vals[c]])
    return columns, rows
