"""Command-line entry point.

Commands bind a flat key=value config file (plus flag overrides) to the
training, ablation, noise-robustness, decomposition, probing, and
synthetic-data workflows. Every command is a pure function of its config,
seeds, and input files: metric files rerun bitwise identical.
"""

import argparse
import contextlib
import functools
import math
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from .data import (SplitSpec, SynthSpec, load_csv, prepare, save_csv, split_windows,
                   synth_generate)
from .errors import (ConfigError, DataError, DimensionError, NonFiniteError,
                     WorkerDiedError)
from .evaluate import (REPORT_COLUMNS, EvalReport, ReportRow, WindowMetrics,
                       decomposition_table, evaluate, export_decomposition,
                       li_block_map, model_map, no_block_map, probe_affine)
from .fanout import fan_out
from .model import (ABLATIONS, VARIANTS, Forecaster, LiNoConfig)
from .seeding import stream
from .train import (TrainConfig, TrainResult, load_checkpoint, save_checkpoint,
                    train)

# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

# every key a config file may set, with its default; a value in a file
# parses as its default's type, and a list default takes comma-separated
# items of its first item's type
_DEFAULTS = {
    "dataset": "synth",
    "lookback": 96,
    "horizons": [96],
    "seeds": [1],
    "dim": 256,
    "blocks": 2,
    "dropout": 0.0,
    "variant": "lino",
    "ablation": "none",
    "lr": 1e-4,
    "batch": 32,
    "epochs": 100,
    "patience": 6,
    "alpha": 0.0,
    "alphas": [0.0, 0.25, 0.5, 0.75, 1.0],
    "out": "",
    "checkpoint": "",
    "univariate": False,
    "window": 0,
    "val_ratio": 0.1,
    "test_ratio": 0.2,
    "synth_length": 2000,
    "synth_channels": 3,
    "synth_components": 1,
    "synth_seed": 0,
    "synth_noise": 0.1,
    "synth_linear": 1.0,
    "synth_nonlinear": 1.0,
}

# the sweep values the training recipes are known to behave under; other
# combinations need an explicit opt-out
_GRID = {
    "dim": (256, 512),
    "blocks": (1, 2, 3, 4),
    "dropout": (0.0, 0.2, 0.5),
    "lr": (1e-3, 1e-4, 1e-5),
    "batch": (32, 64, 128, 256),
}

_TRAINING_COMMANDS = ("train", "ablate", "noise")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _item_type(key: str) -> type:
    """The type one value of `key` parses as: its default's type, or the
    first item's type for a list default."""
    default = _DEFAULTS[key]
    return type(default[0]) if isinstance(default, list) else type(default)


def _parse_value(key: str, text: str):
    kind = _item_type(key)
    if isinstance(_DEFAULTS[key], list):
        return [kind(part.strip()) for part in text.split(",") if part.strip()]
    if kind is bool:
        return _parse_bool(text)
    return kind(text)


def parse_config_file(path: str) -> dict:
    """Flat key=value settings, one per line, `#` starts a comment."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc.strerror}") from None
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {lineno}: expected key = value, got {raw.strip()!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"{path} line {lineno}: unknown key {key!r}")
        try:
            out[key] = _parse_value(key, text)
        except ValueError as exc:
            raise ConfigError(f"{path} line {lineno}: bad value for {key}: {exc}") from None
    return out


class RunConfig:
    """Resolved settings for one command, precedence CLI > file > defaults."""

    def __init__(self, command: str, settings: dict, unsafe_grid: bool = False):
        self.command = command
        self.unsafe_grid = unsafe_grid
        for key, value in settings.items():
            setattr(self, key, value)

    def validate(self) -> None:
        for key in _DEFAULTS:
            if _item_type(key) is float:
                value = getattr(self, key)
                for v in value if isinstance(value, list) else [value]:
                    if not math.isfinite(v):
                        raise ConfigError(f"{key} must be a finite number, got {v}")
        if any(h < 1 for h in self.horizons) or not self.horizons:
            raise ConfigError(f"horizons must be positive, got {self.horizons}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(self.seeds + [self.synth_seed]) < 0:
            raise ConfigError(f"seeds must be non-negative, got seeds {self.seeds}, "
                              f"synth_seed {self.synth_seed}")
        if not self.alphas:
            raise ConfigError("at least one noise alpha is required")
        for a in list(self.alphas) + [self.alpha]:
            if not 0.0 <= a <= 1.0:
                raise ConfigError(f"noise alpha must lie in [0, 1], got {a}")
        # a repeated value would fit, or write, the same rows twice
        for key in ("horizons", "seeds", "alphas"):
            values = getattr(self, key)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{key} lists {repeated[0]} more than once")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}, expected one of {ABLATIONS}")
        if self.variant != "lino" and (self.command == "ablate" or self.ablation != "none"):
            raise ConfigError(f"ablations are defined for the primary variant only, "
                              f"got variant {self.variant!r}")
        if self.command == "noise" and (self.variant != "lino" or self.ablation != "none"):
            raise ConfigError(f"noise sweeps the lino, mu and raw variants without "
                              f"ablation; got variant {self.variant!r}, "
                              f"ablation {self.ablation!r}")
        if self.command == "noise" and len(self.horizons) > 1:
            raise ConfigError(f"noise sweeps one horizon, got {len(self.horizons)}: "
                              f"{', '.join(map(str, self.horizons))}")
        if self.command in _TRAINING_COMMANDS and not self.unsafe_grid:
            for key, allowed in _GRID.items():
                value = getattr(self, key)
                if value not in allowed:
                    raise ConfigError(
                        f"{key}={value} is outside the supported sweep {allowed}; "
                        "pass --unsafe-grid to run it anyway")
        if self.command in _TRAINING_COMMANDS:
            # the model and training checks, before any data loads; the
            # channel count is not known yet and passes any value >= 1
            for horizon in self.horizons:
                self.fit_configs(1, (self.variant, self.ablation, horizon,
                                     self.seeds[0], self.alpha))
        if self.command in _TRAINING_COMMANDS + ("decompose",):
            self.split_spec()  # its ratio checks, before any data loads
            if self.dataset != "synth" and not os.path.exists(self.dataset):
                raise DataError(f"dataset not found: {self.dataset}")

    # -- derived pieces ----------------------------------------------------

    def fit_configs(self, channels: int, combo) -> tuple:
        """(LiNoConfig, TrainConfig) of one (variant, ablation, horizon,
        seed, alpha) combo on `channels` channels."""
        variant, ablation, horizon, seed, alpha = combo
        config = LiNoConfig(channels=channels, lookback=self.lookback,
                            horizon=horizon, dim=self.dim, blocks=self.blocks,
                            dropout=self.dropout, variant=variant, ablation=ablation)
        tcfg = TrainConfig(lr=self.lr, batch_size=self.batch, max_epochs=self.epochs,
                           patience=self.patience, noise_alpha=alpha, seed=seed)
        return config, tcfg

    def dataset_stem(self) -> str:
        if self.dataset == "synth":
            return "synth"
        return os.path.splitext(os.path.basename(self.dataset))[0]

    def run_dir(self) -> str:
        return self.out or os.path.join("runs", f"{self.command}_{self.dataset_stem()}")

    def synth_spec(self) -> SynthSpec:
        return SynthSpec(length=self.synth_length, channels=self.synth_channels,
                         s_components=self.synth_components, seed=self.synth_seed,
                         noise_sigma=self.synth_noise,
                         linear_amplitude=self.synth_linear,
                         nonlinear_amplitude=self.synth_nonlinear)

    def split_spec(self) -> SplitSpec:
        return SplitSpec.for_dataset(self.dataset_stem(), self.val_ratio, self.test_ratio)

    def load_values(self) -> np.ndarray:
        if self.dataset == "synth":
            return synth_generate(self.synth_spec()).values
        values, _ = load_csv(self.dataset)
        if self.univariate:
            values = values[:, -1:]
        return values


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------

def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


@functools.lru_cache(maxsize=None)
def _openblas():
    """The loaded OpenBLAS's `get_corename`, `get_num_threads` and
    `set_num_threads`, by stem, or None when no loaded library answers
    under one of its known symbol names; looked up once per process."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh
                     if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("openblas_", ""), ("openblas_", "64_"),
                               ("scipy_openblas_", ""), ("scipy_openblas_", "64_")):
            if hasattr(lib, f"{prefix}get_corename{suffix}"):
                blas = {stem: getattr(lib, f"{prefix}{stem}{suffix}") for stem in
                        ("get_corename", "get_num_threads", "set_num_threads")}
                blas["get_corename"].restype = ctypes.c_char_p
                return blas
    return None


def _machine() -> str:
    """The numpy and BLAS build, the CPU's numpy SIMD targets, and the
    OpenBLAS core and thread count: everything besides the config, seeds
    and batch layout that a run's bits depend on."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    # the targets numpy dispatches to on this CPU: kernels such as `np.exp`
    # give different bits on different targets
    simd = config.get("SIMD Extensions", {}).get("found")
    simd = "unknown" if simd is None else " ".join(simd) or "none"
    lib = _openblas()
    core, threads = ("unknown", "unknown") if lib is None else (
        lib["get_corename"]().decode(), lib["get_num_threads"]())
    return (f"numpy {np.__version__}, blas {blas.get('name', 'unknown')} "
            f"{blas.get('version', 'unknown')}, simd {simd}, "
            f"blas core {core}, blas threads {threads}")


def _finish(outd: str, summary: str) -> None:
    """Write the run's summary.txt, ending in the machine line, and echo it.
    The machine line stays out of the metric CSVs, which rerun
    byte-identical."""
    summary += f"machine: {_machine()}\n"
    _write_text(os.path.join(outd, "summary.txt"), summary)
    print(summary, end="")
    print(f"wrote {outd}")


# ---------------------------------------------------------------------------
# the fit loop shared by train, ablate and noise
# ---------------------------------------------------------------------------

class Fit(NamedTuple):
    """One combo's trained model and its test-split score."""

    variant: str
    ablation: str
    horizon: int
    seed: int
    alpha: float
    config: LiNoConfig
    result: TrainResult
    metrics: WindowMetrics
    runtime: float  # seconds for training plus test evaluation

    def report_row(self, dataset: str) -> ReportRow:
        return ReportRow(dataset, self.horizon, self.variant, self.ablation,
                         self.seed, self.metrics.windows, self.metrics.mse,
                         self.metrics.mae, self.runtime)


def _fit(rc: RunConfig, preps: dict, channels: int, combo) -> Fit:
    """Train and test the model of one (variant, ablation, horizon, seed,
    alpha) combo on the prepared split set of its horizon in `preps`."""
    variant, ablation, horizon, seed, alpha = combo
    config, tcfg = rc.fit_configs(channels, combo)
    prep = preps[horizon]
    started = time.perf_counter()  # `time.time` can step backwards
    result = train(*prep.train, *prep.val, config, tcfg)
    try:
        metrics = evaluate(Forecaster(result.params, config), *prep.test)
    except NonFiniteError as exc:
        raise NonFiniteError(f"test split: {exc}") from exc
    return Fit(variant, ablation, horizon, seed, alpha, config, result,
               metrics, time.perf_counter() - started)


def _fits(rc: RunConfig, combos):
    """Train and test one model per (variant, ablation, horizon, seed,
    alpha) combo and yield each `Fit` in combo order.

    The values load once and `prepare` runs once per horizon, all before
    the run directory is created: a horizon too long for the series ends
    the run before any fit. The split sets are views of one standardised
    series each, so all of them stay alive while every fit of the run fans
    out over one pool of forked workers (`fan_out`); the first failure, or
    a consumer that stops early, cancels the fits still queued.
    """
    values = rc.load_values()
    spec = rc.split_spec()
    preps = {h: prepare(values, spec, rc.lookback, h) for h in rc.horizons}
    os.makedirs(rc.run_dir(), exist_ok=True)
    yield from fan_out(_fit, combos, rc, preps, values.shape[1],
                       died="a fit worker process died")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_train(rc: RunConfig) -> int:
    outd = rc.run_dir()
    report = EvalReport()
    history_rows = []
    combos = [(rc.variant, rc.ablation, h, s, rc.alpha)
              for h in rc.horizons for s in rc.seeds]
    machine = _machine()
    for fit in _fits(rc, combos):
        report.add(fit.report_row(rc.dataset_stem()))
        history_rows.extend([fit.horizon, fit.seed, e, tr, va]
                            for e, tr, va in fit.result.history)
        name = ("checkpoint" if len(combos) == 1
                else f"checkpoint_h{fit.horizon}_s{fit.seed}")
        save_checkpoint(os.path.join(outd, name), fit.config, fit.result.params,
                        extra={"seed": fit.seed, "best_epoch": fit.result.best_epoch,
                               "best_val": fit.result.best_val, "machine": machine})
    save_csv(os.path.join(outd, "history.csv"), history_rows,
             ("horizon", "seed", "epoch", "train_mse", "val_mse"))
    save_csv(os.path.join(outd, "report.csv"), report.table(), REPORT_COLUMNS)
    _finish(outd, report.summary_text())
    return 0


def cmd_ablate(rc: RunConfig) -> int:
    outd = rc.run_dir()
    report = EvalReport()
    val_mse = {}
    combos = [(rc.variant, a, h, s, rc.alpha)
              for a in ABLATIONS for h in rc.horizons for s in rc.seeds]
    for fit in _fits(rc, combos):
        report.add(fit.report_row(rc.dataset_stem()))
        val_mse.setdefault((fit.ablation, fit.horizon), []).append(fit.result.best_val)
    rows = []
    agg = report.seed_summary()
    full = {g["horizon"]: g["mse_mean"] for g in agg if g["ablation"] == "none"}
    for g in agg:
        base = full[g["horizon"]]
        # a full model with zero error leaves the ratio undefined
        rel = (g["mse_mean"] - base) / base if base else float("nan")
        vals = val_mse[(g["ablation"], g["horizon"])]
        rows.append([g["ablation"], g["horizon"], g["seeds"], np.mean(vals),
                     g["mse_mean"], g["mae_mean"], rel])
    save_csv(os.path.join(outd, "report.csv"), report.table(), REPORT_COLUMNS)
    save_csv(os.path.join(outd, "ablation.csv"), rows,
             ("ablation", "horizon", "seeds", "val_mse_mean", "mse_mean",
              "mae_mean", "mse_vs_full"))
    _finish(outd, report.summary_text())
    return 0


def cmd_noise(rc: RunConfig) -> int:
    outd = rc.run_dir()
    horizon = rc.horizons[0]
    sweep = ("lino", "mu", "raw")
    rows = []
    seed_mse = {}
    lines = ["training-noise sweep, metrics on the standardized test split", ""]
    combos = [(v, "none", horizon, s, a)
              for v in sweep for a in rc.alphas for s in rc.seeds]
    for fit in _fits(rc, combos):
        m = fit.metrics
        rows.append([fit.variant, fit.alpha, horizon, fit.seed, m.windows, m.mse, m.mae])
        seed_mse.setdefault((fit.variant, fit.alpha), []).append(m.mse)
        lines.append(f"{fit.variant} alpha={fit.alpha:g} seed={fit.seed}: "
                     f"mse={m.mse:.6f} runtime={fit.runtime:.1f}s")
    save_csv(os.path.join(outd, "noise.csv"), rows,
             ("variant", "alpha", "horizon", "seed", "windows", "mse", "mae"))
    curves = {v: [(a, float(np.mean(seed_mse[(v, a)]))) for a in rc.alphas]
              for v in sweep}
    lines.append("")
    for variant in sweep:
        curve = curves[variant]
        monotone = all(b[1] >= a[1] for a, b in zip(curve, curve[1:]))
        path = ", ".join(f"{a:g}:{m:.4f}" for a, m in curve)
        lines.append(f"{variant}: {path} (monotone degradation: {'yes' if monotone else 'no'})")
    gap = curves["raw"][-1][1] - curves["lino"][-1][1]
    lines.append(f"raw minus lino at alpha={curves['lino'][-1][0]:g}: {gap:+.6f}")
    _finish(outd, "\n".join(lines) + "\n")
    return 0


def cmd_decompose(rc: RunConfig) -> int:
    outd = rc.run_dir()
    ckpt = rc.checkpoint or os.path.join(outd, "checkpoint")
    config, params, _ = load_checkpoint(ckpt)
    values = rc.load_values()
    if values.shape[1] != config.channels:
        raise DataError(f"dataset has {values.shape[1]} channels, "
                        f"checkpoint expects {config.channels}")
    # the test split alone: a validation split too short for the horizon is no error
    x_test, _ = split_windows(values, rc.split_spec(), config.lookback,
                              config.horizon, ("test",))["test"]
    if not 0 <= rc.window < len(x_test):
        raise ConfigError(f"window index {rc.window} outside [0, {len(x_test)})")
    os.makedirs(outd, exist_ok=True)
    dec = export_decomposition(params, config, x_test[rc.window])
    columns, rows = decomposition_table(dec)
    save_csv(os.path.join(outd, "decomposition.csv"), rows, columns)
    print(f"wrote {os.path.join(outd, 'decomposition.csv')} "
          f"({len(dec.components)} components + total)")
    return 0


def cmd_probe(rc: RunConfig) -> int:
    outd = rc.run_dir()
    ckpt = rc.checkpoint or os.path.join(outd, "checkpoint")
    config, params, _ = load_checkpoint(ckpt)
    weights_dir = os.path.join(outd, "weights")
    os.makedirs(weights_dir, exist_ok=True)
    rng = stream(rc.seeds[0], "probe")
    targets = [("model", model_map(params, config),
                config.channels * config.lookback)]
    for level in range(config.blocks):
        targets.append((f"level{level}.li", li_block_map(params, config, level),
                        config.channels * config.dim))
        targets.append((f"level{level}.no", no_block_map(params, config, level),
                        config.channels * config.dim))
    residual_rows = []
    for name, fn, in_dim in targets:
        probed = probe_affine(fn, in_dim, rng=rng)
        save_csv(os.path.join(weights_dir, f"{name}.matrix.csv"), probed.matrix,
                 [f"in{j}" for j in range(probed.matrix.shape[1])])
        save_csv(os.path.join(weights_dir, f"{name}.bias.csv"), probed.bias[None, :],
                 [f"out{j}" for j in range(len(probed.bias))])
        residual_rows.append([name, *probed.matrix.shape, probed.residual])
    save_csv(os.path.join(weights_dir, "residuals.csv"), residual_rows,
             ("map", "rows", "cols", "residual"))
    print(f"wrote {weights_dir} ({len(targets)} probed maps)")
    return 0


def cmd_synth(rc: RunConfig) -> int:
    outd = rc.run_dir()
    result = synth_generate(rc.synth_spec())
    finite = np.isfinite(result.values).all(axis=0)
    if not finite.all():
        raise DataError(f"synthetic channel {int(np.argmin(finite))} is not finite; "
                        "lower synth_noise or the amplitudes")
    os.makedirs(outd, exist_ok=True)
    save_csv(os.path.join(outd, "synth.csv"), result.values, result.columns)
    for part, series in result.components.items():
        save_csv(os.path.join(outd, f"synth_{part}.csv"), series, result.columns)
    print(f"wrote {os.path.join(outd, 'synth.csv')} "
          f"({result.values.shape[0]} points, {result.values.shape[1]} channels)")
    return 0


_DISPATCH = {
    "train": cmd_train,
    "ablate": cmd_ablate,
    "noise": cmd_noise,
    "decompose": cmd_decompose,
    "probe": cmd_probe,
    "synth": cmd_synth,
}


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lino",
        description="Forecasting workbench: recursive linear/nonlinear "
                    "pattern decomposition models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _DISPATCH:
        p = sub.add_parser(command)
        p.add_argument("--config", help="flat key=value settings file")
        p.add_argument("--dataset", help="CSV path, or 'synth' for the built-in generator")
        p.add_argument("--horizon", type=_item_type("horizons"), help="single forecast horizon")
        p.add_argument("--blocks", type=_item_type("blocks"), help="decomposition levels")
        p.add_argument("--dim", type=_item_type("dim"), help="embedding width")
        p.add_argument("--dropout", type=_item_type("dropout"))
        p.add_argument("--lr", type=_item_type("lr"))
        p.add_argument("--batch", type=_item_type("batch"))
        p.add_argument("--seed", type=_item_type("seeds"), help="single training seed")
        p.add_argument("--variant", choices=VARIANTS)
        p.add_argument("--ablate", choices=ABLATIONS, dest="ablation")
        p.add_argument("--alpha", type=_item_type("alphas"), help="training-noise level")
        p.add_argument("--out", help="run directory")
        p.add_argument("--unsafe-grid", action="store_true",
                       help="allow settings outside the supported sweep")
    return parser


def resolve(argv) -> RunConfig:
    args = build_parser().parse_args(argv)
    settings = dict(_DEFAULTS)
    if args.config:
        settings.update(parse_config_file(args.config))
    for key, value in vars(args).items():
        if key in _DEFAULTS and value is not None:
            settings[key] = value
    if args.horizon is not None:
        settings["horizons"] = [args.horizon]
    if args.seed is not None:
        settings["seeds"] = [args.seed]
    if args.alpha is not None:
        settings["alphas"] = [args.alpha]
    rc = RunConfig(args.command, settings, unsafe_grid=args.unsafe_grid)
    rc.validate()
    return rc


# exit code of each error class a command may end with, checked in order
_EXIT_CODES = ((ConfigError, 2), (DimensionError, 2), (DataError, 3), (OSError, 3),
               (NonFiniteError, 4), (WorkerDiedError, 5))


def main(argv=None) -> int:
    """Run one command. An error ends it with one `error:` line and its
    exit code, and removes the run directory if the command created it
    and it is still empty. Numpy's floating-point warnings are off while
    it runs, in forked workers too: every op and data load checks
    finiteness itself, so an overflow reaches stderr as that one line.
    OpenBLAS runs one thread, whatever the thread variables say: the
    bits depend on the count. The fan-out's worker processes, and a lone
    fit's lane thread (`tensor.Lane`), decide the CPUs."""
    blas = _openblas()
    if blas is not None:
        blas["set_num_threads"](1)
    created = None
    try:
        rc = resolve(argv)
        if not os.path.exists(rc.run_dir()):
            created = rc.run_dir()
        with np.errstate(all="ignore"):
            return _DISPATCH[rc.command](rc)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        # OSError covers an input that cannot be read and an output that
        # cannot be written
        print(f"error: {exc}", file=sys.stderr)
        if created is not None:
            with contextlib.suppress(OSError):
                os.rmdir(created)  # fails, as it should, unless empty
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
