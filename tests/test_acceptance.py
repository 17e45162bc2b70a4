"""Sign-off checklist, one test per criterion.

Every test prints a single `acceptance NN <label>: PASS/FAIL` line (run
with `-s` to see them on success), so the suite doubles as a release
gate. The two ETT benchmarks skip loudly when the CSVs are not on disk;
everything else is self-contained and runs in a few minutes on a laptop
CPU.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import check_gradients, randomized_params, relative_error
from lino import cli
from lino.data import SplitSpec, SynthSpec, prepare, synth_generate
from lino.evaluate import evaluate, li_block_map, probe_affine
from lino.model import (ABLATIONS, VARIANTS, Forecaster, LiNoConfig, forward,
                        init_params)
from lino.seeding import stream
from lino.spectral import _bases, freq_projection, n_bins
from lino.tensor import (Tape, Tensor, add, backward, causal_depthwise_conv,
                         concat, dropout, layer_norm, linear, mean_all, mul,
                         repeat_axis, scale, softmax_axis, sub, sum_all,
                         sum_axis, tanh)
from lino.train import TrainConfig, mse_loss, train


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"acceptance {number:02d} {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{label}{tail}"


def _skip(number: int, label: str, reason: str) -> None:
    print(f"acceptance {number:02d} {label}: SKIP ({reason})")
    pytest.skip(reason)


# ---------------------------------------------------------------------------
# 1. gradients: every primitive against central differences, then the
#    whole model end to end on a tiny configuration
# ---------------------------------------------------------------------------

# (name, op, input arrays). A case name starts with the tape op name it
# checks, so a recorded `node.op` can be matched to its case.
_r = np.random.default_rng(11).normal
GRADIENT_CASES = [
    ("add", lambda a, b: add(a, b), [_r(size=(3, 4)), _r(size=(3, 4))]),
    ("sub", lambda a, b: sub(a, b), [_r(size=(3, 4)), _r(size=(3, 4))]),
    ("mul", lambda a, b: mul(a, b), [_r(size=(3, 4)), _r(size=(3, 4))]),
    ("scale", lambda a: scale(a, 1.7), [_r(size=(3, 4))]),
    ("tanh", tanh, [0.5 * _r(size=(3, 4))]),
    ("linear", lambda x, w, b: linear(x, w, b),
     [_r(size=(5, 4)), _r(size=(4, 3)), _r(size=(3,))]),
    ("linear_nobias", lambda x, w: linear(x, w),
     [_r(size=(5, 4)), _r(size=(4, 3))]),
    ("causal_depthwise_conv",
     lambda h, p, b: causal_depthwise_conv(h, p, b),
     [_r(size=(2, 3, 6)), _r(size=(3, 6)), _r(size=(3,))]),
    ("softmax_axis_last", lambda x: softmax_axis(x, -1), [_r(size=(3, 5))]),
    ("softmax_axis_0", lambda x: softmax_axis(x, 0), [_r(size=(4, 3))]),
    ("layer_norm", lambda x, g, b: layer_norm(x, g, b),
     [_r(size=(4, 6)), 1.0 + 0.1 * _r(size=(6,)), _r(size=(6,))]),
    ("dropout_train",
     lambda x: dropout(x, 0.4, "train", np.random.default_rng(7)),
     [_r(size=(4, 5))]),
    ("dropout_eval", lambda x: dropout(x, 0.4, "eval"), [_r(size=(4, 5))]),
    ("sum_axis", lambda x: sum_axis(x, 1), [_r(size=(3, 4, 2))]),
    ("sum_axis_keep", lambda x: sum_axis(x, -1, keepdims=True),
     [_r(size=(3, 4))]),
    ("sum_all", sum_all, [_r(size=(3, 4))]),
    ("mean_all", mean_all, [_r(size=(3, 4))]),
    ("concat", lambda a, b: concat([a, b], axis=-1),
     [_r(size=(3, 2)), _r(size=(3, 4))]),
    ("repeat_axis", lambda x: repeat_axis(x, 1, 5), [_r(size=(3, 1, 4))]),
    ("freq_projection", freq_projection, [_r(size=(5, 5)), _r(size=(5, 5))]),
    # leading axes flatten into one GEMM; this covers that reshape
    ("linear_batched", lambda x, w, b: linear(x, w, b),
     [_r(size=(2, 3, 4)), _r(size=(4, 3)), _r(size=(3,))]),
]


def _model_gradient_check(config, rng):
    """Tape gradients of a tiny model's loss against central differences,
    parameter by parameter. Returns (worst relative error, names of the
    parameters that got no gradient); a parameter with none must have
    central differences of exactly zero."""
    params = randomized_params(config, seed=3)
    x = rng.normal(size=(4, 2, 8))
    y = rng.normal(size=(4, 2, 4))

    def loss_value() -> float:
        res = forward(x, params, config)
        return mse_loss(res.y, Tensor(y)).item()

    with Tape() as tape:
        res = forward(x, params, config)
        loss = mse_loss(res.y, Tensor(y))
    grads = backward(tape, loss)

    worst, missing = 0.0, []
    h = 1e-5
    for name, tensor in params.items():
        if tensor not in grads:
            missing.append(name)
        flat = tensor.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            up = loss_value()
            flat[j] = keep - h
            down = loss_value()
            flat[j] = keep
            numeric[j] = (up - down) / (2.0 * h)
        analytic = grads[tensor].reshape(-1) if tensor in grads else np.zeros_like(flat)
        err = relative_error(analytic, numeric)
        assert err < 1e-3, f"{name}: rel err {err:.2e}"
        worst = max(worst, err)
    return worst, missing


def test_01_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(11)
    for name, op, arrays in GRADIENT_CASES:
        assert check_gradients(op, arrays, tol=1e-4), name

    config = LiNoConfig(channels=2, lookback=8, horizon=4, dim=8, blocks=1)
    worst, missing = _model_gradient_check(config, rng)
    assert missing == [], f"no gradient for {missing}"

    elapsed = time.time() - t0
    _verdict(1, "gradient suite", elapsed < 60.0,
             f"{len(GRADIENT_CASES)} primitives, end-to-end worst rel err "
             f"{worst:.2e}, {elapsed:.1f}s")


@pytest.mark.parametrize("ablation, unused", [
    ("no_te", ["level0.no.time.w", "level0.no.time.b"]),
    ("no_fe", ["level0.no.freq.w_re", "level0.no.freq.w_im"]),
])
def test_01_gradients_with_one_projection(ablation, unused):
    """01's end-to-end check when the fused projection keeps only one of
    its two terms: the kept term's gradients match central differences
    and the dropped term's parameters get none."""
    config = LiNoConfig(channels=2, lookback=8, horizon=4, dim=8, blocks=1,
                        ablation=ablation)
    _, missing = _model_gradient_check(config, np.random.default_rng(11))
    assert missing == unused


def test_gradient_cases_cover_model_primitives():
    """Guard on 01's case list: every op a train-mode forward plus loss
    records, in every variant and every ablation, has a gradient case."""
    names = [name for name, _, _ in GRADIENT_CASES]
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 2, 8))
    y = rng.normal(size=(3, 2, 4))
    base = LiNoConfig(channels=2, lookback=8, horizon=4, dim=8, blocks=2,
                      dropout=0.2)
    configs = ([replace(base, variant=v) for v in VARIANTS]
               + [replace(base, ablation=a) for a in ABLATIONS])
    recorded = set()
    for config in configs:
        params = init_params(config, stream(0, "init"))
        with Tape() as tape:
            res = forward(x, params, config, mode="train", rng=stream(0, "dropout"))
            mse_loss(res.y, Tensor(y))
        recorded |= {node.op for node in tape.nodes}
    uncovered = sorted(op for op in recorded
                       if not any(name.startswith(op) for name in names))
    assert "dropout" in recorded and "freq_projection" in recorded
    assert not uncovered, f"ops with no gradient case: {uncovered}"


# ---------------------------------------------------------------------------
# 2. the residual recursion telescopes: embedded input equals the sum of
#    all extracted patterns plus the final remainder
# ---------------------------------------------------------------------------

def test_02_decomposition_completeness():
    rng = np.random.default_rng(2)
    worst = 0.0
    for blocks in (1, 2, 3, 4):
        config = LiNoConfig(channels=3, lookback=16, horizon=8, dim=12,
                            blocks=blocks)
        params = randomized_params(config, seed=blocks)
        x = rng.normal(size=(100, 3, 16))
        res = forward(x, params, config)
        total = np.zeros_like(res.trace.embedded.data)
        for lvl in res.trace.levels:
            total = total + lvl.li_pattern.data + lvl.no_pattern.data
        total = total + res.trace.final_remainder.data
        gap = float(np.abs(res.trace.embedded.data - total).max())
        worst = max(worst, gap)
    _verdict(2, "decomposition completeness", worst < 1e-9,
             f"worst gap {worst:.2e} over 100 inputs, depths 1-4")


# ---------------------------------------------------------------------------
# 3. the affine probe reconstructs the linear block exactly and exposes
#    its causal banded structure
# ---------------------------------------------------------------------------

def test_03_affine_probe():
    config = LiNoConfig(channels=2, lookback=10, horizon=4, dim=8, blocks=1)
    params = randomized_params(config, seed=5)
    c, d = config.channels, config.dim
    probe = probe_affine(li_block_map(params, config, 0), c * d,
                         rng=stream(0, "probe"))
    assert probe.residual < 1e-8, probe.residual

    phi = params["level0.li.phi"].data
    beta = params["level0.li.beta"].data
    a = probe.matrix.reshape(c, d, c, d)
    structural = 0.0
    for ci in range(c):
        for cj in range(c):
            for i in range(d):
                for j in range(d):
                    want = phi[ci, i - j] if (ci == cj and i >= j) else 0.0
                    structural = max(structural, abs(a[ci, i, cj, j] - want))
    bias_gap = float(np.abs(probe.bias - np.repeat(beta, d)).max())
    ok = probe.residual < 1e-8 and structural < 1e-8 and bias_gap < 1e-12
    _verdict(3, "affine probe", ok,
             f"residual {probe.residual:.2e}, band error {structural:.2e}")


# ---------------------------------------------------------------------------
# 4. spectral layer: roundtrip, energy preservation, identity weights
# ---------------------------------------------------------------------------

def test_04_spectral_suite():
    rng = np.random.default_rng(4)
    worst_round = 0.0
    worst_parseval = 0.0
    for n in (8, 12, 16, 20, 64):
        x = rng.normal(size=(5, n))
        fwd, inv = _bases(n)
        spec = x @ fwd
        back = spec @ inv
        worst_round = max(worst_round, float(np.abs(back - x).max()))

        b = n_bins(n)
        power = spec[:, :b] ** 2 + spec[:, b:] ** 2
        weights = np.full(power.shape[-1], 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0  # Nyquist bin is real for even n
        lhs = n * (x ** 2).sum(axis=-1)
        rhs = (power * weights).sum(axis=-1)
        rel = float((np.abs(lhs - rhs) / np.abs(lhs)).max())
        worst_parseval = max(worst_parseval, rel)

    d = 8
    b = n_bins(d)
    s = freq_projection(Tensor(np.eye(b)), Tensor(np.zeros((b, b)))).data
    ident = float(np.abs(s - np.eye(d)).max())

    ok = worst_round < 1e-10 and worst_parseval < 1e-8 and ident < 1e-9
    _verdict(4, "spectral suite", ok,
             f"roundtrip {worst_round:.2e}, parseval {worst_parseval:.2e}, "
             f"identity {ident:.2e}")


# ---------------------------------------------------------------------------
# 5. single-level model with a uniform averaging kernel reduces to a
#    plain moving average, bit for bit
# ---------------------------------------------------------------------------

def test_05_moving_average_special_case():
    k = 4
    config = LiNoConfig(channels=2, lookback=12, horizon=4, dim=8, blocks=1)
    params = init_params(config, stream(0, "init"))
    phi = np.zeros((config.channels, config.dim))
    phi[:, :k] = 1.0 / k
    params["level0.li.phi"] = Tensor(phi, requires_grad=True)

    rng = np.random.default_rng(55)
    x = rng.normal(size=(6, 2, 12))
    res = forward(x, params, config)
    h = res.trace.embedded.data

    # scalar accumulation in ascending tap order, the same order the
    # convolution promises, so equality is exact rather than approximate
    want = np.zeros_like(h)
    for n in range(h.shape[0]):
        for c in range(h.shape[1]):
            for dpos in range(h.shape[2]):
                acc = 0.0
                for kk in range(min(dpos + 1, k)):
                    acc += (1.0 / k) * h[n, c, dpos - kk]
                want[n, c, dpos] = acc

    same = np.array_equal(res.trace.levels[0].li_pattern.data, want)
    _verdict(5, "moving-average special case", same,
             "level-1 linear pattern is bitwise a k=4 moving average")


# ---------------------------------------------------------------------------
# 6. a pure-linear configuration drives train MSE to ~zero on a clean
#    two-channel linear trend
# ---------------------------------------------------------------------------

def test_06_overfit_sanity():
    t0 = time.time()
    steps = np.arange(400, dtype=np.float64)
    values = np.stack([0.05 * steps + 3.0, -0.02 * steps + 1.0], axis=1)
    prep = prepare(values, SplitSpec(ratios=(0.7, 0.1, 0.2)), 24, 8)
    config = LiNoConfig(channels=2, lookback=24, horizon=8, dim=16, blocks=1,
                        ablation="no_no")
    tcfg = TrainConfig(lr=1e-2, batch_size=64, max_epochs=200, patience=200,
                       seed=1)
    result = train(*prep.train, *prep.val, config, tcfg)
    best = min(entry[1] for entry in result.history)
    elapsed = time.time() - t0
    _verdict(6, "overfit sanity", best < 1e-3 and elapsed < 60.0,
             f"best train MSE {best:.2e} after {len(result.history)} epochs, "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7/8. desk-scale ETT benchmarks; these need the CSVs on disk and skip
#      loudly when they are absent
# ---------------------------------------------------------------------------

def _ett_path(name: str) -> Path | None:
    roots = []
    env = os.environ.get("LINO_DATA_DIR")
    if env:
        roots.append(Path(env))
    roots.append(Path("data"))
    for root in roots:
        p = root / name
        if p.exists():
            return p
    return None


def _run_benchmark(tmp_path: Path, dataset: Path, *, seeds, univariate: bool,
                   epochs: int) -> tuple[float, float]:
    cfg = tmp_path / "bench.cfg"
    lines = [
        f"dataset = {dataset}",
        "lookback = 96",
        "horizons = 96",
        f"seeds = {', '.join(str(s) for s in seeds)}",
        "dim = 256",
        "blocks = 2",
        "lr = 1e-4",
        "batch = 32",
        f"epochs = {epochs}",
        "patience = 6",
        f"univariate = {'true' if univariate else 'false'}",
        f"out = {tmp_path / 'run'}",
    ]
    cfg.write_text("\n".join(lines) + "\n")
    assert cli.main(["train", "--config", str(cfg)]) == 0
    rows = (tmp_path / "run" / "report.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    mse_i, mae_i = header.index("mse"), header.index("mae")
    mses = [float(r.split(",")[mse_i]) for r in rows[1:]]
    maes = [float(r.split(",")[mae_i]) for r in rows[1:]]
    return float(np.mean(mses)), float(np.mean(maes))


def test_07_etth2_multivariate(tmp_path):
    label = "ETTh2 multivariate benchmark"
    path = _ett_path("ETTh2.csv")
    if path is None:
        _skip(7, label, "ETTh2.csv not found under $LINO_DATA_DIR or ./data; "
                        "place the ETT CSVs there to run this benchmark")
    t0 = time.time()
    mse, mae = _run_benchmark(tmp_path, path, seeds=(1, 2, 3),
                              univariate=False, epochs=8)
    elapsed = time.time() - t0
    ok = mse <= 0.33 and mae <= 0.37 and elapsed <= 45 * 60
    _verdict(7, label, ok,
             f"mean MSE {mse:.3f} (<=0.33), mean MAE {mae:.3f} (<=0.37), "
             f"{elapsed / 60:.1f} min")


def test_08_etth1_univariate(tmp_path):
    label = "ETTh1 univariate benchmark"
    path = _ett_path("ETTh1.csv")
    if path is None:
        _skip(8, label, "ETTh1.csv not found under $LINO_DATA_DIR or ./data; "
                        "place the ETT CSVs there to run this benchmark")
    t0 = time.time()
    mse, _ = _run_benchmark(tmp_path, path, seeds=(1,), univariate=True,
                            epochs=8)
    elapsed = time.time() - t0
    ok = mse <= 0.075 and elapsed <= 15 * 60
    _verdict(8, label, ok, f"MSE {mse:.3f} (<=0.075), {elapsed / 60:.1f} min")


# ---------------------------------------------------------------------------
# 9. removing either pattern family hurts validation MSE on the mixed
#    synthetic series (direction only, averaged over seeds)
# ---------------------------------------------------------------------------

MIXED = SynthSpec(length=2000, channels=3, s_components=2, seed=0,
                  noise_sigma=0.1, nonlinear_amplitude=1.5)
MIXED_LOOKBACK = 48
MIXED_HORIZON = 24


def _mixed_prepared():
    values = synth_generate(MIXED).values
    return prepare(values, SplitSpec(ratios=(0.7, 0.1, 0.2)),
                   MIXED_LOOKBACK, MIXED_HORIZON)


def test_09_ablation_ordering():
    prep = _mixed_prepared()
    seeds = (1, 2, 3)
    mean_val = {}
    for ablation in ("none", "no_li", "no_no"):
        vals = []
        for seed in seeds:
            config = LiNoConfig(channels=3, lookback=MIXED_LOOKBACK,
                                horizon=MIXED_HORIZON, dim=16, blocks=2,
                                ablation=ablation)
            tcfg = TrainConfig(lr=3e-3, batch_size=64, max_epochs=80,
                               patience=8, seed=seed)
            vals.append(train(*prep.train, *prep.val, config, tcfg).best_val)
        mean_val[ablation] = float(np.mean(vals))
    ok = (mean_val["none"] < mean_val["no_li"]
          and mean_val["none"] < mean_val["no_no"])
    _verdict(9, "ablation ordering", ok,
             f"full {mean_val['none']:.4f} < no-Li {mean_val['no_li']:.4f} "
             f"and < no-No {mean_val['no_no']:.4f}")


# ---------------------------------------------------------------------------
# 10. under heavy input noise the residual design beats the chained
#     variant, and the sweep report covers all five noise levels
# ---------------------------------------------------------------------------

def test_10_noise_robustness(tmp_path):
    prep = _mixed_prepared()
    seeds = (1, 2, 3)
    mean_mse = {}
    for variant in ("lino", "raw"):
        vals = []
        for seed in seeds:
            config = LiNoConfig(channels=3, lookback=MIXED_LOOKBACK,
                                horizon=MIXED_HORIZON, dim=16, blocks=2,
                                variant=variant)
            tcfg = TrainConfig(lr=3e-3, batch_size=64, max_epochs=60,
                               patience=8, noise_alpha=1.0, seed=seed)
            result = train(*prep.train, *prep.val, config, tcfg)
            vals.append(evaluate(Forecaster(result.params, config),
                                 *prep.test).mse)
        mean_mse[variant] = float(np.mean(vals))

    cfg = tmp_path / "noise.cfg"
    cfg.write_text("\n".join([
        "dataset = synth", "synth_length = 360", "lookback = 16",
        "horizons = 8", "seeds = 1", "dim = 8", "blocks = 1", "lr = 1e-2",
        "batch = 64", "epochs = 2", "patience = 2",
        "alphas = 0.0, 0.25, 0.5, 0.75, 1.0",
        f"out = {tmp_path / 'sweep'}",
    ]) + "\n")
    assert cli.main(["noise", "--config", str(cfg), "--unsafe-grid"]) == 0
    rows = (tmp_path / "sweep" / "noise.csv").read_text().strip().splitlines()
    alpha_i = rows[0].split(",").index("alpha")
    alphas = sorted({float(r.split(",")[alpha_i]) for r in rows[1:]})

    ok = (mean_mse["lino"] <= mean_mse["raw"]
          and alphas == [0.0, 0.25, 0.5, 0.75, 1.0])
    _verdict(10, "noise robustness", ok,
             f"alpha=1.0 test MSE lino {mean_mse['lino']:.4f} <= raw "
             f"{mean_mse['raw']:.4f}; sweep covers {len(alphas)} alphas")


# ---------------------------------------------------------------------------
# 11. every command is bitwise deterministic in its metric files
# ---------------------------------------------------------------------------

def _csv_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*.csv"))}


def test_11_cli_determinism(tmp_path):
    base = [
        "dataset = synth", "synth_length = 360", "synth_channels = 2",
        "lookback = 16", "horizons = 8", "seeds = 1", "dim = 8",
        "blocks = 1", "lr = 1e-2", "batch = 64", "epochs = 2",
        "patience = 2", "alphas = 0.0, 1.0",
    ]
    train_dirs = []

    def run_twice(command: str, extra: list) -> None:
        for attempt in ("a", "b"):
            outd = tmp_path / f"{command}_{attempt}"
            cfg = tmp_path / f"{command}_{attempt}.cfg"
            cfg.write_text("\n".join(base + extra + [f"out = {outd}"]) + "\n")
            argv = [command, "--config", str(cfg), "--unsafe-grid"]
            assert cli.main(argv) == 0, command
            if command == "train":
                train_dirs.append(outd)
        left = _csv_bytes(tmp_path / f"{command}_a")
        right = _csv_bytes(tmp_path / f"{command}_b")
        assert left.keys() == right.keys(), command
        assert left, f"{command} wrote no metric files"
        for name in left:
            assert left[name] == right[name], f"{command}: {name} differs"

    run_twice("synth", [])
    run_twice("train", [])
    checkpoint = train_dirs[0] / "checkpoint"
    run_twice("ablate", [])
    run_twice("noise", [])
    run_twice("decompose", [f"checkpoint = {checkpoint}"])
    run_twice("probe", [f"checkpoint = {checkpoint}"])
    _verdict(11, "determinism", True,
             "synth/train/ablate/noise/decompose/probe metric files "
             "reproduce bitwise")
