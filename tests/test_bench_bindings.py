"""The names the benchmark under `perfbench/` binds in the `lino` package.

Its tracer (`perfbench/spans.py`, `installed`) replaces these module
attributes with timed wrappers, and its workloads call them. Tier-1 does
not collect `perfbench/`, so without this guard a refactor that drops or
renames one of them breaks only the traced benchmark run.
"""

import numpy as np
import pytest

from helpers import force_workers

import lino.cli
import lino.evaluate
import lino.model
import lino.train

TRACED = [
    (lino.cli, ["load_csv", "prepare", "train", "evaluate", "save_checkpoint",
                "load_checkpoint", "export_decomposition", "main"]),
    (lino.evaluate, ["forward", "evaluate"]),
    (lino.train, ["forward", "backward", "adam_step", "Tape", "load_checkpoint",
                  "save_checkpoint"]),
    (lino.model, ["forward", "causal_depthwise_conv", "freq_projection",
                  "linear", "layer_norm", "Forecaster", "LiNoConfig",
                  "init_params"]),
]


@pytest.mark.parametrize("module, name", [(m, n) for m, names in TRACED for n in names],
                         ids=lambda v: getattr(v, "__name__", v))
def test_benchmark_binding_exists_and_is_callable(module, name):
    assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_train_step_forward_passes_mode_by_keyword(monkeypatch):
    """The tracer tells a step's forward from validation by the `mode`
    keyword of each `lino.train.forward` call (`spans._mode`), so every
    step calls it as `forward(x, params, config, mode="train", ...)`."""
    calls = []
    real = lino.train.forward

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs.get("mode")))
        return real(*args, **kwargs)

    monkeypatch.setattr(lino.train, "forward", spy)
    config = lino.model.LiNoConfig(channels=2, lookback=8, horizon=4, dim=8,
                                   blocks=1, dropout=0.2)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(10, 2, 8)), rng.normal(size=(10, 2, 4))
    lino.train.train(x, y, x, y, config,
                     lino.train.TrainConfig(batch_size=4, max_epochs=1))
    assert calls == [(3, "train")] * 3


@pytest.mark.parametrize("cpus", [1, 2], ids=["no-lane", "lane"])
def test_lone_fit_calls_backward_then_adam_step_once_per_step(monkeypatch, cpus):
    """The tracer wraps `lino.train.backward` as `traced(tape, loss)`, ends
    each step's sample when `lino.train.adam_step` returns, and subclasses
    `lino.train.Tape` without its own `__init__`. So every step of a lone
    fit, lane open or not, calls `backward` with exactly (tape, loss) and
    then `adam_step` once, and builds its tape through `lino.train.Tape`."""
    calls = []
    real_backward, real_adam = lino.train.backward, lino.train.adam_step

    class SpiedTape(lino.train.Tape):
        def __enter__(self):
            calls.append(("tape", self))
            return super().__enter__()

    def backward(*args, **kwargs):
        calls.append(("backward", args, kwargs))
        return real_backward(*args, **kwargs)

    def adam_step(*args, **kwargs):
        calls.append(("adam_step",))
        return real_adam(*args, **kwargs)

    monkeypatch.setattr(lino.train, "Tape", SpiedTape)
    monkeypatch.setattr(lino.train, "backward", backward)
    monkeypatch.setattr(lino.train, "adam_step", adam_step)
    force_workers(monkeypatch, cpus)
    config = lino.model.LiNoConfig(channels=2, lookback=8, horizon=4, dim=8,
                                   blocks=1, dropout=0.2)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(10, 2, 8)), rng.normal(size=(10, 2, 4))
    lino.train.train(x, y, x, y, config,
                     lino.train.TrainConfig(batch_size=4, max_epochs=2))
    assert [c[0] for c in calls] == ["tape", "backward", "adam_step"] * 6
    for at in range(0, len(calls), 3):
        tape, (_, args, kwargs) = calls[at][1], calls[at + 1]
        assert kwargs == {} and len(args) == 2 and args[0] is tape
        assert isinstance(args[1], lino.model.Tensor) and args[1].size == 1
        assert (tape.on_grad is not None) == (cpus == 2)


def test_predict_calls_model_forward_once_with_the_batch_first(monkeypatch):
    """The tracer times `lino.model.forward` as `Forecaster.predict` calls
    it and names the sample by `len(args[0])` (`spans.wrap_eval_forward`,
    `model.eval_fwd_ms.b<N>`). So one `predict` is one call, with the
    batch as the first positional argument."""
    calls = []
    real = lino.model.forward

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lino.model, "forward", spy)
    config = lino.model.LiNoConfig(channels=2, lookback=8, horizon=4, dim=8)
    params = lino.model.init_params(config, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(5, 2, 8))
    lino.model.Forecaster(params, config).predict(x)
    assert len(calls) == 1 and calls[0][0] is x
