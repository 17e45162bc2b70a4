"""The names the benchmark under `perfbench/` binds in the `lino` package.

Its tracer (`perfbench/spans.py`, `installed`) replaces these module
attributes with timed wrappers, and its workloads call them. Tier-1 does
not collect `perfbench/`, so without this guard a refactor that drops or
renames one of them breaks only the traced benchmark run.
"""

import numpy as np
import pytest

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
