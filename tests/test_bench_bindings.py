"""The names the benchmark under `perfbench/` binds in the `lino` package.

Its tracer (`perfbench/spans.py`, `installed`) replaces these module
attributes with timed wrappers, and its workloads call them. Tier-1 does
not collect `perfbench/`, so without this guard a refactor that drops or
renames one of them breaks only the traced benchmark run.
"""

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
