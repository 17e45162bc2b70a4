"""End-to-end command tests, run in-process against temp directories.

Every training run here is deliberately tiny; the point is artifact
contracts, precedence rules, exit codes, and byte-level reproducibility,
not model quality.
"""

import contextlib
import csv
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (TextbookAdam, force_workers, rewrite_header, rewrite_model_header,
                     taped_records)

import lino.cli as cli
import lino.model
import lino.tensor
import lino.train
from lino.data import ETT_SPLIT_COUNTS, SplitSpec, prepare, split_windows
from lino.errors import ConfigError, DataError, NonFiniteError
from lino.evaluate import decomposition_table, export_decomposition
from lino.fanout import _cpus
from lino.model import Forecaster, LiNoConfig, init_params
from lino.seeding import stream
from lino.train import load_checkpoint, save_checkpoint


def write_cfg(path, **kv):
    lines = [f"{key} = {value}" for key, value in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


TINY = dict(dataset="synth", synth_length=360, lookback=16, horizons=8,
            seeds=1, dim=8, blocks=1, lr="1e-2", batch=64, epochs=2,
            patience=2)


def run(args):
    return cli.main([a for a in args if a])


@contextlib.contextmanager
def no_runtime_warnings():
    """Fail if the block emits a RuntimeWarning, numpy's floating-point
    warnings included."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not messages, messages


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigFile:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            cli.parse_config_file(str(tmp_path / "nope.cfg"))

    def test_unknown_key_names_line(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("lookback = 8\nwat = 3\n")
        with pytest.raises(ConfigError, match="line 2.*wat"):
            cli.parse_config_file(str(cfg))

    def test_bad_value_names_line_and_key(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("# comment\n\nlr = fast\n")
        with pytest.raises(ConfigError, match="line 3.*lr"):
            cli.parse_config_file(str(cfg))

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ConfigError, match="line 1"):
            cli.parse_config_file(str(cfg))

    def test_lists_comments_and_bools(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("seeds = 1, 2,3  # trailing comment\nunivariate = yes\n"
                       "alphas = 0,0.5\n")
        parsed = cli.parse_config_file(str(cfg))
        assert parsed == {"seeds": [1, 2, 3], "univariate": True,
                          "alphas": [0.0, 0.5]}

    @pytest.mark.parametrize("key,text,expected", [
        ("dataset", "data/ETTh2.csv", "data/ETTh2.csv"),
        ("lookback", "48", 48),
        ("lr", "1e-3", 1e-3),
        ("univariate", "no", False),
        ("horizons", "24, 48,", [24, 48]),
        ("alphas", "0, 0.5", [0.0, 0.5]),
    ])
    def test_value_parses_as_its_default_type(self, tmp_path, key, text, expected):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"{key} = {text}\n")
        parsed = cli.parse_config_file(str(cfg))[key]
        assert parsed == expected
        assert type(parsed) is type(expected)
        if isinstance(expected, list):
            assert [type(v) for v in parsed] == [type(v) for v in expected]

    @pytest.mark.parametrize("flag,text,dest,key", [
        ("--horizon", "24", "horizon", "horizons"),
        ("--blocks", "3", "blocks", "blocks"),
        ("--dim", "16", "dim", "dim"),
        ("--dropout", "0.2", "dropout", "dropout"),
        ("--lr", "1e-3", "lr", "lr"),
        ("--batch", "64", "batch", "batch"),
        ("--seed", "7", "seed", "seeds"),
        ("--alpha", "0.5", "alpha", "alphas"),
    ])
    def test_flag_parses_as_its_key_default_type(self, flag, text, dest, key):
        """A typed flag parses as its config key's default type, or as the
        item type of a list key it feeds."""
        default = cli._DEFAULTS[key]
        expected = type(default[0]) if isinstance(default, list) else type(default)
        parsed = vars(cli.build_parser().parse_args(["train", flag, text]))[dest]
        assert type(parsed) is expected
        assert parsed == expected(text)

    @pytest.mark.parametrize("key,text", [("lookback", "4.5"), ("seeds", "1, 2.5"),
                                          ("univariate", "maybe"), ("dropout", "x")])
    def test_value_of_wrong_type_rejected(self, tmp_path, key, text):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"{key} = {text}\n")
        with pytest.raises(ConfigError, match=f"line 1: bad value for {key}"):
            cli.parse_config_file(str(cfg))

    def test_readme_table_lists_every_key_and_default(self):
        """The README's config key table names exactly the keys a config
        file may set, each with its default."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Config keys\n", 1)[1].split("\n## ", 1)[0]
        rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
                for line in section.splitlines() if line.startswith("| `")]
        assert [row[0] for row in rows] == list(cli._DEFAULTS)
        for key, default, _ in rows:
            assert cli._parse_value(key, default) == cli._DEFAULTS[key], key

    def test_cli_overrides_file_overrides_defaults(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg", dim=512, blocks=3)
        rc = cli.resolve(["train", "--config", cfg, "--dim", "256"])
        assert rc.dim == 256          # flag beats file
        assert rc.blocks == 3         # file beats default
        assert rc.lookback == 96      # untouched default

    def test_horizon_and_seed_flags_collapse_lists(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg", horizons="24,48", seeds="1,2")
        rc = cli.resolve(["train", "--config", cfg, "--horizon", "12",
                          "--seed", "7"])
        assert rc.horizons == [12] and rc.seeds == [7]


@pytest.fixture
def no_compute(monkeypatch):
    """Fail the test if a command gets past validation: it may neither
    load or generate data nor train."""
    def refuse(*args, **kwargs):
        raise AssertionError("ran past validation")

    monkeypatch.setattr(cli, "train", refuse)
    monkeypatch.setattr(cli, "synth_generate", refuse)
    monkeypatch.setattr(cli.RunConfig, "load_values", refuse)


class TestValidation:
    def test_off_grid_dim_rejected(self):
        with pytest.raises(ConfigError, match="dim=100.*unsafe-grid"):
            cli.resolve(["train", "--dim", "100"])

    def test_unsafe_grid_allows_it(self):
        rc = cli.resolve(["train", "--dim", "100", "--unsafe-grid"])
        assert rc.dim == 100

    def test_grid_not_enforced_for_non_training_commands(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg", dim=100, dataset="synth")
        rc = cli.resolve(["decompose", "--config", cfg])
        assert rc.dim == 100

    @pytest.mark.parametrize("flag,value", [("--lr", "0.5"), ("--batch", "7"),
                                            ("--dropout", "0.9"),
                                            ("--blocks", "9")])
    def test_each_grid_axis_checked(self, flag, value):
        assert cli.main(["train", flag, value]) == 2

    def test_missing_dataset_fails_before_compute(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = cli.main(["train", "--dataset", "absent.csv", "--out", "r"])
        assert code == 3
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv", [
        ["ablate", "--variant", "mu"],
        ["ablate", "--variant", "raw"],
        ["train", "--variant", "mu", "--ablate", "no_li"],
        ["noise", "--variant", "ln", "--ablate", "no_cd"],
    ])
    def test_ablation_needs_primary_variant(self, argv, tmp_path, capsys, no_compute):
        out = tmp_path / "r"
        assert cli.main(argv + ["--out", str(out), "--unsafe-grid"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ablations are defined for the primary variant only")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["noise", "--variant", "ln"],
        ["noise", "--ablate", "no_cd"],
    ])
    def test_noise_runs_only_its_own_sweep(self, argv, tmp_path, capsys, no_compute):
        """`noise` always sweeps lino, mu and raw without ablation, so a
        variant or ablation it would ignore is refused before any data
        loads."""
        out = tmp_path / "r"
        assert cli.main(argv + ["--out", str(out), "--unsafe-grid"]) == 2
        assert capsys.readouterr().err.startswith("error: noise sweeps the lino, mu and raw")
        assert not out.exists()

    def test_noise_refuses_more_than_one_horizon(self, tmp_path, capsys, no_compute):
        """`noise` fits one horizon; a list of two is refused before any
        data loads instead of fitting only the first."""
        cfg = write_cfg(tmp_path / "n.cfg", **{**TINY, "horizons": "8, 12"})
        out = tmp_path / "r"
        assert cli.main(["noise", "--config", cfg, "--out", str(out), "--unsafe-grid"]) == 2
        assert capsys.readouterr().err == "error: noise sweeps one horizon, got 2: 8, 12\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, key, argv", [
        ("train", "seeds", ["--seed", "-1"]),
        ("probe", "seeds", ["--config", "seeds = -1"]),
        ("synth", "synth_seed", ["--config", "synth_seed = -3"]),
    ])
    def test_negative_seed_rejected_before_data(self, command, key, argv, tmp_path,
                                                capsys, no_compute):
        if argv[0] == "--config":
            (tmp_path / "s.cfg").write_text(argv[1] + "\n")
            argv = ["--config", str(tmp_path / "s.cfg")]
        out = tmp_path / "r"
        assert cli.main([command, *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seeds must be non-negative") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("train", "dim", 7), ("train", "lookback", 0), ("train", "dropout", 1.0),
        ("train", "blocks", 0), ("train", "batch", 0), ("train", "lr", -1),
        ("train", "patience", 0), ("train", "epochs", 0),
        ("ablate", "dim", 7), ("noise", "epochs", 0),
    ])
    def test_model_and_training_settings_rejected_before_data(
            self, command, key, value, tmp_path, capsys, no_compute):
        """What `LiNoConfig` or `TrainConfig` would reject is refused
        before any data loads or the run directory exists, also for a
        multi-combo command that would fit in worker processes."""
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, key: value})
        out = tmp_path / "r"
        assert cli.main([command, "--config", cfg, "--out", str(out),
                         "--unsafe-grid"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value, repeated", [
        ("train", "seeds", "1, 1", "1"), ("train", "horizons", "8, 4, 8", "8"),
        ("ablate", "seeds", "2, 3, 2", "2"), ("noise", "alphas", "0, 0.5, 0.0", "0.0"),
        ("probe", "seeds", "1, 1", "1"),
    ])
    def test_repeated_list_value_rejected_before_data(self, command, key, value, repeated,
                                                      tmp_path, capsys, no_compute):
        """A list that names a value twice would fit and write the same
        rows twice, and report a spread over one seed."""
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, key: value})
        out = tmp_path / "r"
        assert cli.main([command, "--config", cfg, "--out", str(out), "--unsafe-grid"]) == 2
        assert capsys.readouterr().err == f"error: {key} lists {repeated} more than once\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate", "noise", "decompose"])
    def test_split_ratios_rejected_before_data(self, command, tmp_path, capsys, no_compute):
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, "val_ratio": 0.9})
        out = tmp_path / "r"
        assert cli.main([command, "--config", cfg, "--out", str(out), "--unsafe-grid"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: ratios must be three positive numbers")
        assert not out.exists()

    FLOAT_KEYS = ("lr", "dropout", "alpha", "alphas", "val_ratio", "test_ratio",
                  "synth_noise", "synth_linear", "synth_nonlinear")

    def test_float_keys_listed(self):
        assert set(self.FLOAT_KEYS) == {k for k in cli._DEFAULTS if cli._item_type(k) is float}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected_before_data(self, key, value, tmp_path, capsys,
                                                   no_compute):
        """A non-finite float setting is a config error: exit 2 with an
        `error:` line naming the key, before any data loads or the run
        directory exists."""
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, key: value})
        out = tmp_path / "r"
        assert cli.main(["train", "--config", cfg, "--out", str(out), "--unsafe-grid"]) == 2
        assert capsys.readouterr().err == f"error: {key} must be a finite number, got {value}\n"
        assert not out.exists()

    def test_ett_names_pick_published_split_counts(self):
        def spec_for(path):
            rc = cli.RunConfig("train", {**cli._DEFAULTS, "dataset": path})
            return rc.split_spec()

        assert spec_for("data/ETTh1.csv").counts == ETT_SPLIT_COUNTS["etth"]
        assert spec_for("ETTm2.csv").counts == ETT_SPLIT_COUNTS["ettm"]
        assert spec_for("other.csv").ratios == (0.7, 0.1, 0.2)


class TestTrainCommand:
    def test_writes_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "t.cfg", **TINY)
        assert run(["train", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--unsafe-grid"]) == 0
        for name in ("checkpoint", "history.csv", "report.csv", "summary.txt"):
            assert (tmp_path / "r" / name).exists()
        rows = read_rows(tmp_path / "r" / "report.csv")
        assert rows[0] == list(cli.REPORT_COLUMNS)
        assert len(rows) == 2
        assert "standardized scale" in (tmp_path / "r" / "summary.txt").read_text()

    def test_runtime_survives_a_clock_stepping_back(self, tmp_path, capsys, monkeypatch):
        """The wall clock can step backwards mid-fit (an NTP correction);
        a fit's runtime comes from a monotonic clock, so it stays >= 0."""
        clock = iter(range(10 ** 9, 0, -1000))
        monkeypatch.setattr(time, "time", lambda: float(next(clock)))
        cfg = write_cfg(tmp_path / "t.cfg", **TINY)
        assert run(["train", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--unsafe-grid"]) == 0
        text = (tmp_path / "r" / "summary.txt").read_text()
        assert [float(t) >= 0 for t in re.findall(r"runtime=(\S+)s", text)] == [True]

    def test_same_seed_reruns_bitwise(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "t.cfg", **TINY)
        for name in ("a", "b"):
            assert run(["train", "--config", cfg, "--seed", "1",
                        "--out", str(tmp_path / name), "--unsafe-grid"]) == 0
        for fname in ("checkpoint", "history.csv", "report.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == \
                (tmp_path / "b" / fname).read_bytes()

    def test_metric_files_match_per_parameter_adam(self, tmp_path, capsys, monkeypatch):
        """The flat in-place Adam writes the metric CSVs and checkpoint
        of a two-epoch synth train byte for byte as a per-parameter
        textbook Adam does: with the lane closed, and with it open, where
        blocks of 40 values (so that parameters straddle blocks) update
        during the backward walk. The reference runs with no lane, where
        `adam_step` is a step's only update."""
        cfg = write_cfg(tmp_path / "t.cfg", **TINY)
        monkeypatch.setattr("lino.train._ADAM_BLOCK", 40)
        for cpus in (1, 2):
            force_workers(monkeypatch, cpus)
            assert run(["train", "--config", cfg, "--out", str(tmp_path / f"flat{cpus}"),
                        "--unsafe-grid"]) == 0
        ref = TextbookAdam()

        def per_parameter(params, grads, state, lr):
            new = ref.step({k: t.data for k, t in params.items()}, grads, lr)
            for k, t in params.items():
                t.data[...] = new[k]

        force_workers(monkeypatch, 1)
        monkeypatch.setattr("lino.train.adam_step", per_parameter)
        assert run(["train", "--config", cfg, "--out", str(tmp_path / "ref"),
                    "--unsafe-grid"]) == 0
        assert ref.t > 2
        for cpus in (1, 2):
            for fname in ("checkpoint", "history.csv", "report.csv"):
                assert (tmp_path / f"flat{cpus}" / fname).read_bytes() == \
                    (tmp_path / "ref" / fname).read_bytes(), (cpus, fname)

    def test_different_seed_changes_metrics(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "t.cfg", **TINY)
        for seed, name in (("1", "a"), ("2", "b")):
            run(["train", "--config", cfg, "--seed", seed,
                 "--out", str(tmp_path / name), "--unsafe-grid"])
        assert (tmp_path / "a" / "report.csv").read_bytes() != \
            (tmp_path / "b" / "report.csv").read_bytes()

    def test_multi_combo_names_checkpoints(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, "horizons": "4,8"})
        assert run(["train", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--unsafe-grid"]) == 0
        assert (tmp_path / "r" / "checkpoint_h4_s1").exists()
        assert (tmp_path / "r" / "checkpoint_h8_s1").exists()
        rows = read_rows(tmp_path / "r" / "report.csv")
        assert len(rows) == 3

    def test_univariate_takes_last_column(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        rng = np.random.default_rng(0)
        body = "\n".join(f"{a:.4f},{b:.4f}" for a, b in rng.normal(size=(200, 2)))
        data.write_text("left,right\n" + body + "\n")
        cfg = write_cfg(tmp_path / "t.cfg",
                        **{**TINY, "dataset": str(data), "univariate": "true",
                           "synth_length": 200})
        assert run(["train", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--unsafe-grid"]) == 0
        config, _, _ = load_checkpoint(str(tmp_path / "r" / "checkpoint"))
        assert config.channels == 1


@pytest.fixture(scope="module")
def ablate_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ablate")
    cfg = write_cfg(tmp / "t.cfg", **{**TINY, "seeds": "1,2"})
    assert cli.main(["ablate", "--config", cfg, "--out", str(tmp / "r"),
                     "--unsafe-grid"]) == 0
    return tmp / "r"


@pytest.fixture(scope="module")
def noise_dirs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("noise")
    cfg = write_cfg(tmp / "t.cfg", **{**TINY, "alphas": "0,1.0"})
    assert cli.main(["noise", "--config", cfg, "--out", str(tmp / "nz"),
                     "--unsafe-grid"]) == 0
    assert cli.main(["train", "--config", cfg, "--out", str(tmp / "tr"),
                     "--unsafe-grid"]) == 0
    return tmp


def blas_fields():
    """The `blas core` and `blas threads` fields of the machine line once a
    command has run: one thread wherever an OpenBLAS answers."""
    lib = cli._openblas()
    if lib is None:
        return "blas core unknown, blas threads unknown"
    return f"blas core {lib['get_corename']().decode()}, blas threads 1"


def test_summary_ends_with_machine_line(ablate_dir, noise_dirs):
    for outd in (noise_dirs / "tr", ablate_dir, noise_dirs / "nz"):
        last = (outd / "summary.txt").read_text().splitlines()[-1]
        assert last.startswith(f"machine: numpy {np.__version__}, blas ")
        assert "NUM_THREADS" not in last
        simd = " ".join(np.show_config(mode="dicts")["SIMD Extensions"]["found"])
        assert last.endswith(f", simd {simd or 'none'}, {blas_fields()}")
        for table in outd.glob("*.csv"):
            assert "machine" not in table.read_text()


def simd_field(line):
    return line.split(", simd ", 1)[1].split(", blas core ", 1)[0]


def test_simd_field_names_dispatched_targets_the_cpu_has(monkeypatch):
    """The field is numpy's own list of the dispatch targets this CPU has:
    `none` when it is empty, `unknown` when numpy does not report it."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    simd = simd_field(cli._machine()).split()
    assert simd == [t for t in __cpu_dispatch__ if __cpu_features__.get(t)] or simd == ["none"]

    config = np.show_config(mode="dicts")
    for extensions, want in (({"found": []}, "none"), ({}, "unknown")):
        monkeypatch.setattr(np, "show_config", lambda mode, e=extensions: {
            **config, "SIMD Extensions": e})
        assert simd_field(cli._machine()) == want


def test_blas_core_field(monkeypatch, tmp_path):
    """OpenBLAS names its runtime core. With no loaded library to ask, the
    core and thread fields read `unknown`, nothing sets a thread count,
    and a command still runs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" in blas and sys.platform.startswith("linux"):
        fields = blas_fields()
        assert re.fullmatch(r"blas core \w+, blas threads 1", fields) and "unknown" not in fields

    def no_maps(*args, **kwargs):
        raise OSError("no process maps")

    try:
        monkeypatch.setattr(cli, "open", no_maps, raising=False)
        cli._openblas.cache_clear()
        assert cli._machine().endswith(", blas core unknown, blas threads unknown")
        monkeypatch.undo()  # the lookup stays cached: no library answers
        cfg = write_cfg(tmp_path / "t.cfg", **TINY)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "r"),
                         "--unsafe-grid"]) == 0
        last = (tmp_path / "r" / "summary.txt").read_text().splitlines()[-1]
        assert last.endswith(", blas core unknown, blas threads unknown")
    finally:
        cli._openblas.cache_clear()


def test_checkpoint_extra_carries_machine_line(trained_run):
    tmp, _ = trained_run
    _, _, extra = load_checkpoint(str(tmp / "r" / "checkpoint"))
    assert extra["machine"] == cli._machine()
    summary = (tmp / "r" / "summary.txt").read_text().splitlines()
    assert summary[-1] == f"machine: {extra['machine']}"


@pytest.mark.skipif(_cpus() < 2, reason="on one CPU OpenBLAS starts one thread with the "
                    "variables unset too, so no setting could change the bits")
@pytest.mark.skipif(cli._openblas() is None, reason="no OpenBLAS answers, so commands "
                    "set no thread count")
def test_thread_variables_do_not_change_the_bits(tmp_path):
    """Two fits run as a program write the same report, history and
    checkpoints, to the byte, with the thread variables unset, with
    `OPENBLAS_NUM_THREADS=1` and with `OPENBLAS_NUM_THREADS=2`. Before
    commands set one BLAS thread, a run with the variables unset used one
    thread per CPU, and on two CPUs all three files differed; dim 128 is
    the smallest such shape found (at dim 64 OpenBLAS runs these GEMMs on
    one thread whatever the setting)."""
    cfg = write_cfg(tmp_path / "t.cfg", dataset="synth", synth_length=300, synth_channels=2,
                    lookback=16, horizons="8,16", dim=128, blocks=1, epochs=1, batch=32,
                    lr="1e-3", patience=2)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = {}
    for threads in (None, "1", "2"):
        out = tmp_path / f"threads_{threads}"
        subprocess.run([sys.executable, "-m", "lino.cli", "train", "--config", cfg,
                        "--out", str(out), "--unsafe-grid"], check=True, capture_output=True,
                       env=env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads},
                       timeout=120)
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                            if p.name != "summary.txt"}
    assert sorted(outputs["1"]) == ["checkpoint_h16_s1", "checkpoint_h8_s1", "history.csv",
                                    "report.csv"]
    assert outputs[None] == outputs["1"] == outputs["2"]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("exports")
    cfg = write_cfg(tmp / "t.cfg", **{**TINY, "blocks": 2})
    assert cli.main(["train", "--config", cfg, "--out", str(tmp / "r"),
                     "--unsafe-grid"]) == 0
    return tmp, cfg


class TestAblateCommand:
    def test_row_count(self, ablate_dir):
        rows = read_rows(ablate_dir / "report.csv")[1:]
        assert len(rows) == 6 * 1 * 2  # ablations x horizons x seeds
        assert sorted({r[3] for r in rows}) == sorted(
            ["none", "no_li", "no_no", "no_te", "no_fe", "no_cd"])

    def test_relative_degradation_rederivable(self, ablate_dir):
        raw = read_rows(ablate_dir / "report.csv")[1:]
        mse_by_ablation = {}
        for r in raw:
            mse_by_ablation.setdefault(r[3], []).append(float(r[6]))
        means = {k: np.mean(v) for k, v in mse_by_ablation.items()}
        table = read_rows(ablate_dir / "ablation.csv")[1:]
        for row in table:
            expect = (means[row[0]] - means["none"]) / means["none"]
            assert float(row[6]) == pytest.approx(expect, abs=1e-12)

    def test_val_column_present(self, ablate_dir):
        header = read_rows(ablate_dir / "ablation.csv")[0]
        assert "val_mse_mean" in header


class TestNoiseCommand:
    def test_zero_alpha_matches_plain_training(self, noise_dirs):
        noise_rows = read_rows(noise_dirs / "nz" / "noise.csv")[1:]
        train_rows = read_rows(noise_dirs / "tr" / "report.csv")[1:]
        lino_zero = [r for r in noise_rows
                     if r[0] == "lino" and float(r[1]) == 0.0]
        assert len(lino_zero) == 1
        # byte-equal metric strings, not just close values
        assert lino_zero[0][5] == train_rows[0][6]
        assert lino_zero[0][6] == train_rows[0][7]

    def test_covers_variants_and_alphas(self, noise_dirs):
        rows = read_rows(noise_dirs / "nz" / "noise.csv")[1:]
        assert {(r[0], r[1]) for r in rows} == {
            (v, a) for v in ("lino", "mu", "raw") for a in ("0.0", "1.0")}

    def test_summary_reports_monotonicity_and_gap(self, noise_dirs):
        text = (noise_dirs / "nz" / "summary.txt").read_text()
        assert text.count("monotone degradation:") == 3
        assert "raw minus lino at alpha=1" in text
        gap_line = [l for l in text.splitlines() if "raw minus lino" in l][0]
        assert "+" in gap_line or "-" in gap_line


def save_tiny_checkpoint(outd, change):
    """An initialised two-channel checkpoint at `outd/checkpoint` whose
    model header is then updated with `change`."""
    cfg = LiNoConfig(channels=2, lookback=8, horizon=4, dim=8, blocks=1)
    path = outd / "checkpoint"
    outd.mkdir()
    save_checkpoint(str(path), cfg, init_params(cfg, stream(0, "init")))
    rewrite_model_header(path, change)


class TestExportCommands:
    def test_decompose_emits_all_series(self, trained_run):
        tmp, cfg = trained_run
        assert cli.main(["decompose", "--config", cfg,
                         "--out", str(tmp / "r")]) == 0
        rows = read_rows(tmp / "r" / "decomposition.csv")
        channels, blocks = 3, 2
        assert len(rows) == 1 + (2 * blocks + 1) * channels
        assert rows[-1][0] == "total"

    def test_decompose_bad_window_index(self, trained_run, tmp_path):
        tmp, cfg = trained_run
        bad = write_cfg(tmp_path / "bad.cfg",
                        **{**TINY, "blocks": 2, "window": 999999})
        assert cli.main(["decompose", "--config", bad,
                         "--out", str(tmp / "r")]) == 2

    def test_decompose_reads_only_the_test_split(self, tmp_path, capsys):
        """A series whose validation split is too short for the
        checkpoint's horizon still decomposes: only the test split is
        windowed, standardised with the train-span statistics that
        `prepare` uses."""
        cfg = LiNoConfig(channels=2, lookback=8, horizon=24, dim=8, blocks=1)
        outd = tmp_path / "r"
        outd.mkdir()
        params = init_params(cfg, stream(0, "init"))
        save_checkpoint(str(outd / "checkpoint"), cfg, params)
        settings = dict(dataset="synth", synth_length=200, synth_channels=2)
        values = cli.RunConfig("decompose", {**cli._DEFAULTS, **settings}).load_values()
        spec = SplitSpec(ratios=(0.7, 0.1, 0.2))
        with pytest.raises(DataError, match="shorter than lookback"):
            prepare(values, spec, 8, 24)
        conf = write_cfg(tmp_path / "d.cfg", **settings, window=3)
        assert cli.main(["decompose", "--config", conf, "--out", str(outd)]) == 0
        x_test, _ = split_windows(values, spec, 8, 24, ("test",))["test"]
        columns, rows = decomposition_table(export_decomposition(params, cfg, x_test[3]))
        assert read_rows(outd / "decomposition.csv") == \
            [columns] + [[str(cell) for cell in row] for row in rows]

    def test_probe_emits_matrices_with_residuals(self, trained_run):
        tmp, cfg = trained_run
        assert cli.main(["probe", "--config", cfg, "--out", str(tmp / "r")]) == 0
        weights = tmp / "r" / "weights"
        for name in ("model", "level0.li", "level0.no", "level1.li", "level1.no"):
            assert (weights / f"{name}.matrix.csv").exists()
            assert (weights / f"{name}.bias.csv").exists()
        rows = read_rows(weights / "residuals.csv")[1:]
        assert len(rows) == 5
        by_name = {r[0]: float(r[3]) for r in rows}
        assert by_name["level0.li"] < 1e-8    # the linear block really is affine
        assert by_name["level0.no"] > 0.0

    def test_missing_checkpoint_is_a_data_error(self, tmp_path):
        assert cli.main(["probe", "--out", str(tmp_path / "empty")]) == 3

    @pytest.mark.parametrize("change", [{"wat": 1}, {"dim": 7}])
    def test_bad_header_field_is_a_checkpoint_error(self, tmp_path, capsys, change):
        """A well-formed checkpoint whose model header names an unknown
        field, or holds an invalid value, exits 3 rather than 2 or a
        traceback."""
        save_tiny_checkpoint(tmp_path / "r", change)
        assert cli.main(["probe", "--out", str(tmp_path / "r")]) == 3
        assert "bad model header" in capsys.readouterr().err

    def test_malformed_body_exits_3(self, tmp_path, capsys):
        """A checkpoint whose checksum matches but whose header is not
        JSON ends in one `error:` line and exit 3, and leaves no run
        directory behind."""
        save_tiny_checkpoint(tmp_path / "src", {})
        ckpt = tmp_path / "src" / "checkpoint"
        rewrite_header(ckpt, lambda raw: raw[:-1])
        cfg = write_cfg(tmp_path / "p.cfg", checkpoint=ckpt)
        out = tmp_path / "r"
        assert cli.main(["probe", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: malformed checkpoint body")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("change", [{"mlp_hidden": 5}, {"revin_eps": 1e-3},
                                        {"fusion": "identity"}, {"integration": False},
                                        {"dtype": "float32"}])
    def test_retired_key_other_value_rejected(self, tmp_path, capsys, change):
        """A retired model key loads only at the one value earlier versions
        wrote; any other value asks for a model this version cannot build."""
        save_tiny_checkpoint(tmp_path / "r", change)
        assert cli.main(["decompose", "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert "bad model header" in err and next(iter(change)) in err


class TestSynthCommand:
    def test_reproducible_bytes(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert cli.main(["synth", "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a" / "synth.csv").read_bytes() == \
            (tmp_path / "b" / "synth.csv").read_bytes()

    def test_components_sum_to_values(self, tmp_path, capsys):
        assert cli.main(["synth", "--out", str(tmp_path / "s")]) == 0
        from lino.data import load_csv
        total, _ = load_csv(str(tmp_path / "s" / "synth.csv"))
        parts = [load_csv(str(tmp_path / "s" / f"synth_{p}.csv"))[0]
                 for p in ("linear", "nonlinear", "noise")]
        np.testing.assert_allclose(sum(parts), total, atol=1e-12)


class TestFitLoop:
    @pytest.mark.parametrize("command,extra,prepared", [
        ("train", {"horizons": "4,8", "seeds": "1,2"}, [4, 8]),
        ("ablate", {"seeds": "1,2", "epochs": 1}, [8]),
    ])
    def test_prepare_once_per_horizon_run(self, tmp_path, capsys, monkeypatch,
                                          command, extra, prepared):
        real, horizons = cli.prepare, []

        def recording(values, spec, lookback, horizon):
            horizons.append(horizon)
            return real(values, spec, lookback, horizon)

        monkeypatch.setattr(cli, "prepare", recording)
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, **extra})
        assert run([command, "--config", cfg, "--out", str(tmp_path / "r"),
                    "--unsafe-grid"]) == 0
        assert horizons == prepared


def logging_train(monkeypatch, log, then=None):
    """Make every fit append its process id to `log`, then call `then`
    (if given) before training."""
    real = cli.train

    def train(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        if then is not None:
            then(args[-1])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "train", train)


def fit_pids(log):
    return [int(line) for line in Path(log).read_text().split()]


FAN_OUT_RUNS = {
    "train": {"horizons": "4,8", "seeds": "1,2", "epochs": 1},
    "ablate": {"epochs": 1},
    "noise": {"alphas": "0.0, 1.0", "epochs": 1},
}


# TINY on a longer series: its validation split (273 windows) and test
# split (553) span two and three of `evaluate`'s 256-window batches
MULTI_BATCH = {"synth_length": 2800, "epochs": 1}


def logging_predict(monkeypatch, log, then=None):
    """Make every `Forecaster.predict` call append its process id to
    `log`, then call `then` (if given) before predicting."""
    real = Forecaster.predict

    def predict(self, x):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        if then is not None:
            then()
        return real(self, x)

    monkeypatch.setattr(Forecaster, "predict", predict)


class TestFanOut:
    """Multi-combo commands fit in forked worker processes, and an
    in-process fit scores its multi-batch splits in them."""

    @pytest.mark.parametrize("command", sorted(FAN_OUT_RUNS))
    def test_workers_do_not_change_bytes(self, tmp_path, capsys, monkeypatch, command):
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, **FAN_OUT_RUNS[command]})
        outputs = {}
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            outd = tmp_path / f"w{workers}"
            assert run([command, "--config", cfg, "--out", str(outd),
                        "--unsafe-grid"]) == 0
            # summary.txt holds wall-clock runtimes
            outputs[workers] = {p.name: p.read_bytes() for p in sorted(outd.iterdir())
                                if p.name != "summary.txt"}
        assert outputs[1].keys() == outputs[2].keys()
        if command == "train":
            assert sum(name.startswith("checkpoint_") for name in outputs[1]) == 4
        for name in outputs[1]:
            assert outputs[1][name] == outputs[2][name], name

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
    def test_fits_run_in_distinct_children(self, tmp_path, capsys, monkeypatch):
        log = tmp_path / "fits.log"
        logging_train(monkeypatch, log)
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, **FAN_OUT_RUNS["ablate"]})
        assert run(["ablate", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--unsafe-grid"]) == 0
        pids = fit_pids(log)
        assert len(pids) == 6 and os.getpid() not in pids
        assert len(set(pids)) >= 2

    def test_horizons_share_one_pool(self, tmp_path, capsys, monkeypatch):
        """The fits of two horizons run side by side, in two workers of one
        pool, and write the bytes of an in-process run."""
        log = tmp_path / "fits.log"
        logging_train(monkeypatch, log)
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, "horizons": "8, 12"})
        outputs = {}
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            outd = tmp_path / f"w{workers}"
            assert run(["train", "--config", cfg, "--out", str(outd),
                        "--unsafe-grid"]) == 0
            outputs[workers] = {p.name: p.read_bytes() for p in sorted(outd.iterdir())
                                if p.name != "summary.txt"}
        pids = fit_pids(log)
        assert pids[:2] == [os.getpid()] * 2
        assert len(set(pids[2:])) == 2 and os.getpid() not in pids[2:]
        assert sorted(outputs[1]) == ["checkpoint_h12_s1", "checkpoint_h8_s1",
                                      "history.csv", "report.csv"]
        assert outputs[1] == outputs[2]

    def test_too_long_horizon_exits_3_before_any_fit(self, tmp_path, capsys,
                                                     monkeypatch):
        """Every horizon is prepared before the first fit starts: a second
        horizon longer than the validation split leaves no fit, no
        checkpoint and no run directory behind."""
        log = tmp_path / "fits.log"
        logging_train(monkeypatch, log)
        force_workers(monkeypatch, 2)
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, "horizons": "8, 40"})
        out = tmp_path / "r"
        assert run(["train", "--config", cfg, "--out", str(out), "--unsafe-grid"]) == 3
        assert "shorter than lookback+horizon=56" in capsys.readouterr().err
        assert not log.exists() and not out.exists()

    def test_single_combo_fits_in_process(self, tmp_path, capsys, monkeypatch):
        log = tmp_path / "fits.log"
        logging_train(monkeypatch, log)
        force_workers(monkeypatch, 2)
        cfg = write_cfg(tmp_path / "t.cfg", **TINY)
        assert run(["train", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--unsafe-grid"]) == 0
        assert fit_pids(log) == [os.getpid()]

    @pytest.mark.parametrize("error,code", [(NonFiniteError, 4), (ConfigError, 2),
                                            (DataError, 3)])
    def test_worker_failure_keeps_exit_code(self, tmp_path, capsys, monkeypatch,
                                            error, code):
        def fail_seed_2(tcfg):
            if tcfg.seed == 2:
                raise error("fit failed in a worker")

        log = tmp_path / "fits.log"
        logging_train(monkeypatch, log, then=fail_seed_2)
        force_workers(monkeypatch, 2)
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, **FAN_OUT_RUNS["train"]})
        assert run(["train", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--unsafe-grid"]) == code
        assert capsys.readouterr().err == "error: fit failed in a worker\n"
        assert os.getpid() not in fit_pids(log)
        assert not multiprocessing.active_children()

    def test_non_finite_fit_in_worker_exits_4(self, tmp_path, capsys, monkeypatch):
        """A learning rate that makes training diverge, on a sweep whose
        fits all run in workers."""
        force_workers(monkeypatch, 2)
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, **FAN_OUT_RUNS["ablate"],
                                               "lr": "1e300"})
        assert run(["ablate", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--unsafe-grid"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_killed_worker_exits_5(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()

        def die_in_child(tcfg):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        logging_train(monkeypatch, tmp_path / "fits.log", then=die_in_child)
        force_workers(monkeypatch, 2)
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, **FAN_OUT_RUNS["ablate"]})
        assert run(["ablate", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--unsafe-grid"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: a fit worker process died") and err.count("\n") == 1
        assert not multiprocessing.active_children()

    def test_evaluate_workers_do_not_change_bytes(self, tmp_path, capsys, monkeypatch):
        """One fit, in-process, whose validation and test splits fan out."""
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, **MULTI_BATCH})
        outputs = {}
        for workers in (1, 2):
            log = tmp_path / f"predicts{workers}.log"
            logging_predict(monkeypatch, log)
            force_workers(monkeypatch, workers)
            outd = tmp_path / f"w{workers}"
            assert run(["train", "--config", cfg, "--out", str(outd), "--unsafe-grid"]) == 0
            outputs[workers] = {p.name: p.read_bytes() for p in sorted(outd.iterdir())
                                if p.name != "summary.txt"}
            # two validation batches, then three test batches; the
            # validation split holds one full batch, so it stays in-process
            pids = fit_pids(log)
            if workers == 1:
                assert pids == [os.getpid()] * 5
            else:
                assert pids[:2] == [os.getpid()] * 2
                assert len(pids) == 5 and os.getpid() not in pids[2:]
        assert outputs[1] == outputs[2]

    def test_lone_fit_bytes_do_not_depend_on_the_lane(self, tmp_path, capsys, monkeypatch):
        """One fit runs in-process, its weight-side gradients on the lane
        when a second CPU is free: `train` and `decompose` write the bytes
        of a one-CPU run."""
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, "dropout": 0.2})
        outputs = {}
        for cpus in (1, 2):
            force_workers(monkeypatch, cpus)
            outd = tmp_path / f"c{cpus}"
            for command in ("train", "decompose"):
                assert run([command, "--config", cfg, "--out", str(outd),
                            "--unsafe-grid"]) == 0
            outputs[cpus] = {p.name: p.read_bytes() for p in sorted(outd.iterdir())
                             if p.name != "summary.txt"}
        assert sorted(outputs[1]) == ["checkpoint", "decomposition.csv", "history.csv",
                                      "report.csv"]
        assert outputs[1] == outputs[2]

    def test_validation_forks_between_lane_epochs(self, tmp_path, capsys, monkeypatch):
        """A lone fit whose validation split spans two full batches forks
        `evaluate` workers after each epoch's lane has closed, and writes
        the bytes of a one-CPU run."""
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, "synth_length": 6000})
        outputs = {}
        for cpus in (1, 2):
            logging_predict(monkeypatch, tmp_path / f"predicts{cpus}.log")
            force_workers(monkeypatch, cpus)
            outd = tmp_path / f"c{cpus}"
            assert run(["train", "--config", cfg, "--out", str(outd), "--unsafe-grid"]) == 0
            outputs[cpus] = {p.name: p.read_bytes() for p in sorted(outd.iterdir())
                             if p.name != "summary.txt"}
        # the first epoch's validation, three batches of which two are
        # full, ran outside this process; the pool does not promise which
        # of its workers takes each batch
        first = fit_pids(tmp_path / "predicts2.log")[:3]
        assert len(first) == 3 and os.getpid() not in first
        assert outputs[1] == outputs[2]

    def test_predicts_run_in_their_fit_worker(self, tmp_path, capsys, monkeypatch):
        """A fit worker scores its multi-batch splits in its own process:
        fan-outs do not nest."""
        fits, predicts = tmp_path / "fits.log", tmp_path / "predicts.log"
        logging_train(monkeypatch, fits)
        logging_predict(monkeypatch, predicts)
        force_workers(monkeypatch, 2)
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, **MULTI_BATCH, "seeds": "1,2"})
        assert run(["train", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--unsafe-grid"]) == 0
        assert os.getpid() not in fit_pids(fits)
        assert len(fit_pids(predicts)) == 10
        assert set(fit_pids(predicts)) == set(fit_pids(fits))

    def test_killed_evaluate_worker_exits_5(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()

        def die_in_child():
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        logging_predict(monkeypatch, tmp_path / "predicts.log", then=die_in_child)
        force_workers(monkeypatch, 2)
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, **MULTI_BATCH})
        out = tmp_path / "r"
        assert run(["train", "--config", cfg, "--out", str(out), "--unsafe-grid"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: an evaluate worker process died: ")
        assert err.count("\n") == 1
        assert not multiprocessing.active_children()
        assert not out.exists()

    def test_consumer_stopping_cancels_queued_fits(self, tmp_path, capsys, monkeypatch):
        """Closing the `_fits` generator after its first fit, as a command
        that raises does, cancels the fits still queued and reaps the
        workers."""
        log = tmp_path / "fits.log"
        logging_train(monkeypatch, log)
        force_workers(monkeypatch, 2)
        rc = cli.resolve(["ablate", "--config", write_cfg(
            tmp_path / "t.cfg", **{**TINY, "seeds": "1,2,3,4", "epochs": 1}),
            "--out", str(tmp_path / "r"), "--unsafe-grid"])
        combos = [("lino", "none", 8, seed, 0.0) for seed in range(1, 13)]
        fits = cli._fits(rc, combos)
        assert next(fits).seed == 1
        fits.close()
        assert not multiprocessing.active_children()
        assert len(fit_pids(log)) < len(combos)


class TestUnreadableInputs:
    def test_empty_alphas_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, "alphas": ""})
        assert run(["noise", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--unsafe-grid"]) == 2
        assert "alpha" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_dataset_directory_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, "dataset": str(tmp_path)})
        assert run(["train", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--unsafe-grid"]) == 3
        assert f"error: {tmp_path}" in capsys.readouterr().err

    def test_non_utf8_csv_exits_3(self, tmp_path, capsys):
        data = tmp_path / "latin.csv"
        data.write_bytes(b"a,b\n1,2\n3,\xff\n")
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, "dataset": str(data)})
        assert run(["train", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--unsafe-grid"]) == 3
        assert f"error: {data}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_csv_cell_exits_3(self, tmp_path, capsys, cell):
        """`float()` parses nan and inf; the loader refuses them, naming
        the cell, before `train` builds a run directory."""
        data = tmp_path / "bad.csv"
        rows = [f"{i},{i % 7}" for i in range(200)]
        rows[5] = f"5,{cell}"
        data.write_text("a,b\n" + "\n".join(rows) + "\n")
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, "dataset": str(data)})
        assert run(["train", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--unsafe-grid"]) == 3
        assert capsys.readouterr().err == (
            f"error: {data}: non-finite value {cell!r} at row 7, column 2\n")
        assert not (tmp_path / "r").exists()

    def test_non_finite_csv_cell_in_decompose_exits_3(self, tmp_path, capsys):
        save_tiny_checkpoint(tmp_path / "r", {})
        data = tmp_path / "bad.csv"
        rows = [f"{i},{i % 7}" for i in range(200)]
        rows[150] = "nan,150"
        data.write_text("\n".join(rows) + "\n")
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, "dataset": str(data)})
        assert run(["decompose", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err == (
            f"error: {data}: non-finite value 'nan' at row 151, column 1\n")

    def test_config_directory_exits_2(self, tmp_path, capsys):
        assert run(["train", "--config", str(tmp_path)]) == 2
        assert f"error: {tmp_path}: cannot read config file" in capsys.readouterr().err

    def test_out_below_regular_file_exits_3(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_cfg(tmp_path / "t.cfg", **TINY)
        assert run(["train", "--config", cfg, "--out", str(blocker / "r"),
                    "--unsafe-grid"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestNumericalFailureExit:
    def test_divergent_run_exits_4(self, tmp_path, capsys):
        # a step size this large throws the weights far enough that the
        # next forward pass overflows float64
        cfg = write_cfg(tmp_path / "t.cfg",
                        **{**TINY, "lr": "1e200", "epochs": 8})
        with no_runtime_warnings():
            code = cli.main(["train", "--config", cfg,
                             "--out", str(tmp_path / "r"), "--unsafe-grid"])
        assert code == 4
        # the step that went non-finite is named with its epoch and op
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: epoch 1, step \d+: \S+: non-finite .*\n", err), err

    def test_error_line_does_not_depend_on_the_lane(self, tmp_path, capsys, monkeypatch):
        """A lone fit with a CPU to spare runs its weight-side gradients on
        the lane; the diverging run still ends with the same line."""
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, "lr": "1e200", "epochs": 8})
        errs = {}
        for cpus in (1, 2):
            force_workers(monkeypatch, cpus)
            assert run(["train", "--config", cfg, "--out", str(tmp_path / f"c{cpus}"),
                        "--unsafe-grid"]) == 4
            errs[cpus] = capsys.readouterr().err
        assert errs[1] == errs[2]
        assert re.fullmatch(r"error: epoch 1, step \d+: \S+: non-finite .*\n", errs[2])

    def test_nan_gradient_after_queued_blocks_raises_the_same_line(self, tmp_path, capsys,
                                                                     monkeypatch):
        """On step 2 embed.w's weight gradient, the last the walk reaches,
        goes NaN. With the lane open, blocks of 40 values whose gradients
        were final have been queued by then; the fit still fails on the
        first failure in walk order, with the line of a one-CPU run, and
        leaves no lane and no thread behind."""
        cfg = write_cfg(tmp_path / "t.cfg", **TINY)
        monkeypatch.setattr("lino.train._ADAM_BLOCK", 40)
        real_linear, real_hook = lino.model.linear, lino.train.AdamState.hook
        calls, states = [], []

        def linear(x, w, b=None):
            y = real_linear(x, w, b)
            if w.name == "embed.w" and lino.tensor._active is not None:
                calls.append(w)
                if len(calls) == 2:
                    node = lino.tensor._active.nodes[-1]
                    vjp = node.vjp

                    def poisoned(g):
                        gx, gw, *rest = vjp(g)
                        return (gx, lino.tensor._defer(lambda a: a * np.nan, gw), *rest)

                    node.vjp = poisoned
            return y

        def hook(state, lr):
            states.append(state)
            return real_hook(state, lr)

        monkeypatch.setattr(lino.model, "linear", linear)
        monkeypatch.setattr(lino.train.AdamState, "hook", hook)
        errs, before = {}, threading.active_count()
        for cpus in (1, 2):
            calls.clear()
            force_workers(monkeypatch, cpus)
            assert run(["train", "--config", cfg, "--out", str(tmp_path / f"c{cpus}"),
                        "--unsafe-grid"]) == 4
            errs[cpus] = capsys.readouterr().err
            assert lino.tensor._lane is None and threading.active_count() == before
        assert errs[1] == errs[2] == ("error: epoch 1, step 2: backward[linear:embed.w]: "
                                      "non-finite values in output\n")
        # only the lane-open fit hooked its tapes, and the failing step had
        # queued block updates before the walk reached embed.w
        assert len(states) == 2 and len(states[-1].queued) > 0

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_nan_in_an_op_output_prints_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                      cpus):
        """The first step's first `freq_projection` outputs a NaN: the run
        exits 4 with one `error:` line naming the step and the op, with the
        lane open or not, and leaves no directory behind."""
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, "epochs": 1})
        with monkeypatch.context() as mp:
            ops = taped_records(mp)
            assert run(["train", "--config", cfg, "--out", str(tmp_path / "clean"),
                        "--unsafe-grid"]) == 0
        capsys.readouterr()
        taped_records(monkeypatch, poison_at=ops.index("freq_projection"))
        force_workers(monkeypatch, cpus)
        assert run(["train", "--config", cfg, "--out", str(tmp_path / "r"),
                    "--unsafe-grid"]) == 4
        assert capsys.readouterr().err == \
            "error: epoch 1, step 1: freq_projection: non-finite values in output\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("seeds", ["1", "1,2"])
    def test_overflow_prints_one_stderr_line(self, tmp_path, seeds):
        """Run as a program, where numpy's floating-point warnings would
        reach stderr, an overflowing run prints only its `error:` line.
        Two seeds fan out to forked workers where two CPUs are free, which
        inherit the warning setting."""
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, "lr": "1e308", "seeds": seeds})
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "lino.cli", "train", "--config", cfg,
                               "--out", str(tmp_path / "r"), "--unsafe-grid"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 4
        assert re.fullmatch(r"error: epoch 1, step \d+: \S+: non-finite .*\n",
                            proc.stderr), proc.stderr


def ramp_csv(cells=None, rows=200):
    """The text of a two-column CSV: a row index and a 0..6 ramp, with
    the rows in `cells` ({row: text}) replaced."""
    lines = [f"{i},{i % 7}" for i in range(rows)]
    for row, text in (cells or {}).items():
        lines[row] = text
    return "a,b\n" + "\n".join(lines) + "\n"


def csv_with_cell(path, row, value):
    """200 rows of a 0..6 ramp (train-span scale 2) with `value` at
    `row`; split 70/10/20, rows 140-159 are validation and 160-199 test."""
    rows = [f"{i},{i % 7}" for i in range(200)]
    rows[row] = f"{row},{value}"
    path.write_text("a,b\n" + "\n".join(rows) + "\n")
    return str(path)


class TestFailedRunLeavesNoDirectory:
    """Each failure exits with its documented code and one `error:` line,
    and removes the run directory the command made."""

    @pytest.mark.parametrize("command,settings,code,error", [
        # a finite noise scale whose series overflows once standardised
        ("train", {"synth_noise": "1e308"}, 3,
         r"channel \d+ is not finite once standardised with its train-span mean and scale"),
        # a finite step size that diverges
        ("train", {"lr": "1e308"}, 4, r"epoch 1, step \d+: \S+: non-finite values in output"),
        # cells the inputs of a split overflow on, and cells only a target holds
        ("train", {"dataset": 180}, 4, r"test split: \S+: non-finite values in output"),
        ("train", {"dataset": 199}, 4,
         r"test split: evaluate: squared error of window \d+ is not finite"),
        ("train", {"dataset": 150}, 4,
         r"epoch 1, validation split: \S+: non-finite values in output"),
        ("train", {"dataset": 159}, 4,
         r"epoch 1, validation split: evaluate: squared error of window \d+ is not finite"),
        # a prepare error
        ("train", {"lookback": 300}, 3, r"train split has \d+ points, need at least .*"),
        ("synth", {"synth_length": 4}, 2, r"length >= 8.*"),
        # the train-span check again, on the one window decompose reads
        ("decompose", {"synth_noise": "1e308"}, 3,
         r"channel \d+ is not finite once standardised with its train-span mean and scale"),
    ])
    def test_exit_code_error_line_and_no_run_directory(self, tmp_path, capsys, command,
                                                       settings, code, error):
        if "dataset" in settings:
            settings = {"dataset": csv_with_cell(tmp_path / "big.csv",
                                                 settings["dataset"], "1e308")}
        if command == "decompose":
            # a checkpoint of TINY's shape on synth's three channels, kept
            # outside the run directory
            ckpt = tmp_path / "model.ckpt"
            model = LiNoConfig(channels=3, lookback=16, horizon=8, dim=8, blocks=1)
            save_checkpoint(str(ckpt), model, init_params(model, stream(0, "init")))
            settings = {**settings, "checkpoint": str(ckpt)}
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, **settings})
        out = tmp_path / "r"
        with no_runtime_warnings():
            assert run([command, "--config", cfg, "--out", str(out),
                        "--unsafe-grid"]) == code
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {error}\n", err), err
        assert not out.exists()

    def test_directory_that_existed_stays(self, tmp_path, capsys):
        out = tmp_path / "r"
        out.mkdir()
        cfg = write_cfg(tmp_path / "t.cfg", **{**TINY, "lr": "1e308"})
        with no_runtime_warnings():
            assert run(["train", "--config", cfg, "--out", str(out),
                        "--unsafe-grid"]) == 4
        assert out.is_dir()


SWEEP_COMMANDS = ("train", "ablate", "noise", "decompose", "probe", "synth")

# (id, one-key change to TINY, exit code of each of SWEEP_COMMANDS); a "csv"
# value is the text of the dataset, a two-channel CSV
SWEEP = [
    ("tiny", {}, (0, 0, 0, 0, 0, 0)),
    ("seeds-repeated", {"seeds": "1, 1"}, (2, 2, 2, 2, 2, 2)),
    ("horizons-repeated", {"horizons": "8, 8"}, (2, 2, 2, 2, 2, 2)),
    ("alphas-repeated", {"alphas": "0.5, 0.5"}, (2, 2, 2, 2, 2, 2)),
    ("val_ratio-0.9", {"val_ratio": "0.9"}, (2, 2, 2, 2, 0, 0)),
    ("lr-nan", {"lr": "nan"}, (2, 2, 2, 2, 2, 2)),
    ("seeds-negative", {"seeds": "-1"}, (2, 2, 2, 2, 2, 2)),
    ("synth_seed-negative", {"synth_seed": "-1"}, (2, 2, 2, 2, 2, 2)),
    ("alpha-1.5", {"alpha": "1.5"}, (2, 2, 2, 2, 2, 2)),
    ("lookback-0", {"lookback": "0"}, (2, 2, 2, 0, 0, 0)),
    ("dim-odd", {"dim": "7"}, (2, 2, 2, 0, 0, 0)),
    ("epochs-0", {"epochs": "0"}, (2, 2, 2, 0, 0, 0)),
    ("batch-0", {"batch": "0"}, (2, 2, 2, 0, 0, 0)),
    ("dropout-1", {"dropout": "1.0"}, (2, 2, 2, 0, 0, 0)),
    ("variant-mu", {"variant": "mu"}, (0, 2, 2, 0, 0, 0)),
    ("horizons-two", {"horizons": "8, 12"}, (0, 0, 2, 0, 0, 0)),
    ("lr-1e308", {"lr": "1e308"}, (4, 4, 4, 0, 0, 0)),
    # a finite noise scale whose series overflows to `inf` cells
    ("synth_noise-1e308", {"synth_noise": "1e308"}, (3, 3, 3, 3, 0, 3)),
    ("synth_length-4", {"synth_length": "4"}, (2, 2, 2, 2, 0, 2)),
    ("synth_length-40", {"synth_length": "40"}, (3, 3, 3, 0, 0, 0)),
    ("lookback-300", {"lookback": "300"}, (3, 3, 3, 0, 0, 0)),
    ("dataset-absent", {"dataset": "absent.csv"}, (3, 3, 3, 3, 0, 0)),
    ("window-out-of-range", {"window": "999999"}, (0, 0, 0, 2, 0, 0)),
    ("channels-mismatch", {"synth_channels": "2"}, (0, 0, 0, 3, 0, 0)),
    ("checkpoint-absent", {"checkpoint": "absent.ckpt"}, (0, 0, 0, 3, 3, 0)),
    ("csv-nan-cell", {"csv": ramp_csv({5: "5,nan"})}, (3, 3, 3, 3, 0, 0)),
    ("csv-word-cell", {"csv": ramp_csv({5: "5,abc"})}, (3, 3, 3, 3, 0, 0)),
    ("csv-ragged-row", {"csv": ramp_csv({5: "5,1,2"})}, (3, 3, 3, 3, 0, 0)),
    ("csv-empty", {"csv": ""}, (3, 3, 3, 3, 0, 0)),
    ("csv-header-only", {"csv": "a,b\n"}, (3, 3, 3, 3, 0, 0)),
    ("csv-not-utf8", {"csv": b"a,b\n1,2\n3,\xff\n"}, (3, 3, 3, 3, 0, 0)),
    ("csv-too-short", {"csv": ramp_csv(rows=20)}, (3, 3, 3, 3, 0, 0)),
    # 1e308 in a validation input, then in a validation target only; rows
    # 144-159 are also the input of decompose's test window
    ("csv-val-input-1e308", {"csv": ramp_csv({150: "150,1e308"})}, (4, 4, 4, 4, 0, 0)),
    ("csv-val-target-1e308", {"csv": ramp_csv({159: "159,1e308"})}, (4, 4, 4, 4, 0, 0)),
    # 1e308 in the train span: its channel's train-span scale overflows to
    # inf, which would map the whole channel to zeros
    ("csv-train-1e308", {"csv": ramp_csv({10: "10,1e308"})}, (3, 3, 3, 3, 0, 0)),
    ("csv-constant-channel",
     {"csv": "a,b\n" + "".join(f"{i},3\n" for i in range(200))}, (0, 0, 0, 0, 0, 0)),
    # every window standardises to zeros, so the full model's test MSE is 0
    ("csv-all-constant", {"csv": "a,b\n" + "3,5\n" * 300}, (0, 0, 0, 0, 0, 0)),
]


@pytest.fixture(scope="module")
def sweep_checkpoints(tmp_path_factory):
    """Initialised checkpoints of TINY's model on two channels (the CSVs)
    and three (synth), kept outside every run directory."""
    tmp = tmp_path_factory.mktemp("sweep")
    paths = {}
    for channels in (2, 3):
        model = LiNoConfig(channels=channels, lookback=16, horizon=8, dim=8, blocks=1)
        paths[channels] = tmp / f"model{channels}.ckpt"
        save_checkpoint(str(paths[channels]), model, init_params(model, stream(0, "init")))
    return paths


@pytest.mark.filterwarnings("ignore:channels .* are constant")
@pytest.mark.parametrize("command, settings, code", [
    pytest.param(command, settings, codes[i], id=f"{command}-{name}")
    for name, settings, codes in SWEEP for i, command in enumerate(SWEEP_COMMANDS)])
def test_failure_mode_sweep(tmp_path, capsys, sweep_checkpoints, command, settings, code):
    """Every command under one-key config changes and malformed CSVs, one
    epoch each: it exits with its documented code and never raises; a
    failure prints exactly one `error:` line and leaves no run
    directory."""
    settings = {**TINY, "epochs": 1,
                "checkpoint": sweep_checkpoints[2 if "csv" in settings else 3], **settings}
    if "csv" in settings:
        text = settings.pop("csv")
        data = tmp_path / "data.csv"
        data.write_bytes(text if isinstance(text, bytes) else text.encode())
        settings["dataset"] = str(data)
    cfg = write_cfg(tmp_path / "t.cfg", **settings)
    out = tmp_path / "r"
    assert run([command, "--config", cfg, "--out", str(out), "--unsafe-grid"]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert "error:" not in err
    else:
        assert re.fullmatch(r"error: [^\n]*\n", err), err
        assert not out.exists()
