"""The bit-check tool (`tools/bitcheck.py`): its dim-16 jobs run, its
digests are stable, and it names exactly the outputs that changed."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import lino
import lino.fanout
import lino.train
from lino.tensor import Tensor
from lino.train import load_checkpoint, save_checkpoint

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bitcheck.py"


@pytest.fixture(scope="module")
def bitcheck():
    spec = importlib.util.spec_from_file_location("bitcheck", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def small_run(bitcheck, tmp_path_factory):
    """The battery's dim-16 `train` jobs, run on this package."""
    workd = tmp_path_factory.mktemp("bitcheck")
    jobs = [job for job in bitcheck.BATTERY if job.name.startswith("train_")]
    src = str(Path(lino.__file__).resolve().parents[1])
    return workd, bitcheck.run_battery(src, str(workd), jobs)


def test_dim16_jobs_digest_every_variant(bitcheck, small_run):
    workd, digests = small_run
    for variant in ("lino", "mu", "raw", "ln"):
        for name in ("checkpoint", "history.csv", "report.csv"):
            assert f"train_{variant}/{name}" in digests
    assert "train_lino/weights/residuals.csv" in digests
    # the digests are of the files as they stand
    for job in ("train_lino", "train_ln"):
        again = bitcheck.digests(str(workd / job))
        assert {f"{job}/{k}": v for k, v in again.items()} == \
            {k: v for k, v in digests.items() if k.startswith(f"{job}/")}


def test_one_changed_csv_byte_is_named(bitcheck, small_run, tmp_path):
    workd, digests = small_run
    history = workd / "train_mu" / "history.csv"
    blob = bytearray(history.read_bytes())
    blob[-2] ^= 1
    changed = tmp_path / "history.csv"
    changed.write_bytes(bytes(blob))
    digest = bitcheck.digests(str(tmp_path))["history.csv"]
    assert bitcheck.differences(digests, {**digests, "train_mu/history.csv": digest}) == \
        ["train_mu/history.csv"]
    assert bitcheck.differences(digests, dict(digests)) == []
    missing = {k: v for k, v in digests.items() if k != "train_raw/report.csv"}
    assert bitcheck.differences(digests, missing) == ["train_raw/report.csv"]


def test_checkpoint_digest_ignores_machine_only(bitcheck, small_run, tmp_path):
    workd, digests = small_run
    config, params, extra = load_checkpoint(str(workd / "train_ln" / "checkpoint"))
    assert extra["machine"]
    path = str(tmp_path / "checkpoint")
    save_checkpoint(path, config, params, extra={**extra, "machine": "another box"})
    assert bitcheck.checkpoint_digest(path) == digests["train_ln/checkpoint"]
    name = next(iter(params))
    moved = {**params, name: Tensor(np.nextafter(params[name].data, np.inf))}
    save_checkpoint(path, config, moved, extra=extra)
    assert bitcheck.checkpoint_digest(path) != digests["train_ln/checkpoint"]


def test_job_mode_prints_digests_last(bitcheck, small_run, capsys, monkeypatch, tmp_path):
    """`--job` runs a job's commands in-process and ends its output with
    the digests, which the driver reads. Here it runs at one CPU, without
    the lane the battery's run had on a machine with two."""
    workd, digests = small_run
    monkeypatch.setattr(lino.fanout, "_cpus", lino.fanout._cpus)  # the job forces it
    config = workd / "train_raw.cfg"
    spec = {"cpus": 1, "adam_block": 0, "commands": ["train"], "config": str(config),
            "out": str(tmp_path / "r")}
    assert bitcheck.main(["--job", json.dumps(spec)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(last) == {k.split("/", 1)[1]: v for k, v in digests.items()
                                if k.startswith("train_raw/")}


def test_job_mode_forces_adams_block_size(bitcheck, small_run, capsys, monkeypatch,
                                          tmp_path):
    """A job's `adam_block` sets `lino.train._ADAM_BLOCK` for its run, as
    `cpus` sets the fan-out's CPU count; 0 leaves the default. Neither the
    block size nor the lane moves a bit, so the battery's run at 100
    elements on two CPUs matches the default `lino` fit's, and so does
    this in-process run at one CPU."""
    workd, digests = small_run
    monkeypatch.setattr(lino.fanout, "_cpus", lino.fanout._cpus)
    monkeypatch.setattr(lino.train, "_ADAM_BLOCK", lino.train._ADAM_BLOCK)
    default = lino.train._ADAM_BLOCK
    trained = ("checkpoint", "history.csv", "report.csv")
    assert [digests[f"train_cpus2_adam100/{n}"] for n in trained] == \
        [digests[f"train_lino/{n}"] for n in trained]
    for block, out in ((0, "default"), (100, "small")):
        spec = {"cpus": 1, "adam_block": block, "commands": ["train"],
                "config": str(workd / "train_cpus2_adam100.cfg"), "out": str(tmp_path / out)}
        assert bitcheck.main(["--job", json.dumps(spec)]) == 0
        assert lino.train._ADAM_BLOCK == (block or default)
        last = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert [last[n] for n in trained] == [digests[f"train_lino/{n}"] for n in trained]
