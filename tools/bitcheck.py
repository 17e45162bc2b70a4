"""Bit check: run a fixed battery of `lino` commands and print one digest
per output, optionally next to another git revision's.

    python tools/bitcheck.py                  # digests of this checkout
    python tools/bitcheck.py --against HEAD   # and of HEAD; name what differs

The battery:

* a paper-shape `train` (7 channels, lookback and horizon 96, dim 256,
  2 blocks, batch 32; 2 epochs on a 2000-point synthetic series) and a
  `decompose` of its checkpoint, with the fan-out's CPU count forced to 1
  and to 2. At 2 a lone fit opens its lane, and its 805-window validation
  split is scored in forked workers;
* a dim-16 `train` of every variant, and a `probe` of the `lino` one;
* a dim-16 `train` at training-noise alpha 0.5;
* a dim-16 `train` at 2 CPUs, so that the lone fit opens its lane, with
  Adam's block size (`lino.train._ADAM_BLOCK`) forced to 100 elements,
  so that parameters straddle blocks;
* `ablate`, every ablation at dim 16;
* `noise` at alphas 0 and 0.5, dim 16;
* `synth`, the generated series and its three components.

Each job runs its commands through `lino.cli.main` in a process of its
own, on the `src/` of the tree it checks, in a temporary directory. A
CSV's digest is the sha256 of its bytes. A checkpoint's is the sha256 of
what `load_checkpoint` returns: the model config, the header's extra
fields except `machine`, and each tensor's name, shape and bytes, so the
machine line a checkpoint stores does not count. `summary.txt` holds
timings and the machine line, and is not digested.

`--against REV` extracts REV with `git archive` into the temporary
directory, runs the battery on it too, names every output that differs
or exists on one side only, and exits 1 if any does. Run both sides on
one machine: the bits depend on it (README, Determinism).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Job(NamedTuple):
    name: str
    cpus: int          # the fan-out's CPU count, forced; 0 keeps the machine's
    settings: dict     # config file keys
    commands: tuple    # run in order, all into one run directory
    adam_block: int = 0  # Adam's block size in elements, forced; 0 keeps the default


PAPER = dict(dataset="synth", synth_length=2000, synth_channels=7, val_ratio=0.45,
             lookback=96, horizons=96, dim=256, blocks=2, batch=32, lr=1e-4, epochs=2)
SMALL = dict(dataset="synth", synth_length=800, synth_channels=3, lookback=48,
             horizons=24, dim=16, blocks=2, batch=32, lr=1e-3, epochs=2)

BATTERY = tuple(
    [Job(f"paper_cpus{n}", n, PAPER, ("train", "decompose")) for n in (1, 2)]
    + [Job(f"train_{v}", 0, {**SMALL, "variant": v},
           ("train", "probe") if v == "lino" else ("train",))
       for v in ("lino", "mu", "raw", "ln")]
    + [Job("train_alpha0.5", 0, {**SMALL, "alpha": 0.5}, ("train",)),
       Job("train_cpus2_adam100", 2, SMALL, ("train",), adam_block=100),
       Job("ablate", 0, SMALL, ("ablate",)),
       Job("noise", 0, {**SMALL, "alphas": "0.0,0.5"}, ("noise",)),
       Job("synth", 0, SMALL, ("synth",))])


def checkpoint_digest(path: str) -> str:
    """sha256 of a checkpoint's config, extra fields but `machine`, and
    tensors, as `load_checkpoint` reads them."""
    from dataclasses import asdict

    import numpy as np
    from lino.train import load_checkpoint

    config, params, extra = load_checkpoint(path)
    header = {"model": asdict(config),
              "extra": {k: v for k, v in extra.items() if k != "machine"}}
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode())
    for name, tensor in params.items():
        digest.update(f"{name} {tensor.data.dtype} {tensor.shape}\n".encode())
        digest.update(np.ascontiguousarray(tensor.data).tobytes())
    return digest.hexdigest()


def digests(outd: str) -> dict:
    """{path: digest} of the CSVs and checkpoints under run directory
    `outd`, by path relative to it."""
    out = {}
    for folder, _, names in os.walk(outd):
        for name in names:
            path = os.path.join(folder, name)
            if name.endswith(".csv"):
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, outd)] = hashlib.sha256(fh.read()).hexdigest()
            elif name.startswith("checkpoint"):
                out[os.path.relpath(path, outd)] = checkpoint_digest(path)
    return out


def _run_job(spec: dict) -> None:
    """The `--job` mode: run one job's commands in this process, then
    print its digests as the last line of standard output."""
    import lino.cli
    import lino.fanout
    import lino.train

    if spec["cpus"]:
        lino.fanout._cpus = lambda: spec["cpus"]
    if spec["adam_block"]:
        lino.train._ADAM_BLOCK = spec["adam_block"]
    for command in spec["commands"]:
        code = lino.cli.main([command, "--config", spec["config"], "--out", spec["out"],
                              "--unsafe-grid"])
        if code:
            sys.exit(f"lino {command} exited {code}")
    print(json.dumps(digests(spec["out"])))


def run_battery(src: str, workd: str, jobs=BATTERY) -> dict:
    """Run `jobs` on the package in `src`, each into its own directory
    under `workd`, and return {"job/file": digest}."""
    env = {**os.environ, "PYTHONPATH": src}
    out = {}
    for job in jobs:
        outd = os.path.join(workd, job.name)
        os.makedirs(outd)
        config = os.path.join(workd, f"{job.name}.cfg")
        with open(config, "w") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in job.settings.items())
        spec = {"cpus": job.cpus, "adam_block": job.adam_block, "commands": job.commands,
                "config": config, "out": outd}
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--job",
                               json.dumps(spec)], env=env, capture_output=True, text=True)
        if done.returncode:
            sys.exit(f"job {job.name} failed on {src}:\n{done.stderr}")
        for name, digest in json.loads(done.stdout.splitlines()[-1]).items():
            out[f"{job.name}/{name}"] = digest
    return out


def differences(ours: dict, theirs: dict) -> list:
    """The outputs whose digests differ or that exist on one side only."""
    return sorted(name for name in ours.keys() | theirs.keys()
                  if ours.get(name) != theirs.get(name))


def _extract(rev: str, dest: str) -> None:
    """Write the tree of git revision `rev` of this repository to `dest`."""
    os.makedirs(dest)
    git = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", dest], stdin=git.stdout)
    git.stdout.close()
    if git.wait() or tar.returncode:
        sys.exit(f"cannot extract revision {rev!r}")


def _timed_battery(label: str, src: str, workd: str) -> dict:
    started = time.perf_counter()
    result = run_battery(src, workd)
    print(f"{label}: {len(result)} outputs in {time.perf_counter() - started:.1f} s",
          file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="also run the battery on git revision REV and compare")
    parser.add_argument("--job", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.job:
        _run_job(json.loads(args.job))
        return 0
    with tempfile.TemporaryDirectory(prefix="bitcheck-") as tmp:
        ours = _timed_battery("this checkout", os.path.join(ROOT, "src"),
                              os.path.join(tmp, "ours"))
        if args.against is None:
            for name, digest in sorted(ours.items()):
                print(f"{digest}  {name}")
            return 0
        tree = os.path.join(tmp, "tree")
        _extract(args.against, tree)
        theirs = _timed_battery(args.against, os.path.join(tree, "src"),
                                os.path.join(tmp, "theirs"))
    differ = differences(ours, theirs)
    for name in sorted(ours.keys() | theirs.keys()):
        print(f"{ours.get(name, '-'):64}  {'DIFFERS' if name in differ else 'same   '}  {name}")
    print(f"{len(differ)} of {len(ours.keys() | theirs.keys())} outputs differ from "
          f"{args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
