"""Benchmark of the `lino` package: three workloads, end-to-end metrics,
and a traced run for per-layer metrics.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the package is imported from `src/`.
`--trace 0` prints the end-to-end metrics; `--trace 1` spends half the
time untraced and half traced and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give each metric
with its unit and sample count, the machine fingerprint and any failed
check. See README.md in this directory for what each metric means.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from spans import UNATTRIBUTED, NullTracer, Tracer, installed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train_paper", "sweep_small", "forecast_csv")
SETUP_REPEATS = 5

# (name, unit); every run prints every metric of its list
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("windows_per_s", "windows/s"),
    ("forecast_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

# self-time buckets of a traced pass, in ms per pass; with
# trace.unattributed they add up to the traced pass's wall time
SELF_BUCKETS = (
    "cli.other", "data.load_csv", "data.prepare", "train.loop", "train.adam",
    "train.ckpt_save", "train.ckpt_load", "model.fwd_self", "tensor.conv_fwd",
    "tensor.conv_vjp", "tensor.linear_fwd", "tensor.linear_vjp",
    "tensor.layer_norm", "spectral.freq_fwd", "spectral.vjp",
    "tensor.other_vjp", "tensor.backward_self", "evaluate.self",
    "trace.unattributed",
)

PER_LAYER = tuple((f"{b}_ms", "ms") for b in SELF_BUCKETS) + (
    ("tensor.backward_ms", "ms"),
    ("tensor.tape_nodes", "count"),
    ("model.train_fwd_ms", "ms"),
    ("model.eval_fwd_ms.b256", "ms"),
    ("model.eval_fwd_ms.b1", "ms"),
    ("train.step_ms_p50", "ms"),
    ("train.step_ms_p90", "ms"),
    ("train.val_ms", "ms"),
    ("train.ckpt_bytes", "bytes"),
    ("data.prepare_calls", "count"),
    ("evaluate.evaluate_ms", "ms"),
    ("evaluate.decompose_ms", "ms"),
    ("cli.fits", "count"),
    ("cli.fit_s_p50", "s"),
    ("cli.cpu_per_wall", "ratio"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
)

# counts that depend only on the workload's inputs, so every traced pass
# must give the same value (tape nodes: the per-step sequence)
EXACT_COUNTS = ("tensor.tape_nodes", "data.prepare_calls", "cli.fits",
                "train.ckpt_bytes")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-test")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads_in_force():
    """Ask the loaded OpenBLAS how many threads it uses."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """The checked-out commit, read from `.git` (None outside a clone)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads_in_force(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports what a run imports."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import workloads"], cwd=HERE, env=env,
                   check=True)
    return time.perf_counter() - start


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def one_pass(workload, ctx, tracer):
    """Run a pass, then its checks; returns (pass, wall s, cpu s)."""
    cpu = _cpu_seconds()
    start = time.perf_counter()
    with tracer.span(UNATTRIBUTED):
        p = workload.run_pass(ctx, tracer)
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu
    workload.check(ctx, p)
    shutil.rmtree(ctx["out"], ignore_errors=True)
    p.outputs.clear()
    return p, wall, cpu


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(setup_s, passes) -> tuple:
    latencies = [s for p, _, _ in passes for s in p.latencies]
    rates = [p.windows / p.work_s for p, _, _ in passes if p.work_s > 0 and p.windows]
    return {
        "setup_s": setup_s,
        "run_s": median([wall for _, wall, _ in passes]),
        "windows_per_s": median(rates),
        "forecast_ms_p90": p90(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"passes": len(passes), "pass walls s": [round(w, 4) for _, w, _ in passes],
        "forecast samples": len(latencies),
        "forecast p50 ms": round(median(latencies) * 1e3, 4),
        "forecast mean ms": round(statistics.fmean(latencies) * 1e3, 4) if latencies else 0}


def per_layer(untraced, traced, problems) -> tuple:
    """Per-layer metrics from the traced passes (`(pass, wall, cpu, spans)`)
    and the untraced ones; `problems` collects failed trace checks."""
    m, counts = {}, {}
    pass_self, pass_samples = [], []
    for p, wall, _, (self_s, samples, cnt) in traced:
        root = sum(self_s.values())
        if abs(root - wall) > 1e-3 * wall:
            problems.append(f"trace: buckets sum to {root:.6f} s, pass took {wall:.6f} s")
        unknown = set(self_s) - set(SELF_BUCKETS)
        if unknown:
            problems.append(f"trace: spans outside the named buckets: {sorted(unknown)}")
        pass_self.append(self_s)
        pass_samples.append(samples)
        pass_counts = {
            "tensor.tape_nodes": samples.get("tensor.tape_nodes", []),
            "data.prepare_calls": cnt.get("data.prepare_calls", 0),
            "cli.fits": cnt.get("cli.fits", 0),
            "train.ckpt_bytes": p.ckpt_bytes,
        }
        for key in EXACT_COUNTS:
            if counts.setdefault(key, pass_counts[key]) != pass_counts[key]:
                problems.append(f"trace: count {key} is not the same in every pass")
    for bucket in SELF_BUCKETS:
        m[f"{bucket}_ms"] = median([s.get(bucket, 0.0) for s in pass_self]) * 1e3

    def pooled(record):
        return [d for s in pass_samples for d in s.get(record, [])]

    def per_pass_total(record):
        return median([sum(s.get(record, [])) for s in pass_samples]) * 1e3

    steps = pooled("train.step")
    m.update({
        "tensor.backward_ms": median(pooled("tensor.backward")) * 1e3,
        "tensor.tape_nodes": median(counts.get("tensor.tape_nodes", [])),
        "model.train_fwd_ms": median(pooled("model.train_fwd")) * 1e3,
        "model.eval_fwd_ms.b256": median(pooled("model.eval_fwd.b256")) * 1e3,
        "model.eval_fwd_ms.b1": median(pooled("model.eval_fwd.b1")) * 1e3,
        "train.step_ms_p50": median(steps) * 1e3,
        "train.step_ms_p90": p90(steps) * 1e3,
        "train.val_ms": per_pass_total("train.val"),
        "train.ckpt_bytes": counts.get("train.ckpt_bytes", 0),
        "data.prepare_calls": counts.get("data.prepare_calls", 0),
        "evaluate.evaluate_ms": per_pass_total("evaluate.evaluate"),
        "evaluate.decompose_ms": per_pass_total("evaluate.decompose"),
        "cli.fits": counts.get("cli.fits", 0),
        "cli.fit_s_p50": median(pooled("cli.fit")),
        "cli.cpu_per_wall": sum(c for _, _, c in untraced) / sum(w for _, w, _ in untraced),
        "trace.run_s": median([w for _, w, _, _ in traced]),
        "trace.untraced_run_s": median([w for _, w, _ in untraced]),
    })
    m["trace.overhead_s"] = m["trace.run_s"] - m["trace.untraced_run_s"]
    notes = {"traced passes": len(traced), "untraced passes": len(untraced),
             "train steps": len(steps), "fits": len(pooled("cli.fit"))}
    return m, notes


def measure(workload, ctx, seconds: float, trace: bool):
    """Closed loop: run passes back to back, at least one of each kind, and
    start another while it would end less than half a pass past the
    budget. Only pass time counts against the budget, not checks."""
    spent = []

    def another(budget):
        done = sum(spent)
        return not spent or done + median(spent) / 2 <= budget

    untraced = []
    while another(seconds / 2 if trace else seconds):
        untraced.append(one_pass(workload, ctx, NullTracer()))
        spent.append(untraced[-1][1])
    traced = []
    if trace:
        tracer = Tracer()
        with installed(tracer):
            while not traced or another(seconds):
                p, wall, cpu = one_pass(workload, ctx, tracer)
                traced.append((p, wall, cpu, tracer.take_pass()))
                spent.append(wall)
    return untraced, traced


def report(metrics: dict, units: dict, notes: dict, attempted: int, failures: list,
           info: dict) -> dict:
    print("fingerprint " + json.dumps(info, sort_keys=True))
    for key, value in notes.items():
        print(f"samples {key}: {value}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    failed = min(len(failures), attempted)
    print(f"failed_share = {failed}/{attempted} operations = "
          f"{failed / max(attempted, 1):.6g} ratio")
    for message in failures:
        print(f"check failed: {message}")
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lino", "__init__.py")):
        print(f"error: no lino package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    # One BLAS thread, fixed before numpy loads: the thread count changes
    # both the speed and the parameter bits of a training run.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.scale)
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            start = time.perf_counter()
            ctx = workload.set_up(workdir, args.seed)
            setups.append(import_seconds() + time.perf_counter() - start)
        setup_s = statistics.median(setups)
        untraced, traced = measure(workload, ctx, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = untraced + [t[:3] for t in traced]
    attempted = sum(p.attempted for p, _, _ in runs)
    failures = [f for p, _, _ in runs for f in p.failures]
    if args.trace:
        metrics, notes = per_layer(untraced, traced, failures)
        units = dict(PER_LAYER)
    else:
        metrics, notes = end_to_end(setup_s, untraced)
        units = dict(END_TO_END)
    result = report(metrics, units, notes, attempted, failures, fingerprint(args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
