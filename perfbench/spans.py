"""Span tracer for the traced run.

The tracer wraps public functions of the `lino` package where their callers
bind them (module attributes such as `lino.cli.prepare`), so the program's
own files stay untouched. Spans are kept in memory: each one adds its self
time (its duration minus the time covered by its child spans) to a bucket,
and named spans also keep their inclusive duration as a sample. Because
every instant of a traced pass lies in exactly one span's self time, the
buckets of a pass add up to the pass's wall time.

Tape nodes recorded while a wrapped primitive runs are tagged with that
primitive's layer; before `backward` runs, each node's `vjp` is wrapped with
a timer for its layer, so backward time is attributed to the primitive that
recorded the node.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# self-time bucket of a pass's root span: time no layer span covers
UNATTRIBUTED = "trace.unattributed"
OTHER_VJP = "tensor.other_vjp"


def _mode(args, kwargs) -> str:
    """The `mode` argument of `forward(x, params, config, mode, rng)`."""
    return kwargs.get("mode", args[3] if len(args) > 3 else "eval")


class Tracer:
    """In-memory span aggregation for one process."""

    def __init__(self):
        self._stack = []                    # open spans: [bucket, start, child_s]
        self.self_s = defaultdict(float)    # bucket -> self seconds
        self.samples = defaultdict(list)    # record -> inclusive durations (s)
        self.counts = defaultdict(int)
        self.tape = None                    # tape active in the train loop
        self._node_layer = {}               # id(tape node) -> vjp bucket
        self._step_start = None

    def begin(self, bucket: str) -> None:
        self._stack.append([bucket, time.perf_counter(), 0.0])

    def end(self, record: str | None = None) -> float:
        bucket, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[bucket] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if record is not None:
            self.samples[record].append(duration)
        return duration

    @contextlib.contextmanager
    def span(self, bucket: str, record: str | None = None):
        self.begin(bucket)
        try:
            yield
        finally:
            self.end(record)

    def take_pass(self):
        """Hand over and reset what the spans of one pass collected."""
        out = (dict(self.self_s), {k: list(v) for k, v in self.samples.items()},
               dict(self.counts))
        self.self_s.clear()
        self.samples.clear()
        self.counts.clear()
        return out

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, bucket, record=None, count=None):
        def traced(*args, **kwargs):
            if count:
                self.counts[count] += 1
            self.begin(bucket)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(record)
        return traced

    def wrap_primitive(self, fn, fwd_bucket, vjp_bucket):
        """A tape primitive: time the forward, tag the nodes it records."""
        def traced(*args, **kwargs):
            tape = self.tape
            first = len(tape.nodes) if tape is not None else 0
            self.begin(fwd_bucket)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
                if tape is not None:
                    for node in tape.nodes[first:]:
                        self._node_layer[id(node)] = vjp_bucket
        return traced

    def wrap_backward(self, fn):
        def traced(tape, loss):
            self.samples["tensor.tape_nodes"].append(len(tape.nodes))
            for node in tape.nodes:
                node.vjp = self.wrap(node.vjp, self._node_layer.get(id(node), OTHER_VJP))
            self._node_layer.clear()
            self.begin("tensor.backward_self")
            try:
                return fn(tape, loss)
            finally:
                self.end("tensor.backward")
        return traced

    def wrap_train_forward(self, fn):
        """`lino.train.forward`: train mode is a step's forward, eval mode
        is the validation pass inside the train loop."""
        def traced(*args, **kwargs):
            if _mode(args, kwargs) == "train":
                self._step_start = time.perf_counter()
                record = "model.train_fwd"
            else:
                record = "train.val"
            self.begin("model.fwd_self")
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(record)
        return traced

    def wrap_adam(self, fn):
        def traced(*args, **kwargs):
            self.begin("train.adam")
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
                if self._step_start is not None:
                    self.samples["train.step"].append(
                        time.perf_counter() - self._step_start)
                    self._step_start = None
        return traced

    def wrap_eval_forward(self, fn):
        """`lino.model.forward` as `Forecaster.predict` calls it, recorded
        per batch size."""
        def traced(*args, **kwargs):
            self.begin("model.fwd_self")
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(f"model.eval_fwd.b{len(args[0])}")
        return traced

    def tape_class(self, base):
        tracer = self

        class TracedTape(base):
            def __enter__(self):
                tracer.tape = super().__enter__()
                return tracer.tape

            def __exit__(self, *exc):
                tracer.tape = None
                return super().__exit__(*exc)

        return TracedTape


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch the `lino` bindings for the duration of the block."""
    import lino.cli
    import lino.evaluate
    import lino.model
    import lino.train

    m = lino.model
    patches = [
        (lino.cli, "load_csv", tracer.wrap(lino.cli.load_csv, "data.load_csv")),
        (lino.cli, "prepare", tracer.wrap(lino.cli.prepare, "data.prepare",
                                          count="data.prepare_calls")),
        (lino.cli, "train", tracer.wrap(lino.cli.train, "train.loop",
                                        record="cli.fit", count="cli.fits")),
        (lino.cli, "evaluate", tracer.wrap(lino.cli.evaluate, "evaluate.self",
                                           record="evaluate.evaluate")),
        (lino.cli, "save_checkpoint", tracer.wrap(lino.cli.save_checkpoint,
                                                  "train.ckpt_save")),
        (lino.cli, "load_checkpoint", tracer.wrap(lino.cli.load_checkpoint,
                                                  "train.ckpt_load")),
        (lino.cli, "export_decomposition",
         tracer.wrap(lino.cli.export_decomposition, "evaluate.self",
                     record="evaluate.decompose")),
        (lino.evaluate, "forward", tracer.wrap(lino.evaluate.forward,
                                               "model.fwd_self")),
        (lino.train, "forward", tracer.wrap_train_forward(lino.train.forward)),
        (lino.train, "backward", tracer.wrap_backward(lino.train.backward)),
        (lino.train, "adam_step", tracer.wrap_adam(lino.train.adam_step)),
        (lino.train, "Tape", tracer.tape_class(lino.train.Tape)),
        (m, "forward", tracer.wrap_eval_forward(m.forward)),
        (m, "causal_depthwise_conv", tracer.wrap_primitive(
            m.causal_depthwise_conv, "tensor.conv_fwd", "tensor.conv_vjp")),
        (m, "freq_projection", tracer.wrap_primitive(
            m.freq_projection, "spectral.freq_fwd", "spectral.vjp")),
        (m, "linear", tracer.wrap_primitive(
            m.linear, "tensor.linear_fwd", "tensor.linear_vjp")),
        (m, "layer_norm", tracer.wrap_primitive(
            m.layer_norm, "tensor.layer_norm", "tensor.layer_norm")),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, fn in patches:
            setattr(mod, name, fn)
        yield tracer
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


class NullTracer:
    """Stand-in for untraced passes: spans cost one method call."""

    _null = contextlib.nullcontext()

    def span(self, bucket, record=None):
        return self._null
