"""Training: loss, optimiser, early stopping, the epoch loop, checkpoints.

The loop is deliberately boring. Per epoch: shuffle the training windows,
walk minibatches (the last partial one included), optionally add input
noise, run the forward in train mode under a tape, backprop, Adam step.
When the process has a CPU to spare (`fanout.spare_cpu`), a `Lane` is open
around the step loop, and the weight-side GEMMs of forward and backward
run on it, and so does most of Adam: each step's tape carries
`AdamState.hook`, and each block of the update starts on the lane as soon
as the backward walk has finished every gradient in it. The lane closes
before validation forks any worker. The bits do not depend on it.
After every epoch `evaluate` scores the validation split, as it scores the
test split, and feeds an early stopper with strict-improvement semantics (a
fixed `EarlyStopper.MIN_DELTA`); the best parameters are kept aside and
restored at the end, so the returned model is the best validation model,
not the last one.

Adam works in place. `AdamState.fresh` moves the parameters into one flat
buffer, each tensor's `data` a view of it, next to flat moment buffers;
each step gathers the gradients into a flat buffer too and updates all
three in cache-sized blocks, each by the one routine
`AdamState._update_block`. At small model sizes this replaces about
sixteen numpy calls per parameter with a fixed handful per block, and at
paper size it keeps each block in L2 across the update's passes. The
result is bitwise the per-parameter textbook update, whichever thread
runs a block and when. A gradient that is not finite aborts the fit with
an `error:` line that does not depend on the lane; blocks whose
gradients were all finite may have moved by then.

Everything that draws randomness pulls from a named per-consumer stream
of the run seed, which is what makes reruns bit-identical.

A checkpoint holds its model config as a JSON header and its float64
tensors in `param_shapes` order. Checkpoints from versions whose model
config had `mlp_hidden`, `revin_eps`, `fusion`, `integration` and `dtype`
still load when those keys hold the values that version's command line
always wrote.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import struct
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .data import add_noise
from .errors import CheckpointError, ConfigError, NonFiniteError
from .evaluate import evaluate
from .fanout import spare_cpu
from .model import Forecaster, LiNoConfig, Tensor, forward, init_params, param_shapes
from .seeding import stream
from .tensor import Lane, Tape, _defer, _finite, backward, mean_all, mul, sub


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over every element; gradient is 2*(pred-target)/n."""
    diff = sub(pred, target)
    return mean_all(mul(diff, diff))


# ---------------------------------------------------------------------------
# optimiser
# ---------------------------------------------------------------------------

# elements per block of the in-place update: a block's parameter, moment,
# gradient and two scratch slices (6 x 256 KB in float64) stay in a 2 MB
# per-core L2 across the update's fourteen passes; the sweep from 2^12 to
# unblocked is in BENCH_adam.json
_ADAM_BLOCK = 1 << 15

# Adam's moment decay rates and denominator offset, the usual defaults
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def _corrections(step: int) -> tuple:
    """Adam's bias corrections (1 - beta1^t, 1 - beta2^t) at step t."""
    b1, b2 = ADAM_BETAS
    return 1.0 - b1 ** step, 1.0 - b2 ** step


def _update(p, m, v, g, delta, den, c1, c2, lr) -> None:
    """Adam's fourteen elementwise passes over one block, in place, in the
    textbook order; `delta` and `den` are scratch of the block's length."""
    b1, b2 = ADAM_BETAS
    m *= b1
    np.multiply(g, 1.0 - b1, out=delta)
    m += delta
    v *= b2
    np.multiply(g, 1.0 - b2, out=delta)
    delta *= g
    v += delta
    np.divide(m, c1, out=delta)
    delta *= lr
    np.divide(v, c2, out=den)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    delta /= den
    np.subtract(p, delta, out=p)


@dataclass
class AdamState:
    """Adam's step count and moments, each one flat buffer.

    `values` holds every parameter end to end in dict order, and each
    parameter's `data` is a view of it, so one step updates the whole model
    with fourteen numpy calls per block instead of about sixteen per
    parameter. `m`, `v` and the gradient buffer `grad` share that layout.
    `names` maps each parameter tensor to its name, and `blocks` lists the
    update's blocks of `_ADAM_BLOCK` elements as (lo, hi, parts), one part
    (name, src, dst) for each parameter the block overlaps: `dst` is where
    that parameter's gradient gathers in `grad`. For a parameter that lies
    wholly inside the block, `src` is None and `dst` a view in the
    parameter's shape; for one that straddles a block edge, `src` slices
    the flattened gradient and `dst` is flat. `queued` holds (block, task)
    for each block update that a step's `hook` started, until `adam_step`
    ends the step.
    """

    step: int
    values: np.ndarray
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    names: dict
    blocks: list
    queued: Optional[list] = None

    @classmethod
    def fresh(cls, params: dict) -> "AdamState":
        """Zero moments for `params`, whose values move into one flat
        buffer: each tensor's `data` is rebound to its view of it."""
        size = sum(t.size for t in params.values())
        values, grad = np.empty(size), np.empty(size)
        spans, lo = {}, 0
        for name, t in params.items():
            hi = lo + t.size
            view = values[lo:hi].reshape(t.shape)
            view[...] = t.data
            t.data = view
            spans[name] = lo, hi, t.shape
            lo = hi
        blocks = []
        for lo in range(0, size, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, size)
            blocks.append((lo, hi, [
                (name, None, grad[a:z].reshape(shape)) if lo <= a and z <= hi else
                (name, slice(max(a, lo) - a, min(z, hi) - a), grad[max(a, lo):min(z, hi)])
                for name, (a, z, shape) in spans.items() if a < hi and lo < z]))
        return cls(0, values, np.zeros(size), np.zeros(size), grad,
                   {t: name for name, t in params.items()}, blocks)

    def hook(self, lr: float):
        """The `Tape.on_grad` hook of the next step, at learning rate `lr`.

        `backward` hands it each parameter's final gradient mid-walk. Once
        every parameter a block overlaps has one, the block's update goes
        to the lane (`_defer`), to run beside the rest of the walk; it
        keeps the gradients, which may still be `_Deferred`, unread until
        then. `adam_step` ends the step, updating the blocks the hook did
        not queue. Register it only while a lane is open: with none, each
        update would run at once, on the walk's thread, and a dim-16 step
        ran about 5% slower hooked than not.
        """
        c1, c2 = _corrections(self.step + 1)
        waiting = [len(parts) for _, _, parts in self.blocks]
        touched: dict = {}
        for b, (_, _, parts) in enumerate(self.blocks):
            for name, _, _ in parts:
                touched.setdefault(name, []).append(b)
        got, queued = {}, []
        self.queued = queued

        def on_grad(leaf, g):
            name = self.names.get(leaf)
            if name is None:
                return
            got[name] = g
            for b in touched.get(name, ()):
                waiting[b] -= 1
                if not waiting[b]:
                    args = [got[n] for n, _, _ in self.blocks[b][2]]
                    queued.append((b, _defer(self._update_block, b, c1, c2, lr, *args)))
        return on_grad

    def _update_block(self, b: int, c1: float, c2: float, lr: float, *grads) -> bool:
        """The one update of block `b`, whoever runs it: gather its parts of
        `grads` (one per part, None counting as zero) into `grad`, and
        update the block with scratch of its own, so that two blocks may
        run at once. Returns whether it moved: a non-finite gradient leaves
        the block's values and moments as they were."""
        lo, hi, parts = self.blocks[b]
        for (_, src, dst), pg in zip(parts, grads):
            if pg is None:
                dst[...] = 0
            else:
                dst[...] = pg if src is None else pg.reshape(-1)[src]
        g = self.grad[lo:hi]
        if not _finite(g):
            return False
        _update(self.values[lo:hi], self.m[lo:hi], self.v[lo:hi], g,
                *np.empty((2, hi - lo)), c1, c2, lr)
        return True


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update with `ADAM_BETAS` and `ADAM_EPS`, in
    place, that ends a step: `params` must be the dict `state` was made
    from, and their values, `state.m` and `state.v` change where they are.

    Each block of `_ADAM_BLOCK` elements that the step's `state.hook` did
    not queue (every block, on a step without one) is updated here by
    `_update_block`, from `grads`; a missing gradient counts as zero, so
    that parameter holds still. The queued blocks are then settled from
    the back, taking over those the lane has not started while the lane
    works from the front. Each op is elementwise and in the textbook
    order, so the result is bitwise the per-parameter update
    `p - lr * (m / c1) / (sqrt(v / c2) + ADAM_EPS)`, whichever thread runs
    a block and when.

    A block whose gradients are not all finite does not move, but blocks
    whose gradients are all finite may have moved; `state.step` does not
    advance, and `NonFiniteError` names the first non-finite parameter in
    dict order.
    """
    queued, state.queued = state.queued or [], None
    c1, c2 = _corrections(state.step + 1)
    started = {b for b, _ in queued}
    moved = [state._update_block(b, c1, c2, lr, *[grads.get(n) for n, _, _ in parts])
             for b, (_, _, parts) in enumerate(state.blocks) if b not in started]
    if not all(moved + [task.result() for _, task in reversed(queued)]):
        for name in params:
            g = grads.get(name)
            if g is not None and not np.isfinite(g).all():
                raise NonFiniteError(f"adam_step: non-finite gradient for {name}")
    state.step += 1


# ---------------------------------------------------------------------------
# early stopping
# ---------------------------------------------------------------------------

class EarlyStopper:
    """Stop after `patience` consecutive epochs without strict improvement.

    Improvement means the new value undercuts the best seen by more than
    `MIN_DELTA`; ties and drift within tolerance burn patience.
    """

    MIN_DELTA = 1e-7

    def __init__(self, patience: int):
        self.patience = patience
        self.best: Optional[float] = None
        self.best_epoch = 0
        self.bad_epochs = 0

    def update(self, epoch: int, value: float) -> bool:
        """Feed one validation value; returns True when it improved."""
        if self.best is None or value < self.best - self.MIN_DELTA:
            self.best = value
            self.best_epoch = epoch
            self.bad_epochs = 0
            return True
        self.bad_epochs += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.bad_epochs >= self.patience


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 6
    noise_alpha: float = 0.0   # train-time input noise scale
    seed: int = 1

    def __post_init__(self):
        if self.lr < 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("lr must be >= 0, batch_size and max_epochs >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if not 0.0 <= self.noise_alpha <= 1.0:
            raise ConfigError(f"noise_alpha must lie in [0, 1], got {self.noise_alpha}")


@dataclass
class TrainResult:
    params: dict
    history: list            # (epoch, train_mse, val_mse) rows
    best_epoch: int
    best_val: float


def train(train_x: np.ndarray, train_y: np.ndarray,
          val_x: np.ndarray, val_y: np.ndarray,
          config: LiNoConfig, tcfg: TrainConfig) -> TrainResult:
    """Fit a fresh model on window pairs; arrays are [n, channels, lookback]
    and [n, channels, horizon] on the dataset's standardised scale."""
    if len(train_x) == 0 or len(val_x) == 0:
        raise ConfigError("train and validation splits must be non-empty")

    params = init_params(config, stream(tcfg.seed, "init"))
    state = AdamState.fresh(params)
    dropout_rng = stream(tcfg.seed, "dropout")
    noise_rng = stream(tcfg.seed, "noise")
    shuffle_rng = stream(tcfg.seed, "shuffle")
    stopper = EarlyStopper(tcfg.patience)

    history = []
    best_params = {k: t.data.copy() for k, t in params.items()}
    n = len(train_x)
    for epoch in range(1, tcfg.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        sq_sum = 0.0
        lane = spare_cpu()
        with Lane() if lane else contextlib.nullcontext():
            for step, lo in enumerate(range(0, n, tcfg.batch_size), start=1):
                idx = order[lo:lo + tcfg.batch_size]
                xb, yb = add_noise(train_x[idx], tcfg.noise_alpha, noise_rng), train_y[idx]
                try:
                    with Tape(state.hook(tcfg.lr) if lane else None) as tape:
                        res = forward(xb, params, config, mode="train", rng=dropout_rng)
                        loss = mse_loss(res.y, Tensor(yb))
                    grads = backward(tape, loss)
                    adam_step(params, {name: grads[t] for name, t in params.items()
                                       if t in grads}, state, tcfg.lr)
                except NonFiniteError as exc:
                    raise NonFiniteError(f"epoch {epoch}, step {step}: {exc}") from exc
                sq_sum += loss.item() * yb.size
        train_mse = sq_sum / train_y.size
        try:
            val_mse = evaluate(Forecaster(params, config), val_x, val_y).mse
        except NonFiniteError as exc:
            raise NonFiniteError(f"epoch {epoch}, validation split: {exc}") from exc
        if not np.isfinite(train_mse):
            raise NonFiniteError(f"training diverged at epoch {epoch}")
        if not np.isfinite(val_mse):
            raise NonFiniteError(f"epoch {epoch}, validation split: mean squared "
                                 "error is not finite")
        history.append((epoch, train_mse, val_mse))
        if stopper.update(epoch, val_mse):
            best_params = {k: t.data.copy() for k, t in params.items()}
        if stopper.should_stop:
            break

    final = {k: Tensor(v, requires_grad=True) for k, v in best_params.items()}
    return TrainResult(params=final, history=history,
                       best_epoch=stopper.best_epoch,
                       best_val=float(stopper.best))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------
#
# Layout (all integers little-endian):
#   magic               8 bytes  b"LINOCKP1"
#   header length       u64
#   header              utf-8 json: {"extra": {...}, "model": {...}}
#   entry count         u32
#   per entry:
#     name length u16, name utf-8
#     dtype code  u8   (0 = float64, the only code)
#     ndim        u8, dims u64 each
#     payload     raw row-major little-endian values
#   sha256 of everything above, 32 bytes
# ---------------------------------------------------------------------------

_MAGIC = b"LINOCKP1"
_FLOAT64 = np.dtype("<f8")
_FLOAT64_CODE = 0
# model header keys that earlier versions wrote, each with the only value
# their command line could give it
_RETIRED_MODEL_KEYS = {"mlp_hidden": 0, "revin_eps": 1e-5, "fusion": "tanh",
                       "integration": True, "dtype": "float64"}


def save_checkpoint(path: str, config: LiNoConfig, params: dict,
                    extra: Optional[dict] = None) -> None:
    """Serialise (config, params). Writing the same inputs twice yields
    byte-identical files.

    The bytes go to a temporary file in the target's directory, which then
    replaces the target in one step, so a failed save leaves any previous
    checkpoint at `path` untouched.
    """
    buf = io.BytesIO()
    buf.write(_MAGIC)
    header = json.dumps({"extra": extra or {}, "model": asdict(config)},
                        sort_keys=True).encode()
    buf.write(struct.pack("<Q", len(header)))
    buf.write(header)
    buf.write(struct.pack("<I", len(params)))
    for name, tensor in params.items():
        raw = name.encode()
        buf.write(struct.pack("<H", len(raw)))
        buf.write(raw)
        buf.write(struct.pack("<BB", _FLOAT64_CODE, tensor.data.ndim))
        for dim in tensor.shape:
            buf.write(struct.pack("<Q", dim))
        buf.write(np.ascontiguousarray(tensor.data, dtype=_FLOAT64))
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh, buf.getbuffer() as body:
            fh.write(body)
            fh.write(hashlib.sha256(body).digest())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _current_fields(model: dict) -> dict:
    """The stored model header without the retired keys that hold the one
    value earlier versions wrote; any other value of a retired key stays
    and is rejected with the header."""
    return {k: v for k, v in model.items()
            if not (k in _RETIRED_MODEL_KEYS and type(v) is type(_RETIRED_MODEL_KEYS[k])
                    and v == _RETIRED_MODEL_KEYS[k])}


def load_checkpoint(path: str):
    """Read a checkpoint back as (config, params, extra).

    Verifies the magic, the trailing checksum, that the body parses to
    its end (it can match its checksum and still be malformed), and that
    the stored tensors exactly match the stored configuration's declared
    shapes; each failure is a `CheckpointError` naming `path`.
    """
    if not os.path.exists(path):
        raise CheckpointError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 32 or blob[:len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    # slices of a view copy nothing: each tensor's bytes are copied once, into its array
    body, digest = memoryview(blob)[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{path}: integrity check failed (truncated or corrupt)")
    off = len(_MAGIC)

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        vals = struct.unpack_from(fmt, body, off)
        off += size
        return vals if len(vals) > 1 else vals[0]

    try:
        header_len = take("<Q")
        header = json.loads(str(body[off:off + header_len], "utf-8"))
        off += header_len
        extra = header["extra"]
        try:
            config = LiNoConfig(**_current_fields(header["model"]))
        except (KeyError, TypeError, AttributeError, ConfigError) as exc:
            raise CheckpointError(f"{path}: bad model header: {exc}") from None
        count = take("<I")
        shapes = param_shapes(config)
        params = {}
        for _ in range(count):
            name_len = take("<H")
            name = str(body[off:off + name_len], "utf-8")
            off += name_len
            code, ndim = take("<BB")
            dims = tuple(take("<Q") for _ in range(ndim))
            if code != _FLOAT64_CODE:
                raise CheckpointError(f"{path}: unknown dtype code {code} for {name}")
            nbytes = 8 * int(np.prod(dims, dtype=np.int64))
            arr = np.frombuffer(body[off:off + nbytes], dtype=_FLOAT64).reshape(dims)
            off += nbytes
            if name not in shapes:
                raise CheckpointError(f"{path}: unexpected tensor {name!r}")
            if dims != shapes[name]:
                raise CheckpointError(
                    f"{path}: tensor {name} has shape {dims}, config requires {shapes[name]}")
            params[name] = Tensor(arr.copy(), requires_grad=True)
    except CheckpointError:
        raise
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint body: {exc}") from None
    if off != len(body):
        raise CheckpointError(f"{path}: {len(body) - off} bytes after the last tensor")
    missing = set(shapes) - set(params)
    if missing:
        raise CheckpointError(f"{path}: missing tensors {sorted(missing)[:3]}...")
    return config, params, extra
