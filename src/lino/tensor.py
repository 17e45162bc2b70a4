"""Reverse-mode automatic differentiation on numpy arrays.

The design is a small explicit-tape engine. A ``Tensor`` wraps an ndarray
and is treated as an immutable value; a ``Tape`` records every primitive
applied while it is active, in creation order, which is already a valid
topological order of the computation graph. ``backward`` walks that record
once in reverse, accumulating vector-Jacobian products into one gradient
per leaf, and returns them. One tape is open at a time: opening a tape
while one is open, the same one included, raises ``RuntimeError``.

Two properties the rest of the package leans on:

* ops called with no active tape run as plain numpy (this is eval mode;
  nothing is recorded and nothing requires grad), so model code has a
  single code path for training and inference;
* every primitive checks its output for NaN/Inf. A non-finite value is an
  error state, never something to propagate silently.

Gradients that the walk back to the input never reads, the weight
products of `linear` (`x.T @ g`), `channel_mix` and `freq_projection` and
the conv's kernel gradient, come back from a vjp as `_Deferred`
computations. While a `Lane` is open they run on its one worker thread
beside the walk; with none open they run at once. Either way each is the
same BLAS call on the same operands, so no bit depends on the lane. A
tape may also carry an `on_grad` hook, which `backward` hands each leaf's
gradient as soon as the walk has passed that leaf's last use; a lone fit
uses it to start Adam's update of each block of parameters on the lane
while the rest of the walk runs (`train.AdamState.hook`).

The op vocabulary is exactly what the model and its loss record:
`add`, `sub`, `mul`, `scale` and `tanh` elementwise; `linear`,
`causal_depthwise_conv` and `channel_mix`, the nonlinear block's
cross-channel mixing (softmax pooling over channels and a two-layer MLP)
as one op; `layer_norm` and `dropout`; `sum_all` and `mean_all`. The
model's one other primitive, `freq_projection`, lives in `spectral`: it
maps the complex frequency weights alone to a D x D operator. Every op
has a finite-difference gradient case in the acceptance suite. The conv
is the one op whose forward depends on whether it is recorded: a
recorded call runs a GEMM that agrees with the brute-force loop to
rounding, an unrecorded one a loop form that is bitwise that loop.

Binary ops require operands of identical shape. There is no generalized
broadcasting; the pooled channel summary is broadcast inside
`channel_mix`, and RevIN's statistics are constants holding broadcast
views, which keeps every vjp a plain shape-preserving expression. An op
writes in place only into arrays it has just created, never into its
inputs, parameters or upstream gradient, so any of them may be read-only.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionError, NonFiniteError

# The open tape, or None: there is one slot per process, since the lane
# never records and fits and eval batches run in forked workers.
_active: Optional["Tape"] = None

# The open lane, or None: one per process, as for the tape.
_lane: Optional["Lane"] = None


def _finite(data: np.ndarray) -> bool:
    # a NaN or an infinity makes the sum non-finite; finite values whose sum
    # overflows take the elementwise check. The ufunc reduce and
    # `math.isfinite` skip the Python layers of `ndarray.sum` and a numpy
    # scalar test
    return math.isfinite(np.add.reduce(data, axis=None)) or bool(np.isfinite(data).all())


def _check_finite(data: np.ndarray, op: str) -> None:
    if not _finite(data):
        raise NonFiniteError(f"{op}: non-finite values in output")


def _defer(fn: Callable, *args):
    """`fn(*args)`, computed now when no lane is open; else a `_Deferred`
    on the lane, which reads any `_Deferred` among `args` first."""
    return fn(*args) if _lane is None else _lane.submit(_Deferred(fn, args))


def _value(x):
    """The array `x` holds, or the result of the `_Deferred` `x`."""
    return x.result() if isinstance(x, _Deferred) else x


class _Deferred:
    """`fn(*args)` and whether it is finite, computed on the lane. `result()`
    returns it or raises what `fn` raised; reading a result the lane has
    not started takes it back and computes it on the reading thread."""

    __slots__ = ("fn", "args", "value", "finite", "error", "err", "unclaimed", "done")

    def __init__(self, fn: Callable, args: tuple):
        self.fn, self.args, self.error = fn, args, None

    def run(self) -> None:
        try:
            self.value = self.fn(*[_value(a) for a in self.args])
            self.finite = _finite(self.value)
        except BaseException as exc:  # raised again by `result`
            self.error = exc
        self.fn = self.args = None  # frees the operands

    def result(self) -> np.ndarray:
        if self.unclaimed.acquire(blocking=False):
            self.run()
            self.done.release()
        with self.done:  # held from submission until it has run
            pass
        if self.error is not None:
            raise self.error
        return self.value


class Lane:
    """One worker thread that runs `_Deferred` computations in submission
    order while the thread that opened it walks on. Opening a lane while
    one is open raises `RuntimeError`; closing it runs what is queued and
    joins the thread.

    numpy's floating-point error state is per thread, so each computation
    runs under its submitter's. Nothing that runs here may call a public
    op or open a tape: only the opening thread records. Besides the
    weight-side gradients, a fit's lane runs Adam's block updates
    (`train.AdamState.hook`), which write only the parameter blocks whose
    every use the walk has passed.
    """

    def __enter__(self) -> "Lane":
        global _lane
        if _lane is not None:
            raise RuntimeError("a lane is already open")
        import queue  # with `threading`, only a fit with a CPU to spare needs it
        import threading
        self._lock, self._queue = threading.Lock, queue.SimpleQueue()
        self._thread = threading.Thread(target=self._serve, name="lino-lane", daemon=True)
        self._thread.start()
        _lane = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _lane
        _lane = None
        self._queue.put(None)
        self._thread.join()

    def submit(self, task: _Deferred) -> _Deferred:
        task.err, task.unclaimed, task.done = np.geterr(), self._lock(), self._lock()
        task.done.acquire()
        self._queue.put(task)
        return task

    def _serve(self) -> None:
        for task in iter(self._queue.get, None):
            if task.unclaimed.acquire(blocking=False):
                with np.errstate(**task.err):
                    task.run()
                task.done.release()


class Tensor:
    """Immutable-by-convention ndarray wrapper with a requires-grad flag.

    Data is always float64: the constructor converts whatever it is given,
    so every value on a tape has the one precision the package computes
    in. A tensor holds no gradient; `backward` returns them. Mutating
    `data` in place voids the recorded graph, so only Adam's update does,
    to parameters between steps, or during `backward` to those whose last
    use the walk has passed (`Tape.on_grad`); everything else builds new
    tensors.
    """

    __slots__ = ("data", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class _Node:
    """One recorded primitive: output, parents, and the local vjp."""

    __slots__ = ("out", "parents", "vjp", "op")

    def __init__(self, out: Tensor, parents: tuple, vjp: Callable, op: str):
        self.out = out
        self.parents = parents
        self.vjp = vjp
        self.op = op


class Tape:
    """Recording context. Node order is creation order, hence topological.

    Entering a tape while any tape is open, this one included, raises
    `RuntimeError`, and so does exiting a tape that is not the open one;
    exiting the open tape leaves no tape open. `on_grad`, if given, is
    called by `backward` as `on_grad(leaf, gradient)` with each leaf's
    final gradient, in the middle of the walk.
    """

    def __init__(self, on_grad: Optional[Callable] = None):
        self.nodes: list[_Node] = []
        self.on_grad = on_grad

    def __enter__(self) -> "Tape":
        global _active
        if _active is not None:
            raise RuntimeError("a tape is already open")
        _active = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _active
        if _active is not self:
            raise RuntimeError("exited a tape that is not the open one")
        _active = None

    def __len__(self) -> int:
        return len(self.nodes)


def _recording_tape(parents: Sequence[Tensor]) -> Optional[Tape]:
    """The tape an op on `parents` is recorded on: the active tape, if one
    is active and some parent requires grad; else None."""
    return _active if _active is not None and any(p.requires_grad for p in parents) else None


def _record(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable, op: str) -> Tensor:
    _check_finite(data, op)
    tape = _recording_tape(parents)
    out = Tensor(data, requires_grad=tape is not None)
    if tape is not None:
        tape.nodes.append(_Node(out, tuple(parents), vjp, op))
    return out


def backward(tape: Tape, loss: Tensor) -> dict:
    """Reverse-accumulate d(loss)/d(leaf) for every requires-grad leaf.

    `loss` must be a scalar produced under `tape`. Returns a dict mapping
    each leaf Tensor that received gradient to its ndarray; that dict is
    the only output, and no tensor is changed. Fan-out sums, as it must,
    and no two leaves share a gradient array.

    The walk resolves a `_Deferred` gradient only where it needs it: as a
    node's upstream gradient, in a sum, or at the end. Sums keep the walk's
    order, so the bits match a walk that computed each gradient at once,
    and so does the error: a gradient that is not finite raises
    `NonFiniteError` for the first failure in walk order, naming the op
    and, for a named leaf, its parameter (`backward[linear:embed.w]`).

    With a `tape.on_grad` hook, each leaf that a node uses is handed to it
    with its gradient as soon as the walk has passed the first node, in
    tape order, that uses it: no later step of the walk changes that
    gradient. The gradient may still be a `_Deferred`; the hook must not
    resolve it, since the walk's own check of it comes later, in order.
    """
    if loss.size != 1:
        raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    nodes = tape.nodes
    produced = {id(node.out) for node in nodes}
    if id(loss) not in produced and loss.requires_grad:
        leaves[id(loss)] = loss
    pending = []  # (deferred gradient, node, parent) in walk order
    # position of a node -> the leaves whose last use in the walk it is
    final_at: dict[int, list] = {}
    if tape.on_grad is not None:
        seen = set()
        for at, node in enumerate(nodes):
            for p in node.parents:
                if p.requires_grad and id(p) not in produced and id(p) not in seen:
                    seen.add(id(p))
                    final_at.setdefault(at, []).append(p)

    def fail(node=None, parent=None):
        # a deferred gradient received earlier in the walk fails first
        for task, at, to in pending:
            task.result()
            if not task.finite:
                node, parent = at, to
                break
        name = f":{parent.name}" if parent.name else ""
        raise NonFiniteError(f"backward[{node.op}{name}]: non-finite values in output")

    def resolved(g):
        if not isinstance(g, _Deferred):
            return g
        value = g.result()
        if not g.finite:
            fail()
        return value

    for at in range(len(nodes) - 1, -1, -1):
        node = nodes[at]
        g = grads.pop(id(node.out), None)
        if g is not None:
            parent_grads = node.vjp(resolved(g))
            for parent, pg in zip(node.parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                if isinstance(pg, _Deferred):
                    pending.append((pg, node, parent))
                elif not _finite(pg):
                    fail(node, parent)
                key = id(parent)
                if key in grads:
                    grads[key] = resolved(grads[key]) + resolved(pg)
                else:
                    grads[key] = pg
                if key not in produced:
                    leaves[key] = parent
        for leaf in final_at.get(at, ()):
            if id(leaf) in grads:
                tape.on_grad(leaf, grads[id(leaf)])
    for task, _, _ in pending:
        resolved(task)
    # `add` hands one array to both operands; each leaf gets its own
    out, given = {}, set()
    for key, leaf in leaves.items():
        g = resolved(grads[key])
        out[leaf] = g.copy() if id(g) in given else g
        given.add(id(g))
    return out


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _record(a.data + b.data, (a, b), lambda g: (g, g), "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return _record(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return _record(ad * bd, (a, b), lambda g: (g * bd if a.requires_grad else None,
                                               g * ad if b.requires_grad else None), "mul")


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _record(a.data * s, (a,), lambda g: (g * s,), "scale")


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _record(y, (a,), lambda g: (g * (1.0 - y * y),), "tanh")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Affine map over the trailing axis: x @ w + b.

    x: [..., In], w: [In, Out], b: [Out] or None. Leading axes are batch.
    They are flattened into rows, so the forward and each matmul of the
    backward is one 2-d GEMM over [prod(lead), In], not one small GEMM per
    leading index. A row's result can then differ in the last bits with
    the rows that share its GEMM, so outputs agree across batch layouts to
    rounding, not bitwise.
    """
    if w.data.ndim != 2:
        raise DimensionError(f"linear: weight must be 2-d, got {w.shape}")
    n_in, n_out = w.shape
    if x.shape[-1] != n_in:
        raise DimensionError(f"linear: input trailing dim {x.shape[-1]} != weight rows {n_in}")
    if b is not None and b.shape != (n_out,):
        raise DimensionError(f"linear: bias shape {b.shape} != ({n_out},)")
    xd, wd = x.data.reshape(-1, n_in), w.data
    y = (xd @ wd).reshape(x.shape[:-1] + (n_out,))
    if b is not None:
        y += b.data

    def vjp(g):
        g = g.reshape(-1, n_out)
        gw = _defer(np.matmul, xd.T, g)
        gx = (g @ wd.T).reshape(x.shape) if x.requires_grad else None
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=0)

    parents = (x, w) if b is None else (x, w, b)
    return _record(y, parents, vjp, "linear")


# Bytes per column-block buffer of the blocked conv forward, in either
# block layout: 256 columns of one channel, or 36 windows of 7 channels
# (252 columns), at D = 256. A block's input, accumulator and product
# buffers (1.5 MiB) fit a 2 MiB L2 cache; 512 KiB was the fastest size in a
# sweep from 32 KiB to 1 MiB at D=256 and D=512 (whole-channel blocks).
_CONV_BLOCK_BYTES = 1 << 19

# Most columns (rows of D values, one per window and channel) that the conv
# forward runs in the Toeplitz form; wider inputs take the blocked loop. In
# a sweep over 1-28 columns at D = 16, 96, 256 and 512, the Toeplitz form
# won at every D up to 8 columns; the blocked loop won from 10 columns at
# D = 16 and from about 16-24 at D >= 96 (BENCH_serve.json).
_CONV_TOEPLITZ_COLS = 8

# Outputs per tile of the Toeplitz form. At D=512 a [512, 128] tile of
# terms (512 KiB) stays in L2; 128 beat 32, 64 and untiled at D=256 and
# D=512.
_CONV_TOEPLITZ_TILE = 128

# Least values per channel (windows times D) for which the blocked loop
# takes one channel per block; below it, blocks hold whole rows of channels.
# In a sweep over C = 3, 7, 21, D = 16 to 512 and 5 to 512 windows, one
# channel per block won at 55 of the 57 shapes from 16384 values and was
# within 5% at the other two; at 8192 and below it lost by up to 1.5x at
# D >= 64 and up to 10x at D = 16, C = 21 (BENCH_convchan.json).
_CONV_CHANNEL_MIN = 16384


def _conv_block_width(c: int, d: int) -> int:
    """Columns per block of the conv forward: a multiple of the channel
    count, so every block starts at channel 0, and at least one row of
    channels."""
    return c * max(1, _CONV_BLOCK_BYTES // (c * d * 8))  # 8 bytes a value


def _conv_toeplitz(rows, pd, bd, out_rows) -> None:
    """The conv forward, one column at a time.

    The column goes into the tail of a zero-padded buffer, read back as the
    view toe[k, t] = column[t - k] (zero for t < k). For a tile of outputs
    t0 <= t < t1, one multiply by the kernel forms the terms
    phi[c, k] * column[t - k] for every k < t1, and `add.reduce` over the
    outer axis sums them for k ascending from +0.0. Each output gets every
    one of its terms in one reduce; the extra terms (t < k) are exact
    zeros, which change no bit. Tiling skips the zero terms k >= t1 and
    keeps the product buffer in cache.
    """
    cols, d = rows.shape
    c = len(pd)
    tile = min(d, _CONV_TOEPLITZ_TILE)
    # one allocation for the products, the accumulator and the padded column
    buf = np.empty(d * tile + cols * d + 2 * d - 1)
    prod = buf[: d * tile]
    acc = buf[d * tile : d * tile + cols * d].reshape(cols, d)
    pad = buf[d * tile + cols * d :]
    pad[: d - 1] = 0
    toe = _toeplitz(pad).T
    for j in range(cols):
        np.copyto(pad[d - 1 :], rows[j])
        for t0 in range(0, d, tile):
            t1 = min(d, t0 + tile)
            terms = prod[: t1 * (t1 - t0)].reshape(t1, t1 - t0)
            np.multiply(pd[j % c, :t1, None], toe[:t1, t0:t1], out=terms)
            np.add.reduce(terms, axis=0, initial=0.0, out=acc[j, t0:t1])
    np.add(acc.reshape(-1, c, d), bd[:, None], out=out_rows.reshape(-1, c, d))


def _conv_blocked(rows, pd, bd, out_rows) -> None:
    """The conv forward in position-major blocks of columns.

    Blocks of columns are copied into [D, width] buffers sized by
    `_CONV_BLOCK_BYTES`. Each k step is then one contiguous multiply of
    rows ..D-k of the block by a factor into a reused product buffer, and
    one contiguous add into rows k.. of the accumulator.

    When each channel has at least `_CONV_CHANNEL_MIN` values (windows
    times D), a block holds the columns of one channel and the factor is
    the Python float phi[c, k], so the multiply is one 1-d loop. Below
    that, C times as many blocks would cost more calls than they save, and
    a block holds whole rows of channels (its width a multiple of C, so
    every block starts at channel 0): the factor is then the row
    phi[j % C, k] over the block's columns j, broadcast over its rows.
    """
    cols, d = rows.shape
    c = len(pd)
    n = cols // c
    if n * d >= _CONV_CHANNEL_MIN:
        width = min(max(1, _CONV_BLOCK_BYTES // (d * 8)), n)  # 8 bytes a value
        # channel-major [C, N, D] views of the input and output columns
        src = rows.reshape(n, c, d).transpose(1, 0, 2)
        dst = out_rows.reshape(n, c, d).transpose(1, 0, 2)
        blocks = [(src[ci, j : j + width], dst[ci, j : j + width],
                   pd[ci].tolist(), float(bd[ci]))
                  for ci in range(c) for j in range(0, n, width)]
    else:
        width = min(_conv_block_width(c, d), cols)
        kern = np.tile(pd.T, width // c)  # kern[k, j] = phi[j % C, k]
        bias = np.tile(bd, width // c)
        blocks = [(rows[j : j + width], out_rows[j : j + width],
                   kern[:, : min(width, cols - j)], bias[: min(width, cols - j)])
                  for j in range(0, cols, width)]
    # one allocation: three separate buffers raised the peak RSS of a
    # paper-shape training run by about 5%
    x_buf, acc_buf, prod_buf = np.empty((3, d * width))
    for src_cols, dst_cols, factor, beta in blocks:
        w = len(src_cols)
        x = x_buf[: d * w].reshape(d, w)
        acc = acc_buf[: d * w].reshape(d, w)
        prod = prod_buf[: d * w].reshape(d, w)
        np.copyto(x, src_cols.T)
        acc.fill(0)
        for k in range(d):
            np.multiply(x[: d - k], factor[k], out=prod[: d - k])
            np.add(acc[k:], prod[: d - k], out=acc[k:])
        np.add(acc, beta, out=dst_cols.T)


def _toeplitz(padded: np.ndarray) -> np.ndarray:
    """Read-only Toeplitz view [..., D, D] of a [..., 2D - 1] array:
    view[..., i, j] = padded[..., D - 1 + i - j]."""
    d = (padded.shape[-1] + 1) // 2
    step = padded.strides[-1]
    return as_strided(padded[..., d - 1 :], padded.shape[:-1] + (d, d),
                      padded.strides[:-1] + (step, -step), writeable=False)


def _conv_operator(pd: np.ndarray) -> np.ndarray:
    """Each channel's Toeplitz operator as one contiguous [C, D, D] array:
    toeplitz[c, i, j] = phi[c, i - j], zero above the diagonal. It is a
    copy of a strided view of the kernel, zero-padded on the left."""
    c, d = pd.shape
    padded = np.zeros((c, 2 * d - 1))
    padded[:, d - 1 :] = pd
    return np.ascontiguousarray(_toeplitz(padded))


def causal_depthwise_conv(h: Tensor, phi: Tensor, beta: Tensor) -> Tensor:
    """Per-channel causal convolution with full receptive field.

    h: [..., C, D], phi: [C, D], beta: [C]. Left zero-padding, so
    out[..., c, d] = sum_{k=0..d} phi[c, k] * h[..., c, d-k] + beta[c].

    The leading axes and channels flatten into columns of D values, and
    the forward runs in one of three forms:

    * a recorded call (a tape is active and some parent requires grad, the
      rule `_record` applies), the GEMM form: each channel's Toeplitz
      operator (`_conv_operator`) is built once, and one batched matmul
      over channels computes out[c] = h[c] @ toeplitz[c].T + beta[c]. The
      vjp closes over the same operator;
    * an unrecorded call of up to `_CONV_TOEPLITZ_COLS` (8) columns, which
      covers one window of up to 8 channels, the Toeplitz form
      (`_conv_toeplitz`): per column, one copy and then one multiply and
      one `add.reduce` per tile of `_CONV_TOEPLITZ_TILE` outputs, each
      over every term of the tile's outputs, zero terms above the diagonal
      included;
    * a wider unrecorded call, the blocked loop (`_conv_blocked`): 2·D
      numpy calls per block of columns, each over the terms of one k. A
      block holds one channel's columns once a channel has
      `_CONV_CHANNEL_MIN` values, so each k step multiplies by one float;
      narrower inputs keep blocks of whole channels, multiplied by a row
      of kernel values.

    The two unrecorded forms compute every output element as a
    brute-force (c, d, k) loop does, bitwise: an accumulator starts at
    +0.0, takes acc = fl(acc + fl(phi[c, k] * h[..., c, d-k])) for k
    ascending, and then adds beta[c]; fl rounds to float64. The Toeplitz
    form is bitwise only because numpy reduces over an outer axis of a
    contiguous array one row at a time, in index order, with no pairwise
    or reordered summation; the bitwise tests against the loop reference
    pin this for both forms. So eval, validation and `Forecaster.predict`
    are bitwise the loop. The GEMM form is not: BLAS may reorder the sum
    and fuse multiply-adds, so a recorded forward agrees with the loop to
    rounding (about 1e-15 relative), as the backward does. It is
    deterministic at one BLAS thread, which every command sets, so reruns
    stay bitwise.

    Between the loop forms, the Toeplitz form does up to twice the
    arithmetic of the loop but makes far fewer calls, so it wins while
    per-call cost dominates; a crossover sweep over the column count at
    D = 16 to 512 set the bound (BENCH_serve.json). In the blocked loop,
    a row multiply runs one short broadcast row at a time, about 3x the
    cost of the same multiply by a scalar, so one-channel blocks halve an
    eval call at (256, 7, 256): 62-68 against 34-41 ms, one thread
    (BENCH_convchan.json). The GEMM form beats the blocked loop at
    training widths, where the loop is bound by memory traffic: at
    (32, 7, 256), one BLAS thread, 1.6 against 8.6 ms per call
    (BENCH_convgemm.json).

    The backward agrees with the k-loop adjoint to rounding: the input
    gradient multiplies by each channel's Toeplitz operator, and the
    kernel gradient sums the superdiagonals of h^T g.
    """
    if h.data.ndim < 2:
        raise DimensionError(f"conv: input needs [..., C, D], got {h.shape}")
    c, d = h.shape[-2], h.shape[-1]
    if phi.shape != (c, d):
        raise DimensionError(f"conv: kernel shape {phi.shape} != ({c}, {d})")
    if beta.shape != (c,):
        raise DimensionError(f"conv: bias shape {beta.shape} != ({c},)")
    hd, pd, bd = h.data, phi.data, beta.data
    out = np.empty(hd.shape)
    # channel-major [C, N, D] views, N = product of the leading axes; each
    # channel's [N, D] slice has row stride C·D, which BLAS takes as is
    def channel_major(a):
        return a.reshape(-1, c, d).transpose(1, 0, 2)

    toeplitz = None
    if _recording_tape((h, phi, beta)) is not None:
        toeplitz = _conv_operator(pd)
        ov = channel_major(out)
        np.matmul(channel_major(hd), toeplitz.transpose(0, 2, 1), out=ov)
        ov += bd[:, None, None]
    elif out.size:
        rows = hd.reshape(-1, d)
        form = _conv_toeplitz if len(rows) <= _CONV_TOEPLITZ_COLS else _conv_blocked
        form(rows, pd, bd, out.reshape(-1, d))

    def kernel_grad(hv, gv):
        # gphi[c, k] = sum_j (h^T g)[c, j, j + k]. Rows of h^T g go into a
        # buffer of row width 2D, zero past D; reread in rows of width 2D + 1,
        # row j starts j places later, so column k holds superdiagonal k.
        # One channel at a time keeps the buffer small.
        skew = np.zeros(d * (2 * d + 1))
        gphi = np.empty_like(pd)
        for ci in range(c):
            np.matmul(hv[ci].T, gv[ci], out=skew[: 2 * d * d].reshape(d, 2 * d)[:, :d])
            gphi[ci] = skew.reshape(d, 2 * d + 1)[:, :d].sum(axis=0)
        return gphi

    def vjp(g):
        hv, gv = channel_major(hd), channel_major(g)
        gphi = _defer(kernel_grad, hv, gv)
        gh = np.empty(hd.shape)
        np.matmul(gv, toeplitz, out=channel_major(gh))
        return gh, gphi, gv.sum(axis=(1, 2))

    return _record(out, (h, phi, beta), vjp, "causal_depthwise_conv")


def _channel_softmax(xd: np.ndarray) -> np.ndarray:
    """The max-subtracted softmax of [N, C, D] `xd` over its channel axis."""
    s = xd - xd.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)
    return s


def channel_mix(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Cross-channel mixing as one op: x + tanh([x | p] @ w1 + b1) @ w2 + b2.

    x: [..., C, D], w1: [2D, D], b1, b2: [D], w2: [D, D]. p is each
    window's pooled summary sum_c s[c] * x[c], with s the max-subtracted
    softmax over the channel axis, broadcast back over the channels. The
    first product runs as its halves, x @ w1[:D] + (p @ w1[D:] + b1), so
    the pooled half costs one row per window. As in `linear`, leading axes
    flatten into rows and every product is one 2-d GEMM. The
    pre-activation is checked for NaN/Inf, as a `linear` output is: the
    tanh would saturate an overflow into a finite output.
    """
    if x.data.ndim < 2:
        raise DimensionError(f"channel_mix: input needs [..., C, D], got {x.shape}")
    c, d = x.shape[-2:]
    for name, t, want in (("w1", w1, (2 * d, d)), ("b1", b1, (d,)),
                          ("w2", w2, (d, d)), ("b2", b2, (d,))):
        if t.shape != want:
            raise DimensionError(f"channel_mix: {name} shape {t.shape} != {want}")
    xd = x.data.reshape(-1, c, d)
    rows = xd.reshape(-1, d)
    w1_own, w1_pool = w1.data[:d], w1.data[d:]
    # the softmax weights live only for the pooling: the vjp recomputes them, bit for bit
    pooled = (_channel_softmax(xd) * xd).sum(axis=1)
    pre = (rows @ w1_own).reshape(xd.shape)
    pre += (pooled @ w1_pool + b1.data)[:, None]
    _check_finite(pre, "channel_mix")
    hidden = np.tanh(pre, out=pre).reshape(-1, d)
    y = hidden @ w2.data
    y += b2.data
    y += rows

    def vjp(g):
        g = g.reshape(-1, d)
        gw2 = _defer(np.matmul, hidden.T, g)
        gpre = g @ w2.data.T * (1.0 - hidden * hidden)
        gpooled = gpre.reshape(xd.shape).sum(axis=1)
        gw1 = _defer(lambda: np.concatenate([rows.T @ gpre, pooled.T @ gpooled]))
        gx = None
        if x.requires_grad:
            # the pooling and the softmax together give channel c
            # s[c] * (1 + x[c] - p) times the pooled half's input gradient
            gx = _channel_softmax(xd) * (1.0 + xd - pooled[:, None]) \
                * (gpooled @ w1_pool.T)[:, None]
            gx += (gpre @ w1_own.T + g).reshape(xd.shape)
            gx = gx.reshape(x.shape)
        return gx, gw1, gpre.sum(axis=0), gw2, g.sum(axis=0)

    return _record(y.reshape(x.shape), (x, w1, b1, w2, b2), vjp, "channel_mix")


# ---------------------------------------------------------------------------
# normalisation and regularisation
# ---------------------------------------------------------------------------

def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalise the trailing axis to zero mean, unit (population) variance,
    then apply the affine (gamma, beta)."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm: affine shapes {gamma.shape}/{beta.shape} != ({d},)")
    # np.add.reduce(...) / d is `.mean`, bit for bit, without its wrapper
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    lead = tuple(range(xhat.ndim - 1))
    y = xhat * gamma.data
    y += beta.data

    def vjp(g):
        gxhat = g * gamma.data
        gx = gxhat - np.add.reduce(gxhat, axis=-1, keepdims=True) / d
        gx -= xhat * (np.add.reduce(gxhat * xhat, axis=-1, keepdims=True) / d)
        gx *= inv
        # reduced in g's memory order: an axis-0 reduce of g.reshape(-1, d)
        # moves bits for a non-contiguous g, and measured no faster
        return gx, np.add.reduce(g * xhat, axis=lead), np.add.reduce(g, axis=lead)

    return _record(y, (x, gamma, beta), vjp, "layer_norm")


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: with an rng, keeps each value with probability
    1-p and scales the kept ones by 1/(1-p). With no rng, or p = 0, it
    returns the input unchanged (bitwise: it is the same tensor)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must lie in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x
    keep = rng.random(x.shape) >= p
    factor = keep / (1.0 - p)
    return _record(x.data * factor, (x,), lambda g: (g * factor,), "dropout")


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_all(x: Tensor) -> Tensor:
    y = np.asarray(x.data.sum())
    return _record(y, (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),), "sum_all")


def mean_all(x: Tensor) -> Tensor:
    return scale(sum_all(x), 1.0 / x.size)
