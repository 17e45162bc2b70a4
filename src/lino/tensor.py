"""Reverse-mode automatic differentiation on numpy arrays.

The design is a small explicit-tape engine. A ``Tensor`` wraps an ndarray
and is treated as an immutable value; a ``Tape`` records every primitive
applied while it is active, in creation order, which is already a valid
topological order of the computation graph. ``backward`` walks that record
once in reverse, accumulating vector-Jacobian products into one gradient
per leaf, and returns them.

Two properties the rest of the package leans on:

* ops called with no active tape run as plain numpy (this is eval mode;
  nothing is recorded and nothing requires grad), so model code has a
  single code path for training and inference;
* every primitive checks its output for NaN/Inf. A non-finite value is an
  error state, never something to propagate silently.

The op vocabulary is exactly what the model and its loss record:
`add`, `sub`, `mul`, `scale` and `tanh` elementwise; `linear` and
`causal_depthwise_conv`; `softmax_axis`, `layer_norm` and `dropout`;
`sum_axis`, `sum_all`, `mean_all`, `concat` and `repeat_axis`. The model's
one other primitive, `freq_projection`, lives in `spectral`: it maps the
complex frequency weights alone to a D x D operator. Every op has a
finite-difference gradient case in the acceptance suite. The conv is the
one op whose forward depends on whether it is recorded: a recorded call
runs a GEMM that agrees with the brute-force loop to rounding, an
unrecorded one a loop form that is bitwise that loop.

Binary ops require operands of identical shape. There is no generalized
broadcasting; the few places the model needs a broadcast use `repeat_axis`
or pre-broadcast constants, which keeps every vjp a plain shape-preserving
expression.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, NonFiniteError

_local = threading.local()


def _tape_stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


def _active_tape() -> Optional["Tape"]:
    stack = _tape_stack()
    return stack[-1] if stack else None


def _check_finite(data: np.ndarray, op: str) -> None:
    # a NaN or an infinity makes the sum non-finite; finite values whose sum
    # overflows take the elementwise check
    if not np.isfinite(data.sum()) and not np.isfinite(data).all():
        raise NonFiniteError(f"{op}: non-finite values in output")


class Tensor:
    """Immutable-by-convention ndarray wrapper with a requires-grad flag.

    Data is always float64: the constructor converts whatever it is given,
    so every value on a tape has the one precision the package computes
    in. A tensor holds no gradient; `backward` returns them. Mutating
    `data` in place voids the recorded graph, so only `train.adam_step`
    does, to parameters between steps, when no tape holds them;
    everything else builds new tensors.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)

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

    A tape is confined to the thread that opens it; tensors themselves are
    plain values and can cross threads freely.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack().pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted: exited a tape that is not innermost")

    def __len__(self) -> int:
        return len(self.nodes)


def _recording_tape(parents: Sequence[Tensor]) -> Optional[Tape]:
    """The tape an op on `parents` is recorded on: the active tape, if one
    is active and some parent requires grad; else None."""
    tape = _active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        return tape
    return None


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
    the only output, and no tensor is changed. Fan-out sums, as it must.
    """
    if loss.size != 1:
        raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    produced = {id(node.out) for node in tape.nodes}
    if id(loss) not in produced and loss.requires_grad:
        leaves[id(loss)] = loss
    for node in reversed(tape.nodes):
        g = grads.pop(id(node.out), None)
        if g is None:
            continue
        parent_grads = node.vjp(g)
        for parent, pg in zip(node.parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            _check_finite(pg, f"backward[{node.op}]")
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
            if key not in produced:
                leaves[key] = parent
    return {leaf: grads[key] for key, leaf in leaves.items()}


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
    return _record(ad * bd, (a, b), lambda g: (g * bd, g * ad), "mul")


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
        y = y + b.data

    def vjp(g):
        g = g.reshape(-1, n_out)
        gx = (g @ wd.T).reshape(x.shape) if x.requires_grad else None
        gw = xd.T @ g
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=0)

    parents = (x, w) if b is None else (x, w, b)
    return _record(y, parents, vjp, "linear")


# Bytes per column-block buffer of the conv forward. A block's input,
# accumulator and product buffers (1.5 MiB) fit a 2 MiB L2 cache; 512 KiB
# was the fastest size in a sweep from 32 KiB to 1 MiB at D=256 and D=512.
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
    toe = sliding_window_view(pad, d)[::-1]
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
    `_CONV_BLOCK_BYTES`. Each k step is then one contiguous multiply into a
    reused product buffer and one contiguous add into rows k.. of the
    accumulator. A block's width is a multiple of C, so one [D, width] tile
    of the kernel serves every block.
    """
    cols, d = rows.shape
    c = len(pd)
    width = min(_conv_block_width(c, d), cols)
    kern = np.tile(pd.T, width // c)  # kern[k, j] = phi[j % C, k]
    bias = np.tile(bd, width // c)
    # one allocation: three separate buffers raised the peak RSS of a
    # paper-shape training run by about 5%
    x_buf, acc_buf, prod_buf = np.empty((3, d * width))
    for j in range(0, cols, width):
        w = min(width, cols - j)
        x = x_buf[: d * w].reshape(d, w)
        acc = acc_buf[: d * w].reshape(d, w)
        prod = prod_buf[: d * w].reshape(d, w)
        np.copyto(x, rows[j : j + w].T)
        acc.fill(0)
        for k in range(d):
            np.multiply(kern[k, :w], x[: d - k], out=prod[: d - k])
            np.add(acc[k:], prod[: d - k], out=acc[k:])
        np.add(acc, bias[:w], out=out_rows[j : j + w].T)


def _conv_operator(pd: np.ndarray) -> np.ndarray:
    """Each channel's Toeplitz operator as one contiguous [C, D, D] array:
    toeplitz[c, i, j] = phi[c, i - j], zero above the diagonal. It is a
    copy of a strided view of the kernel, zero-padded on the left."""
    c, d = pd.shape
    padded = np.concatenate([np.zeros((c, d - 1)), pd], axis=-1)
    return np.ascontiguousarray(sliding_window_view(padded, d, axis=-1)[..., ::-1])


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
      numpy calls per block of columns, each over the terms of one k.

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
    deterministic at a fixed BLAS thread count, so reruns stay bitwise.

    Between the loop forms, the Toeplitz form does up to twice the
    arithmetic of the loop but makes far fewer calls, so it wins while
    per-call cost dominates; a crossover sweep over the column count at
    D = 16 to 512 set the bound (BENCH_serve.json). The GEMM form beats
    the blocked loop at training widths, where the loop is bound by
    memory traffic: at (32, 7, 256), one BLAS thread, 1.6 against 8.6 ms
    per call (BENCH_convgemm.json).

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

    def vjp(g):
        hv, gv = channel_major(hd), channel_major(g)
        gh = np.empty(hd.shape)
        np.matmul(gv, toeplitz, out=channel_major(gh))
        # gphi[c, k] = sum_j (h^T g)[c, j, j + k]. Rows of h^T g go into a
        # buffer of row width 2D, zero past D; reread in rows of width 2D + 1,
        # row j starts j places later, so column k holds superdiagonal k.
        # One channel at a time keeps the buffer small.
        skew = np.zeros(d * (2 * d + 1))
        gphi = np.empty_like(pd)
        for ci in range(c):
            np.matmul(hv[ci].T, gv[ci], out=skew[: 2 * d * d].reshape(d, 2 * d)[:, :d])
            gphi[ci] = skew.reshape(d, 2 * d + 1)[:, :d].sum(axis=0)
        gbeta = gv.sum(axis=(1, 2))
        return gh, gphi, gbeta

    return _record(out, (h, phi, beta), vjp, "causal_depthwise_conv")


# ---------------------------------------------------------------------------
# normalisation and regularisation
# ---------------------------------------------------------------------------

def softmax_axis(x: Tensor, axis: int) -> Tensor:
    """Max-subtracted softmax along one axis."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - inner),)

    return _record(s, (x,), vjp, "softmax_axis")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalise the trailing axis to zero mean, unit (population) variance,
    then apply the affine (gamma, beta)."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm: affine shapes {gamma.shape}/{beta.shape} != ({d},)")
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = ((xd - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    y = xhat * gamma.data + beta.data

    def vjp(g):
        gxhat = g * gamma.data
        gx = inv * (
            gxhat
            - gxhat.mean(axis=-1, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        )
        lead = tuple(range(g.ndim - 1))
        ggamma = (g * xhat).sum(axis=lead)
        gbeta = g.sum(axis=lead)
        return gx, ggamma, gbeta

    return _record(y, (x, gamma, beta), vjp, "layer_norm")


def dropout(x: Tensor, p: float, mode: str, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout. Train mode scales kept values by 1/(1-p); eval mode
    returns the input unchanged (bitwise: it is the same tensor)."""
    if mode not in ("train", "eval"):
        raise ValueError(f"dropout: mode must be 'train' or 'eval', got {mode!r}")
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must lie in [0, 1), got {p}")
    if mode == "eval" or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: train mode with p > 0 needs an rng")
    keep = rng.random(x.shape) >= p
    factor = keep / (1.0 - p)
    return _record(x.data * factor, (x,), lambda g: (g * factor,), "dropout")


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def sum_axis(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    axis = axis % x.data.ndim
    y = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return _record(y, (x,), vjp, "sum_axis")


def sum_all(x: Tensor) -> Tensor:
    y = np.asarray(x.data.sum())
    return _record(y, (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),), "sum_all")


def mean_all(x: Tensor) -> Tensor:
    return scale(sum_all(x), 1.0 / x.size)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    parts = list(parts)
    if not parts:
        raise DimensionError("concat: need at least one tensor")
    axis = axis % parts[0].data.ndim
    y = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(y, tuple(parts), vjp, "concat")


def repeat_axis(x: Tensor, axis: int, reps: int) -> Tensor:
    """Tile a unit-extent axis `reps` times; the vjp sums back over it."""
    axis = axis % x.data.ndim
    if x.shape[axis] != 1:
        raise DimensionError(f"repeat_axis: axis {axis} has extent {x.shape[axis]}, need 1")
    y = np.repeat(x.data, reps, axis=axis)

    def vjp(g):
        return (g.sum(axis=axis, keepdims=True),)

    return _record(y, (x,), vjp, "repeat_axis")
