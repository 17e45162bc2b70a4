"""Forecasting model: recursive residual decomposition into alternating
learnable linear and nonlinear patterns.

The forward pass normalises each lookback window per channel, embeds the
whole series into a feature vector of width `dim`, then runs `blocks`
levels. Every level extracts a linear pattern (causal depthwise
convolution), subtracts it, extracts a nonlinear pattern from the
remainder (time- and frequency-domain projections fused through a
saturating activation, cross-channel mixing as one `channel_mix` op, and
a small feedforward stack), and subtracts that too, handing the final
remainder to the next level. Each extracted pattern gets its own affine
head onto the horizon; the forecast is the sum of all head outputs,
denormalised.

Each head is added into that sum as soon as it is made (`_Fold`), in
level order. By default `forward` also returns the pass's patterns and
heads as a `ForwardTrace`, which `export_decomposition` and the tests
read. `Forecaster.predict`, and so `evaluate`, validation and serving,
asks for no trace: its pass keeps no pattern or feature past its last
use, so a batch peaks at about six activations of [batch, channels, dim]
however many levels run. Under a tape, which holds every activation for
the backward walk anyway, both kinds of pass record the same nodes.

Both projections are linear maps over the feature axis, shared across
channels, so each level applies them as one D x D operator: the time
weight plus the frequency projection's operator, which `freq_projection`
builds from the complex bin weights alone (`no_projection`).
The operators are built once per `forward` call, which records them on
the tape once per training step, or once per `Forecaster`. A `forward`
that builds them hands every level's frequency operator to the lane
(`tensor.Lane`) as it starts, and records each level's projection just
before that level's nonlinear block.

Because every level's input is exactly what the previous level failed to
explain, the embedded input telescopes into the sum of all extracted
patterns plus the final remainder. That identity is load-bearing (tests
assert it to 1e-9) and exact by construction: the residuals are computed
with the same subtractions the identity claims.

Three reduced recursions (`mu`, `raw`, `ln`) are kept for comparison
studies; they share the block implementations and differ only in how
features flow between levels and where heads attach.

Each parameter is declared once, as a (name, shape, init) row of
`_param_table`, which both initialisation and checkpoint validation read.
`LiNoConfig` holds only what callers set: the shapes, dropout, variant
and ablation. The feedforward and mixing widths equal `dim`, and the
instance normalisation's variance guard is the constant `REVIN_EPS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .spectral import _operator, freq_projection, n_bins
from .tensor import (Tensor, _defer, add, causal_depthwise_conv, channel_mix, dropout,
                     layer_norm, linear, mul, sub, tanh)

VARIANTS = ("lino", "mu", "raw", "ln")
ABLATIONS = ("none", "no_li", "no_no", "no_te", "no_fe", "no_cd")


# RevIN's variance guard: sqrt(population variance + REVIN_EPS) scales
# each window, so a constant channel normalises to zeros
REVIN_EPS = 1e-5


@dataclass(frozen=True)
class LiNoConfig:
    """Static shape and behaviour of one model. The feedforward and
    channel-mixing layers are `dim` wide."""

    channels: int
    lookback: int
    horizon: int
    dim: int = 256
    blocks: int = 2
    dropout: float = 0.0
    variant: str = "lino"
    ablation: str = "none"

    def __post_init__(self):
        if self.channels < 1 or self.lookback < 1 or self.horizon < 1:
            raise ConfigError(
                f"channels/lookback/horizon must be positive, got "
                f"{self.channels}/{self.lookback}/{self.horizon}")
        if self.dim < 2 or self.dim % 2 != 0:
            raise ConfigError(f"dim must be even and >= 2 for the frequency path, got {self.dim}")
        if self.blocks < 1:
            raise ConfigError(f"blocks must be >= 1, got {self.blocks}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant {self.variant!r} not in {VARIANTS}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation {self.ablation!r} not in {ABLATIONS}")
        if self.ablation != "none" and self.variant != "lino":
            raise ConfigError("ablations are defined for the primary variant only")


def _param_table(config: LiNoConfig) -> list:
    """(name, shape, init) for every parameter, in canonical order: the one
    declaration behind initialisation and checkpoint validation.

    Inits: convolution kernels start at zero so every level's linear
    pattern begins as nothing rather than noise; the complex frequency
    weights start near identity (`near_eye` real part, `small` imaginary
    part) so the frequency path begins as a near-pass-through; all plain
    biases start at zero; weight matrices are Glorot-uniform.
    """
    c, t, f, d = config.channels, config.lookback, config.horizon, config.dim
    b = n_bins(d)
    rows = [("embed.w", (t, d), "glorot"), ("embed.b", (d,), "zeros")]
    for i in range(config.blocks):
        p = f"level{i}"
        rows += [
            (f"{p}.li.phi", (c, d), "zeros"), (f"{p}.li.beta", (c,), "zeros"),
            (f"{p}.li_head.w", (d, f), "glorot"), (f"{p}.li_head.b", (f,), "zeros"),
            (f"{p}.no.time.w", (d, d), "glorot"), (f"{p}.no.time.b", (d,), "zeros"),
            (f"{p}.no.freq.w_re", (b, b), "near_eye"),
            (f"{p}.no.freq.w_im", (b, b), "small"),
            (f"{p}.no.mix.w1", (2 * d, d), "glorot"), (f"{p}.no.mix.b1", (d,), "zeros"),
            (f"{p}.no.mix.w2", (d, d), "glorot"), (f"{p}.no.mix.b2", (d,), "zeros"),
            (f"{p}.no.norm1.gamma", (d,), "ones"), (f"{p}.no.norm1.beta", (d,), "zeros"),
            (f"{p}.no.ff.w1", (d, d), "glorot"), (f"{p}.no.ff.b1", (d,), "zeros"),
            (f"{p}.no.ff.w2", (d, d), "glorot"), (f"{p}.no.ff.b2", (d,), "zeros"),
            (f"{p}.no.norm2.gamma", (d,), "ones"), (f"{p}.no.norm2.beta", (d,), "zeros"),
            (f"{p}.no_head.w", (d, f), "glorot"), (f"{p}.no_head.b", (f,), "zeros"),
        ]
    return rows


def _draw(init: str, rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """One parameter's float64 starting value. Only `glorot`, `near_eye`
    and `small` draw from the rng, in `_param_table` order."""
    if init == "glorot":
        bound = np.sqrt(6.0 / sum(shape))
        return rng.uniform(-bound, bound, size=shape)
    if init == "near_eye":
        return np.eye(shape[0]) + rng.normal(0.0, 0.01, size=shape)
    if init == "small":
        return rng.normal(0.0, 0.01, size=shape)
    return {"zeros": np.zeros, "ones": np.ones}[init](shape)


def param_shapes(config: LiNoConfig) -> dict:
    """Name -> shape for every parameter, in canonical order."""
    return {name: shape for name, shape, _ in _param_table(config)}


def init_params(config: LiNoConfig, rng: np.random.Generator) -> dict:
    """Fresh parameter dict in canonical order (see `_param_table`)."""
    return {name: Tensor(_draw(init, rng, shape), requires_grad=True, name=name)
            for name, shape, init in _param_table(config)}


# ---------------------------------------------------------------------------
# instance normalisation
# ---------------------------------------------------------------------------

def revin_normalize(x: np.ndarray):
    """Per-channel instance normalisation over the trailing axis; returns
    (x_norm, (mu, sigma)).

    The scale is sqrt(population variance + REVIN_EPS); denormalisation
    uses the same quantity, which makes the roundtrip exact regardless of
    eps. The statistics are `x.mean` and `x.var` bit for bit, sharing one
    centred array, which is then scaled in place.
    """
    mu = np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]
    xn = x - mu
    sigma = np.sqrt(np.add.reduce(xn * xn, axis=-1, keepdims=True) / x.shape[-1] + REVIN_EPS)
    xn /= sigma
    return xn, (mu, sigma)


def revin_denormalize(y_norm: Tensor, stats) -> Tensor:
    """Differentiable inverse map back onto each window's own scale."""
    mu, sigma = (Tensor(np.broadcast_to(s, y_norm.shape)) for s in stats)
    return add(mul(y_norm, sigma), mu)


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def li_block(h: Tensor, params: dict, level: int, config: LiNoConfig,
             rng: Optional[np.random.Generator] = None) -> Tensor:
    """Linear pattern extractor of the given level: full-receptive-field
    causal depthwise convolution, then dropout drawn from `rng`, which is
    off when there is no rng."""
    p = f"level{level}.li."
    return dropout(causal_depthwise_conv(h, params[p + "phi"], params[p + "beta"]),
                   config.dropout, rng)


def no_projection(params: dict, config: LiNoConfig, level: int, operator=None) -> tuple:
    """The input projection of the given level's nonlinear block as one
    (W, b) pair, so that `linear(r, W, b)` is its pre-activation.

    The time projection `r @ time.w + time.b` and the frequency projection
    (transform, mix the bins with `w_re + i w_im`, transform back) are both
    linear maps over the D axis, shared across channels, and the frequency
    one equals `r @ S` with `S = freq_projection(w_re, w_im)`. So the block
    needs one D x D operator: `time.w + S` with `time.b` under `none`, `S`
    alone with no bias under `no_te`, `time.w` and `time.b` under `no_fe`.
    Building S costs two GEMMs of at most D x (D + 2) x (D + 2), more than
    the spectral work of a batch-1 call, so a `Forecaster` builds it once,
    not per predict. `operator`, if given, is S computed ahead (`forward_normalized`).
    """
    p = f"level{level}.no."
    if config.ablation == "no_fe":
        return params[p + "time.w"], params[p + "time.b"]
    spectral = freq_projection(params[p + "freq.w_re"], params[p + "freq.w_im"], operator)
    if config.ablation == "no_te":
        return spectral, None
    return add(params[p + "time.w"], spectral), params[p + "time.b"]


def build_projections(params: dict, config: LiNoConfig) -> tuple:
    """`no_projection` of every level, in level order; empty under `no_no`,
    which runs no nonlinear block."""
    if config.ablation == "no_no":
        return ()
    return tuple(no_projection(params, config, i) for i in range(config.blocks))


def no_block(r: Tensor, params: dict, level: int, projection: tuple, config: LiNoConfig) -> Tensor:
    """Nonlinear pattern extractor of the given level.

    Its parameters are read from `params` by their full `level{i}.no.*`
    keys (see `_param_table`), and `projection` is its fused (W, b) from
    `no_projection`. Steps: project
    the remainder with that one D x D operator (the time- and
    frequency-domain projections summed) and saturate; mix channels with
    one `channel_mix` op (softmax-weighted pooling over channels, then an
    MLP on [own features | pooled summary] added back), which `no_cd`
    skips; integrate with two residual layer-norm stages around a
    feedforward MLP.
    """
    p = f"level{level}.no."
    # every stage is bound to `h`, so outside a tape each one is freed as
    # soon as the next exists
    h = tanh(linear(r, *projection))
    if config.ablation != "no_cd":
        h = channel_mix(h, params[p + "mix.w1"], params[p + "mix.b1"],
                        params[p + "mix.w2"], params[p + "mix.b2"])
    h = layer_norm(h, params[p + "norm1.gamma"], params[p + "norm1.beta"])
    h = add(h, linear(tanh(linear(h, params[p + "ff.w1"], params[p + "ff.b1"])),
                      params[p + "ff.w2"], params[p + "ff.b2"]))
    return layer_norm(h, params[p + "norm2.gamma"], params[p + "norm2.beta"])


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    """The record of one pass at normalised scale, for a caller that reads
    it (`forward(..., trace=True)`). `embedded`: the embedded input.
    `patterns`: each level's (li, no) pattern pair, zeros for an ablated
    block. `heads`: each head's (label, output) pair in summation order,
    labelled `level{i}.li`, `level{i}.no`, or `head` for `raw`'s one head;
    their sum is the forecast, bitwise. `remainder`: what the last level
    hands on."""

    embedded: Tensor
    patterns: list
    heads: list
    remainder: Tensor


class _Fold:
    """The heads of one pass, each added into the forecast `y` as soon as
    it is made, in summation order: the first head, then `add(y, head)`
    for each later one. With `keep`, every pattern and head is also kept
    for the pass's `ForwardTrace`; without it, a head or pattern lives
    only as long as the recursion needs it."""

    def __init__(self, params: dict, keep: bool):
        self.params, self.y = params, None
        self.patterns = [] if keep else None
        self.heads = [] if keep else None

    def head(self, label: str, pattern: Tensor, weights: Optional[str] = None) -> None:
        """The head `weights` (default: `label`) applied to `pattern`."""
        w = weights or label
        out = linear(pattern, self.params[w + "_head.w"], self.params[w + "_head.b"])
        if self.heads is not None:
            self.heads.append((label, out))
        self.y = out if self.y is None else add(self.y, out)

    def pattern(self, pattern: Tensor, head: Optional[str] = None) -> Tensor:
        """Record `pattern`, apply its head if it has one, and return it."""
        if self.patterns is not None:
            self.patterns.append(pattern)
        if head is not None:
            self.head(head, pattern)
        return pattern

    def skip(self, h: Tensor) -> None:
        """An ablated block's pattern: zeros shaped like `h`, made only for
        a trace."""
        if self.patterns is not None:
            self.patterns.append(Tensor(np.zeros(h.shape)))


def forward_normalized(xn: Tensor, params: dict, config: LiNoConfig,
                       rng: Optional[np.random.Generator] = None,
                       projections: Optional[tuple] = None, trace: bool = True):
    """Run the configured recursion on an already-normalised input.

    xn: [..., channels, lookback]. Returns (y_norm, ForwardTrace) with
    y_norm: [..., channels, horizon], the sum of the trace's heads; with
    `trace` false the second item is None, and the pass keeps no pattern,
    head or feature past its last use. `rng` drives the linear blocks'
    dropout; with none, dropout is off. `projections` is
    `build_projections(params, config)`; when omitted, each level's is
    built here just before its nonlinear block, so under a tape it is
    recorded once per step and walked amid the rest.
    """
    if xn.shape[-2] != config.channels or xn.shape[-1] != config.lookback:
        raise ConfigError(
            f"input trailing shape {xn.shape[-2:]} != "
            f"({config.channels}, {config.lookback})")
    if projections is None:
        # each level's frequency operator S, computed ahead on the lane if one is open
        operators = [_defer(_operator, params[f"level{i}.no.freq.w_re"].data,
                            params[f"level{i}.no.freq.w_im"].data)
                     if config.ablation not in ("no_fe", "no_no") else None
                     for i in range(config.blocks)]

        def projection(level):
            return no_projection(params, config, level, operators[level])
    else:
        projection = projections.__getitem__
    fold = _Fold(params, trace)
    fn = {"lino": _forward_lino, "mu": _forward_mu,
          "raw": _forward_raw, "ln": _forward_ln}[config.variant]
    if not trace:
        # the embedded input is passed on unnamed, so the recursion frees it
        fn(linear(xn, params["embed.w"], params["embed.b"]), projection, config, rng, fold)
        return fold.y, None
    embedded = linear(xn, params["embed.w"], params["embed.b"])
    remainder = fn(embedded, projection, config, rng, fold)
    pairs = list(zip(fold.patterns[::2], fold.patterns[1::2]))
    return fold.y, ForwardTrace(embedded, pairs, fold.heads, remainder)


# Each recursion takes the embedded input `h`, hands every pattern to
# `fold` as it is made, and returns the last level's remainder. It rebinds
# `h` as each pattern is taken out, so outside a trace and a tape the
# features it has moved past are freed.

def _forward_lino(h, projection, config, rng, fold):
    params = fold.params
    for i in range(config.blocks):
        p = f"level{i}."
        if config.ablation == "no_li":
            fold.skip(h)
        else:
            h = sub(h, fold.pattern(li_block(h, params, i, config, rng), p + "li"))
        if config.ablation == "no_no":
            fold.skip(h)
        else:
            h = sub(h, fold.pattern(no_block(h, params, i, projection(i), config), p + "no"))
    return h


def _forward_mu(h, projection, config, rng, fold):
    """Comparison recursion: one pattern per level; the nonlinear block
    reads the linear block's output and only the combined pattern is
    subtracted from the running features."""
    params = fold.params
    for i in range(config.blocks):
        li_pat = fold.pattern(li_block(h, params, i, config, rng))
        h = sub(h, fold.pattern(no_block(li_pat, params, i, projection(i), config),
                                f"level{i}.no"))
    return h


def _forward_raw(h, projection, config, rng, fold):
    """Comparison recursion: blocks chained feature-to-feature with no
    subtraction anywhere; a single head reads the last level's features."""
    params = fold.params
    for i in range(config.blocks):
        h = fold.pattern(li_block(h, params, i, config, rng))
        h = fold.pattern(no_block(h, params, i, projection(i), config))
    fold.head("head", h, weights=f"level{config.blocks - 1}.no")
    return h


def _forward_ln(h, projection, config, rng, fold):
    """Comparison recursion: chained like `raw` but every block keeps its
    own head; still no residual subtraction."""
    params = fold.params
    for i in range(config.blocks):
        h = fold.pattern(li_block(h, params, i, config, rng), f"level{i}.li")
        h = fold.pattern(no_block(h, params, i, projection(i), config), f"level{i}.no")
    return h


@dataclass
class ForwardResult:
    y: Tensor                      # forecast on the input's own scale
    y_norm: Tensor                 # forecast before denormalisation
    stats: tuple                   # (mu, sigma) used by the window
    trace: Optional[ForwardTrace]  # None unless `forward` was asked for it


def forward(x, params: dict, config: LiNoConfig, mode: str = "eval",
            rng: Optional[np.random.Generator] = None,
            projections: Optional[tuple] = None, trace: bool = True) -> ForwardResult:
    """Full pass on raw windows [..., channels, lookback]; `projections`
    and `trace` as in `forward_normalized`. Only `mode` "train" hands `rng`
    to dropout, and needs one when dropout > 0; "eval" turns dropout off.
    Windows of any real dtype and layout are made one contiguous float64
    batch first (a copy unless they are one already), so strided views of
    a series (`data.make_windows`) give the bits their contiguous copy
    would. `trace` changes what is kept, never a bit of the forecast: a
    caller that reads no trace passes False, and the pass then holds only
    the live features of one level and the running sum of the heads."""
    if mode not in ("train", "eval"):
        raise ValueError(f"forward: mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval":
        rng = None
    elif config.dropout > 0.0 and rng is None:
        raise ValueError("forward: train mode with dropout > 0 needs an rng")
    x = np.ascontiguousarray(x, dtype=np.float64)
    xn, stats = revin_normalize(x)
    y_norm, record = forward_normalized(Tensor(xn), params, config, rng, projections, trace)
    y = revin_denormalize(y_norm, stats)
    return ForwardResult(y, y_norm, stats, record)


class Forecaster:
    """Bound (params, config) pair with an eval-mode prediction surface.

    The nonlinear blocks' fused projections are built once, here, from the
    parameters as they are at construction: `predict` is then bitwise
    `forward(x, params, config).y.data`, without rebuilding a D x D
    operator per call. A later change to the projection weights in
    `params` (`time.*`, `freq.*`) is not seen by `predict`; build a new
    Forecaster instead. `predict` asks `forward` for no trace, so a batch
    holds a few activations of [batch, channels, dim] at its peak, however
    many levels the model has; `evaluate`, validation and serving all
    predict through it.
    """

    def __init__(self, params: dict, config: LiNoConfig):
        self.params = params
        self.config = config
        self.projections = build_projections(params, config)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return forward(x, self.params, self.config, projections=self.projections,
                       trace=False).y.data
