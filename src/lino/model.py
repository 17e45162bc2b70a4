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
    ntf = tanh(linear(r, *projection))
    fused = ntf if config.ablation == "no_cd" else channel_mix(
        ntf, params[p + "mix.w1"], params[p + "mix.b1"],
        params[p + "mix.w2"], params[p + "mix.b2"])
    stage1 = layer_norm(fused, params[p + "norm1.gamma"], params[p + "norm1.beta"])
    ff = linear(tanh(linear(stage1, params[p + "ff.w1"], params[p + "ff.b1"])),
                params[p + "ff.w2"], params[p + "ff.b2"])
    return layer_norm(add(stage1, ff), params[p + "norm2.gamma"], params[p + "norm2.beta"])


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    """One pass at normalised scale. `patterns`: each level's (li, no)
    pattern pair, zeros for an ablated block. `heads`: each head's (label,
    output) pair in summation order, labelled `level{i}.li`, `level{i}.no`,
    or `head` for `raw`'s one head; their sum is the forecast, bitwise.
    `remainder`: what the last level hands on."""

    embedded: Tensor
    patterns: list
    heads: list
    remainder: Tensor


def forward_normalized(xn: Tensor, params: dict, config: LiNoConfig,
                       rng: Optional[np.random.Generator] = None,
                       projections: Optional[tuple] = None):
    """Run the configured recursion on an already-normalised input.

    xn: [..., channels, lookback]. Returns (y_norm, ForwardTrace) with
    y_norm: [..., channels, horizon], the sum of the trace's heads. `rng`
    drives the linear blocks' dropout; with none, dropout is off.
    `projections` is `build_projections(params, config)`; when omitted,
    each level's is built here just before its nonlinear block, so under a
    tape it is recorded once per step and walked amid the rest.
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
    embedded = linear(xn, params["embed.w"], params["embed.b"])
    fn = {"lino": _forward_lino, "mu": _forward_mu,
          "raw": _forward_raw, "ln": _forward_ln}[config.variant]
    patterns, heads, remainder = fn(embedded, params, projection, config, rng)
    y = heads[0][1]
    for _, out in heads[1:]:
        y = add(y, out)
    return y, ForwardTrace(embedded, patterns, heads, remainder)


def _head(params, label, pattern):
    return label, linear(pattern, params[label + "_head.w"], params[label + "_head.b"])


def _forward_lino(h, params, projection, config, rng):
    patterns, heads = [], []
    for i in range(config.blocks):
        p = f"level{i}."
        if config.ablation == "no_li":
            li_pat, r = Tensor(np.zeros(h.shape)), h
        else:
            li_pat = li_block(h, params, i, config, rng)
            heads.append(_head(params, p + "li", li_pat))
            r = sub(h, li_pat)
        if config.ablation == "no_no":
            no_pat, h = Tensor(np.zeros(r.shape)), r
        else:
            no_pat = no_block(r, params, i, projection(i), config)
            heads.append(_head(params, p + "no", no_pat))
            h = sub(r, no_pat)
        patterns.append((li_pat, no_pat))
    return patterns, heads, h


def _forward_mu(h, params, projection, config, rng):
    """Comparison recursion: one pattern per level; the nonlinear block
    reads the linear block's output and only the combined pattern is
    subtracted from the running features."""
    patterns, heads = [], []
    for i in range(config.blocks):
        p = f"level{i}."
        li_pat = li_block(h, params, i, config, rng)
        no_pat = no_block(li_pat, params, i, projection(i), config)
        heads.append(_head(params, p + "no", no_pat))
        h = sub(h, no_pat)
        patterns.append((li_pat, no_pat))
    return patterns, heads, h


def _forward_raw(h, params, projection, config, rng):
    """Comparison recursion: blocks chained feature-to-feature with no
    subtraction anywhere; a single head reads the last level's features."""
    patterns = []
    for i in range(config.blocks):
        li_pat = li_block(h, params, i, config, rng)
        h = no_block(li_pat, params, i, projection(i), config)
        patterns.append((li_pat, h))
    last = f"level{config.blocks - 1}.no"
    return patterns, [("head", _head(params, last, h)[1])], h


def _forward_ln(h, params, projection, config, rng):
    """Comparison recursion: chained like `raw` but every block keeps its
    own head; still no residual subtraction."""
    patterns, heads = [], []
    for i in range(config.blocks):
        p = f"level{i}."
        li_pat = li_block(h, params, i, config, rng)
        heads.append(_head(params, p + "li", li_pat))
        h = no_block(li_pat, params, i, projection(i), config)
        heads.append(_head(params, p + "no", h))
        patterns.append((li_pat, h))
    return patterns, heads, h


@dataclass
class ForwardResult:
    y: Tensor                      # forecast on the input's own scale
    y_norm: Tensor                 # forecast before denormalisation
    stats: tuple                   # (mu, sigma) used by the window
    trace: ForwardTrace


def forward(x, params: dict, config: LiNoConfig, mode: str = "eval",
            rng: Optional[np.random.Generator] = None,
            projections: Optional[tuple] = None) -> ForwardResult:
    """Full pass on raw windows [..., channels, lookback]; `projections`
    as in `forward_normalized`. Only `mode` "train" hands `rng` to dropout,
    and needs one when dropout > 0; "eval" turns dropout off. Windows of
    any real dtype and layout are made one contiguous float64 batch first
    (a copy unless they are one already), so strided views of a series
    (`data.make_windows`) give the bits their contiguous copy would."""
    if mode not in ("train", "eval"):
        raise ValueError(f"forward: mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval":
        rng = None
    elif config.dropout > 0.0 and rng is None:
        raise ValueError("forward: train mode with dropout > 0 needs an rng")
    x = np.ascontiguousarray(x, dtype=np.float64)
    xn, stats = revin_normalize(x)
    y_norm, trace = forward_normalized(Tensor(xn), params, config, rng, projections)
    y = revin_denormalize(y_norm, stats)
    return ForwardResult(y, y_norm, stats, trace)


class Forecaster:
    """Bound (params, config) pair with an eval-mode prediction surface.

    The nonlinear blocks' fused projections are built once, here, from the
    parameters as they are at construction: `predict` is then bitwise
    `forward(x, params, config).y.data`, without rebuilding a D x D
    operator per call. A later change to the projection weights in
    `params` (`time.*`, `freq.*`) is not seen by `predict`; build a new
    Forecaster instead.
    """

    def __init__(self, params: dict, config: LiNoConfig):
        self.params = params
        self.config = config
        self.projections = build_projections(params, config)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return forward(x, self.params, self.config, projections=self.projections).y.data
