"""Frequency-domain ops as matrix products against cached real DFT bases.

The transform pair is deliberately plain: unnormalised forward DFT, 1/n on
the inverse. A real signal of even length n maps to b = n//2 + 1 complex
bins (bin 0 is DC, bin n/2 is Nyquist), laid out as one real vector
[re | im] of width 2b. Both directions are matmuls against a pair of real
bases, built once per (n, dtype) and cached read-only:

* ``fwd`` [n, 2b]: ``x @ fwd`` is the half spectrum;
* ``inv`` [2b, n]: ``spec @ inv`` is the real inverse. It carries the 1/n
  factor and counts each interior bin twice (conjugate symmetry). Its rows
  for the imaginary parts of the DC and Nyquist bins are zero, so the map
  is total: any (re, im) pair yields a real signal.

Every even length takes the same path; odd lengths are a configuration
error by contract. The bases are built in the input's floating dtype, so a
float32 signal stays float32.

`rfft_arrays`/`irfft_arrays` are the plain transform pair on ndarrays.
The model's only spectral op is `freq_projection`, which is linear in its
input and is recorded as one tape primitive: transform, mix the bins with
one complex matrix written as a real [2b, 2b] block matrix, transform back.
The model applies it to an identity, which yields the projection as an
[n, n] matrix it can fold into its time-domain weight.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, _record


def _require_even(n: int, who: str) -> None:
    if n < 2 or n % 2 != 0:
        raise DimensionError(f"{who}: trailing length must be even and >= 2, got {n}")


def n_bins(n: int) -> int:
    """Number of independent real-signal spectrum bins for even length n."""
    return n // 2 + 1


@lru_cache(maxsize=None)
def _bases(n: int, dtype: np.dtype):
    """Read-only (fwd [n, 2b], inv [2b, n]) for even length n in `dtype`."""
    b = n_bins(n)
    # reduce b*t mod n before scaling, so large angles lose no precision
    angle = (np.outer(np.arange(n), np.arange(b)) % n) * (2.0 * np.pi / n)
    cos, sin = np.cos(angle), np.sin(angle)
    sin[:, -1] = 0.0  # sin(pi * t) is zero; make the Nyquist column exact
    weights = np.full(b, 2.0 / n)
    weights[[0, -1]] = 1.0 / n
    fwd = np.concatenate([cos, -sin], axis=1).astype(dtype)
    inv = np.concatenate([cos * weights, -sin * weights], axis=1).T.astype(dtype)
    fwd.setflags(write=False)
    inv.setflags(write=False)
    return fwd, inv


def _bases_for(x: np.ndarray, who: str):
    n = x.shape[-1]
    _require_even(n, who)
    return _bases(n, np.result_type(x.dtype, np.float32))


def rfft_arrays(x: np.ndarray):
    """Half spectrum of a real signal: (re, im), each [..., n//2+1]."""
    fwd, _ = _bases_for(x, "rfft")
    spec = x @ fwd
    b = n_bins(x.shape[-1])
    return spec[..., :b], spec[..., b:]


def irfft_arrays(sre: np.ndarray, sim: np.ndarray, n: int) -> np.ndarray:
    """Real signal from a half spectrum; the inverse carries the 1/n factor.

    The upper bins follow from conjugate symmetry and the imaginary parts
    of the DC and Nyquist bins are ignored, so any (re, im) pair yields a
    real signal.
    """
    _require_even(n, "irfft")
    b = n_bins(n)
    if sre.shape[-1] != b or sim.shape[-1] != b:
        raise DimensionError(
            f"irfft: spectrum has {sre.shape[-1]} bins, length {n} needs {b}")
    spec = np.concatenate([sre, sim], axis=-1)
    _, inv = _bases(n, np.result_type(spec.dtype, np.float32))
    return spec @ inv


def freq_projection(x: Tensor, w_re: Tensor, w_im: Tensor) -> Tensor:
    """Learnable filter in the frequency domain: transform, mix bins with a
    complex matrix shared across channels, transform back. Linear in x:

        y = ((x @ fwd) @ [[w_re^T, w_im^T], [-w_im^T, w_re^T]]) @ inv

    The leading axes of x are flattened into rows, so each of the three
    products, forward and backward, is one 2-d GEMM over [prod(lead), n].
    As with `linear`, outputs then agree across batch layouts to rounding,
    not bitwise.
    """
    fwd, inv = _bases_for(x.data, "freq_projection")
    n = x.shape[-1]
    b = n_bins(n)
    if w_re.shape != (b, b) or w_im.shape != (b, b):
        raise DimensionError(
            f"freq_projection: weights {w_re.shape}/{w_im.shape} must be ({b}, {b})")
    wr_t, wi_t = w_re.data.T, w_im.data.T
    mix = np.block([[wr_t, wi_t], [-wi_t, wr_t]])
    spec = x.data.reshape(-1, n) @ fwd
    y = ((spec @ mix) @ inv).reshape(x.shape)

    def vjp(g):
        g_mixed = g.reshape(-1, n) @ inv.T
        # the model's x is a constant identity (see model.no_projection)
        gx = ((g_mixed @ mix.T) @ fwd.T).reshape(x.shape) if x.requires_grad else None
        g_mix = spec.T @ g_mixed
        g_re = (g_mix[:b, :b] + g_mix[b:, b:]).T
        g_im = (g_mix[:b, b:] - g_mix[b:, :b]).T
        return gx, g_re, g_im

    return _record(y, (x, w_re, w_im), vjp, "freq_projection")
