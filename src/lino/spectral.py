"""The model's frequency-domain projection, built from cached real DFT bases.

The transform pair is deliberately plain: unnormalised forward DFT, 1/n on
the inverse. A real signal of even length n maps to b = n//2 + 1 complex
bins (bin 0 is DC, bin n/2 is Nyquist), laid out as one real vector
[re | im] of width 2b. Both directions are matmuls against a pair of real
bases, built once per n and cached read-only:

* ``fwd`` [n, 2b]: ``x @ fwd`` is the half spectrum;
* ``inv`` [2b, n]: ``spec @ inv`` is the real inverse. It carries the 1/n
  factor and counts each interior bin twice (conjugate symmetry). Its rows
  for the imaginary parts of the DC and Nyquist bins are zero, so the map
  is total: any (re, im) pair yields a real signal.

The model's only spectral op is `freq_projection`, one tape primitive on
the complex bin-mixing weights alone: transform, mix the bins with one
complex matrix written as a real [2b, 2b] block matrix, transform back,
as an [n, n] operator the model folds into its time-domain weight
(`x @ S` is the projection of a signal x).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, _defer, _record, _value


def n_bins(n: int) -> int:
    """Number of independent real-signal spectrum bins for even length n."""
    return n // 2 + 1


@lru_cache(maxsize=None)
def _bases(n: int):
    """Read-only (fwd [n, 2b], inv [2b, n]) for even length n."""
    b = n_bins(n)
    # reduce b*t mod n before scaling, so large angles lose no precision
    angle = (np.outer(np.arange(n), np.arange(b)) % n) * (2.0 * np.pi / n)
    cos, sin = np.cos(angle), np.sin(angle)
    sin[:, -1] = 0.0  # sin(pi * t) is zero; make the Nyquist column exact
    weights = np.full(b, 2.0 / n)
    weights[[0, -1]] = 1.0 / n
    fwd = np.concatenate([cos, -sin], axis=1)
    # F-ordered as built: a C-ordered copy moves products in the last bits
    inv = np.concatenate([cos * weights, -sin * weights], axis=1).T
    fwd.setflags(write=False)
    inv.setflags(write=False)
    return fwd, inv


def _operator(w_re: np.ndarray, w_im: np.ndarray) -> np.ndarray:
    """`freq_projection`'s operator S from the [b, b] weight arrays."""
    b = len(w_re)
    fwd, inv = _bases(2 * (b - 1))
    # [[wr_t, wi_t], [-wi_t, wr_t]] in F order; a C-ordered mix moves S in the last bits
    mix = np.empty((2 * b, 2 * b), order="F")
    mix[:b, :b] = mix[b:, b:] = w_re.T
    mix[:b, b:] = w_im.T
    np.negative(w_im.T, out=mix[b:, :b])
    return (fwd @ mix) @ inv


def freq_projection(w_re: Tensor, w_im: Tensor, operator=None) -> Tensor:
    """The learnable frequency-domain filter as an [n, n] operator, for
    n = 2(b - 1) from the [b, b] complex weights w_re + i w_im that mix
    the bins (shared across channels):

        S = (fwd @ [[w_re^T, w_im^T], [-w_im^T, w_re^T]]) @ inv

    so `x @ S` transforms a real signal x, mixes its bins and transforms
    back. The forward pass and the weight gradients each take two GEMMs.
    `operator`, if given, is S as `_defer(_operator, w_re.data, w_im.data)`
    returned it, computed ahead on the lane if one is open; the vjp's GEMMs
    go to the lane too.
    """
    b = w_re.shape[0] if w_re.shape else 0
    if b < 2 or w_re.shape != (b, b) or w_im.shape != (b, b):
        raise DimensionError(f"freq_projection: weights {w_re.shape}/{w_im.shape} "
                             "must both be (b, b) with b >= 2")
    fwd, inv = _bases(2 * (b - 1))
    s = _operator(w_re.data, w_im.data) if operator is None else _value(operator)

    def vjp(g):
        g_mix = _defer(lambda: fwd.T @ (g @ inv.T))
        return (_defer(lambda m: (m[:b, :b] + m[b:, b:]).T, g_mix),
                _defer(lambda m: (m[:b, b:] - m[b:, :b]).T, g_mix))

    return _record(s, (w_re, w_im), vjp, "freq_projection")
