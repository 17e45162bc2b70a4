"""Shared test utilities: finite-difference gradient checking, generic
parameter points, a per-parameter reference Adam, and checkpoint header
and entry surgery.

The checker is the independent oracle for every vjp in the engine: it
perturbs raw numpy inputs of a pure forward function and compares central
differences against the gradients the tape produces.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from lino.model import init_params
from lino.seeding import stream
from lino.tensor import Tape, Tensor, backward, mul, sum_all


def randomized_params(config, seed=0, keep=()):
    """Init then overwrite with generic values so identities are tested on
    a non-degenerate parameter point (init leaves phi and biases at zero)."""
    rng = np.random.default_rng(seed)
    params = init_params(config, stream(seed, "init"))
    out = {}
    for name, t in params.items():
        if name in keep:
            out[name] = t
        elif name.endswith("gamma"):
            out[name] = Tensor(1.0 + 0.3 * rng.normal(size=t.shape), requires_grad=True)
        else:
            out[name] = Tensor(0.4 * rng.normal(size=t.shape), requires_grad=True)
    return out


class TextbookAdam:
    """Bias-corrected Adam written per parameter, one allocating numpy
    expression per moment: the reference the flat in-place
    `lino.train.adam_step` must match bitwise."""

    def __init__(self, betas=(0.9, 0.999), eps=1e-8):
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m, self.v = {}, {}

    def step(self, values: dict, grads: dict, lr: float) -> dict:
        """New values of the name -> array dict `values`; a missing
        gradient counts as zero."""
        self.t += 1
        out = {}
        for name, p in values.items():
            g = grads.get(name, np.zeros_like(p))
            m = self.b1 * self.m.get(name, np.zeros_like(p)) + (1.0 - self.b1) * g
            v = self.b2 * self.v.get(name, np.zeros_like(p)) + (1.0 - self.b2) * g * g
            self.m[name], self.v[name] = m, v
            out[name] = p - lr * (m / (1.0 - self.b1 ** self.t)) / (
                np.sqrt(v / (1.0 - self.b2 ** self.t)) + self.eps)
        return out


def fd_gradients(f, arrays, h=1e-5):
    """Central-difference gradients of scalar-valued f(*arrays).

    Perturbs every coordinate of every input array. Inputs must be
    float64 for the step size to make sense.
    """
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gflat = a.reshape(-1), g.reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            up = f(*arrays)
            flat[j] = keep - h
            down = f(*arrays)
            flat[j] = keep
            gflat[j] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def relative_error(analytic, numeric):
    scale = max(1e-8, float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)))
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def check_gradients(op, arrays, tol=1e-4, h=1e-5, seed=0):
    """Assert the tape gradients of `op` match finite differences.

    `op` maps Tensors to one output Tensor. The output is contracted to a
    scalar with a fixed random projection so every output coordinate
    contributes a distinct weight.
    """
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    rng = np.random.default_rng(seed)
    probe_shape = op(*[Tensor(a) for a in arrays]).shape
    proj = rng.normal(size=probe_shape)

    def scalar(*raw):
        out = op(*[Tensor(a) for a in raw])
        return float((out.data * proj).sum())

    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = op(*leaves)
        loss = sum_all(mul(out, Tensor(proj)))
    grads = backward(tape, loss)

    numeric = fd_gradients(scalar, arrays, h=h)
    for leaf, num in zip(leaves, numeric):
        assert leaf in grads, "leaf received no gradient"
        err = relative_error(grads[leaf], num)
        assert err < tol, f"gradient mismatch: rel err {err:.3e} >= {tol}"
    return True


def rewrite_model_header(path, change):
    """Update the model header of the checkpoint at `path` with `change`
    and rewrite the file with a matching checksum (layout in lino.train)."""
    blob = path.read_bytes()
    (size,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + size])
    header["model"].update(change)
    raw = json.dumps(header, sort_keys=True).encode()
    body = blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + size:-32]
    path.write_bytes(body + hashlib.sha256(body).digest())


def rewrite_dtype_code(path, name, code):
    """Set the dtype code byte of tensor `name` in the checkpoint at `path`
    to `code` and rewrite the file with a matching checksum (layout in
    lino.train)."""
    blob = bytearray(path.read_bytes())
    (size,) = struct.unpack_from("<Q", blob, 8)
    off = 16 + size
    (count,) = struct.unpack_from("<I", blob, off)
    off += 4
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, off)
        entry = blob[off + 2:off + 2 + name_len].decode()
        off += 2 + name_len
        ndim = blob[off + 1]
        dims = struct.unpack_from(f"<{ndim}Q", blob, off + 2)
        if entry == name:
            blob[off] = code
            break
        off += 2 + 8 * ndim + 8 * int(np.prod(dims))
    else:
        raise KeyError(name)
    body = bytes(blob[:-32])
    path.write_bytes(body + hashlib.sha256(body).digest())
