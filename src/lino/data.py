"""Data handling: CSV in/out, chronological splits, standardisation,
window extraction, synthetic series generation, input noise.

Conventions that matter and are easy to get wrong elsewhere:

* splits are chronological and indexed in raw points; the validation and
  test spans are extended `lookback` points backward so their first
  windows have context, but statistics only ever come from the train
  span proper;
* standardisation is per channel with population variance over the train
  span; the same (mu, sigma) transform the whole series;
* a window pair is x = values[s : s+T] and y = values[s+T : s+T+F], both
  transposed to channel-major, and every point of both lies inside the
  (context-extended) span, so no window leaks across a split boundary;
* windows are read-only views of the series they are cut from, not
  copies: a prepared split set holds the standardised series once, and a
  consumer that needs contiguous data (`model.forward`) copies the one
  batch it is given.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .seeding import stream

# The ETT protocol's points per split, train/val/test, in hourly and quarter-
# hourly files: 12, 4 and 4 months of 30 days (Informer, arXiv 2012.07436)
ETT_SPLIT_COUNTS = {
    "etth": (8640, 2880, 2880),
    "ettm": (34560, 11520, 11520),
}

# `standardize`'s constant-channel threshold, and `_stable_ar2`'s (phi1, phi2)
# box and innovation scale
STANDARDIZE_EPS = 1e-8
AR2_PHI1, AR2_PHI2 = (-0.6, 0.6), (-0.5, 0.3)
AR2_INNOVATION = 0.25


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_csv(path: str):
    """Read a forecasting CSV into (values [length, channels], columns).

    Accepts an optional header row and an optional leading date column: a
    first row is a header when any cell past the first fails to parse as
    a number, and a first column is a timestamp when it fails to parse in
    the data rows. Everything that remains must be a finite number (`nan`
    and `inf` parse but are rejected); violations are reported with row
    and column indices (1-based, as in the file). Rows are parsed as they
    are read, so a file with several defects reports the first in file
    order.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return _parse_rows(path, (row for row in csv.reader(fh) if row))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None


def _parse_rows(path: str, rows):
    """`load_csv` on an iterator over the file's non-empty rows, which it
    reads once; only the first two rows are held, to find the header and
    the date column."""
    head = list(itertools.islice(rows, 2))
    if not head:
        raise DataError(f"{path}: file contains no data")
    width = len(head[0])
    has_header = any(not _is_number(cell) for cell in head[0][1:]) or (
        len(head) > 1 and not _is_number(head[0][0]) and _is_number(head[1][0]))
    body = head[1:] if has_header else head
    if not body:
        raise DataError(f"{path}: header but no data rows")
    first_col = 0 if _is_number(body[0][0]) else 1
    if width - first_col < 1:
        raise DataError(f"{path}: no numeric columns")

    values = array("d")
    for n, row in enumerate(itertools.chain(body, rows), start=1 + int(has_header)):
        if len(row) != width:
            raise DataError(f"{path}: row {n} has {len(row)} cells, expected {width}")
        cells = row[first_col:]
        try:
            parsed = [float(cell) for cell in cells]
            # a non-finite cell makes the sum non-finite; finite cells
            # whose sum overflows pass `_check_cells`
            clean = math.isfinite(sum(parsed))
        except ValueError:
            clean = False
        if not clean:
            _check_cells(path, n, cells, first_col)
        values.extend(parsed)
    if has_header:
        columns = [c.strip() for c in head[0][first_col:]]
    else:
        columns = [f"c{j}" for j in range(width - first_col)]
    return np.array(values).reshape(-1, width - first_col), columns


def _check_cells(path: str, n: int, cells: list, first_col: int) -> None:
    """Raise for the first of row `n`'s value cells that is not a finite
    number."""
    for j, cell in enumerate(cells, start=1 + first_col):
        try:
            value = float(cell)
        except ValueError:
            raise DataError(
                f"{path}: non-numeric value {cell!r} at row {n}, column {j}") from None
        if not math.isfinite(value):
            raise DataError(f"{path}: non-finite value {cell!r} at row {n}, column {j}")


def save_csv(path: str, rows, columns) -> None:
    """Write a header row of `columns`, then `rows`: one sequence of cells
    per row, or a [length, channels] array. Cells go in as values, and
    `csv` writes each with `str`, which gives a float (Python or numpy)
    its shortest round-trip form; so equal values give equal bytes. An
    array's rows reach `csv` as Python floats (`tolist`), one row at a
    time."""
    if isinstance(rows, np.ndarray):
        rows = map(np.ndarray.tolist, rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# splits and windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Either absolute point counts or ratios, train/val/test order."""

    counts: Optional[tuple] = None
    ratios: Optional[tuple] = None

    def __post_init__(self):
        if (self.counts is None) == (self.ratios is None):
            raise ConfigError("give exactly one of counts or ratios")
        if self.counts is not None:
            if len(self.counts) != 3 or any(c < 1 for c in self.counts):
                raise ConfigError(f"counts must be three positive ints, got {self.counts}")
        else:
            if len(self.ratios) != 3 or any(r <= 0 for r in self.ratios):
                raise ConfigError(f"ratios must be three positive numbers, got {self.ratios}")
            if abs(sum(self.ratios) - 1.0) > 1e-9:
                raise ConfigError(f"ratios must sum to 1, got {sum(self.ratios)}")

    @classmethod
    def for_dataset(cls, stem: str, val_ratio: float, test_ratio: float) -> "SplitSpec":
        """The split of the dataset whose file stem is `stem`: the ETT
        protocol's point counts for a stem starting `etth` or `ettm` (any
        case), else the given validation and test ratios."""
        for prefix, counts in ETT_SPLIT_COUNTS.items():
            if stem.lower().startswith(prefix):
                return cls(counts=counts)
        return cls(ratios=(1.0 - val_ratio - test_ratio, val_ratio, test_ratio))

    def spans(self, length: int, lookback: int) -> tuple:
        """The chronological (train, val, test) point ranges of a series of
        `length`; val and test start `lookback` points before their split,
        for window context only. Ratios take `int(length * ratio)` train
        and val points and leave the rest to test."""
        if self.counts is not None:
            if sum(self.counts) > length:
                raise DataError(
                    f"split counts {self.counts} need {sum(self.counts)} points, "
                    f"series has {length}")
            n_train, n_val, n_test = self.counts
        else:
            n_train = int(length * self.ratios[0])
            n_val = int(length * self.ratios[1])
            n_test = length - n_train - n_val
            if min(n_train, n_val, n_test) < 1:
                raise DataError(f"ratios {self.ratios} give empty split on length {length}")
        if n_train < lookback:
            raise DataError(
                f"train split has {n_train} points, need at least lookback={lookback} "
                "to give the validation split context")
        a, b = n_train, n_train + n_val
        return range(0, a), range(a - lookback, b), range(b - lookback, b + n_test)


def standardize(values: np.ndarray, train_span: range) -> np.ndarray:
    """`values` under the per-channel zero-mean unit-variance transform
    fitted on the train span (population variance). Channels scaled below
    `STANDARDIZE_EPS` get scale 1 with a warning, so they map to zeros
    instead of blowing up; a channel that is not finite once standardised,
    or whose train-span mean or scale is not, is a `DataError`."""
    fit = values[train_span.start:train_span.stop]
    mu = fit.mean(axis=0)
    sigma = fit.std(axis=0)
    dead = sigma < STANDARDIZE_EPS
    if dead.any():
        warnings.warn(
            f"channels {np.flatnonzero(dead).tolist()} are constant over the "
            "train span; leaving them unscaled", RuntimeWarning, stacklevel=2)
        sigma = np.where(dead, 1.0, sigma)
    std = (values - mu) / sigma
    finite = np.isfinite(std).all(axis=0)
    if not finite.all():
        # finite values can still overflow: a train-span mean or scale past
        # the float range, or a value too large for the train-span scale
        raise DataError(f"channel {int(np.argmin(finite))} is not finite once "
                        "standardised with its train-span mean and scale")
    # a scale that overflows to inf maps its channel to zeros, which the
    # check above passes
    fitted = np.isfinite(mu) & np.isfinite(sigma)
    if not fitted.all():
        raise DataError(f"channel {int(np.argmin(fitted))} has a train-span mean or "
                        "scale that is not finite")
    return std


def make_windows(values: np.ndarray, span: range, lookback: int, horizon: int):
    """All (x, y) window pairs fully inside `span`, channel-major.

    Returns x [n, channels, lookback] and y [n, channels, horizon] with
    n = len(span) - lookback - horizon + 1: read-only views of `values`
    that copy nothing. x[i] is values[s : s+T].T, so its points lie
    `channels` elements apart in memory.
    """
    n = len(span) - lookback - horizon + 1
    if n < 1:
        raise DataError(
            f"span of {len(span)} points is shorter than lookback+horizon="
            f"{lookback + horizon}")
    # sliding_window_view(..., axis=0)[i] is values[i : i + w].T
    return (sliding_window_view(values[span.start:span.stop - horizon], lookback, axis=0),
            sliding_window_view(values[span.start + lookback:span.stop], horizon, axis=0))


_SPLITS = ("train", "val", "test")


def split_windows(values: np.ndarray, spec: SplitSpec, lookback: int, horizon: int,
                  splits: tuple = _SPLITS) -> dict:
    """{split: (x, y)} for each named split of `values` standardised with
    train-span statistics (`SplitSpec.spans`, `standardize`); only those
    splits are windowed, each as views of the one standardised series
    (`make_windows`)."""
    spans = dict(zip(_SPLITS, spec.spans(len(values), lookback)))
    std = standardize(values, spans["train"])
    return {name: make_windows(std, spans[name], lookback, horizon) for name in splits}


@dataclass
class PreparedData:
    """(x, y) window pairs of the standardised series for each split,
    all views of one array (`make_windows`)."""

    train: tuple
    val: tuple
    test: tuple


def prepare(values: np.ndarray, spec: SplitSpec, lookback: int,
            horizon: int) -> PreparedData:
    """`split_windows` of all three splits: the standardised series is the
    only array this keeps, and every window is a view of it."""
    return PreparedData(**split_windows(values, spec, lookback, horizon))


# ---------------------------------------------------------------------------
# synthetic series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthSpec:
    """Mixed linear/nonlinear generator setup.

    Each channel is a sum of `s_components` linear parts (piecewise
    trend + stable AR(2)), `s_components` nonlinear parts (amplitude-
    modulated sinusoid with regime shifts), and white noise. Amplitude
    knobs let tests switch a family off entirely.
    """

    length: int = 2000
    channels: int = 3
    s_components: int = 1
    seed: int = 0
    noise_sigma: float = 0.1
    linear_amplitude: float = 1.0
    nonlinear_amplitude: float = 1.0

    def __post_init__(self):
        if self.length < 8 or self.channels < 1 or self.s_components < 1:
            raise ConfigError("length >= 8, channels >= 1, s_components >= 1 required")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")


def _stable_ar2(rng: np.random.Generator, length: int) -> np.ndarray:
    """Draw AR(2) coefficients from the box `AR2_PHI1` x `AR2_PHI2` and
    simulate with burn-in. Every draw is stable: the box's largest
    companion spectral radius is (0.6 + sqrt(1.56)) / 2 ~ 0.92, at
    (0.6, 0.3), and complex roots have modulus sqrt(-phi2) <= 0.71."""
    phi1 = rng.uniform(*AR2_PHI1)
    phi2 = rng.uniform(*AR2_PHI2)
    burn = 100
    e = rng.normal(0.0, AR2_INNOVATION, size=length + burn)
    z = np.zeros(length + burn)
    for t in range(2, length + burn):
        z[t] = phi1 * z[t - 1] + phi2 * z[t - 2] + e[t]
    return z[burn:]


def _piecewise_trend(rng: np.random.Generator, length: int) -> np.ndarray:
    n_segments = int(rng.integers(2, 5))
    cuts = np.sort(rng.choice(np.arange(1, length), size=n_segments - 1, replace=False))
    bounds = np.concatenate([[0], cuts, [length]])
    out = np.zeros(length)
    level = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        slope = rng.uniform(-2.0, 2.0) / length
        seg = np.arange(hi - lo, dtype=np.float64)
        out[lo:hi] = level + slope * seg
        level = out[hi - 1]
    return out


def _modulated_wave(rng: np.random.Generator, length: int) -> np.ndarray:
    t = np.arange(length, dtype=np.float64)
    period = rng.uniform(16.0, 64.0)
    mod_period = period * rng.uniform(4.0, 9.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    envelope = 1.0 + 0.5 * np.sin(2.0 * np.pi * t / mod_period)
    wave = envelope * np.sin(2.0 * np.pi * t / period + phase)
    # regime shifts: the wave flips scale and picks up a new offset at
    # a handful of change points
    n_regimes = int(rng.integers(2, 5))
    cuts = np.sort(rng.choice(np.arange(1, length), size=n_regimes - 1, replace=False))
    bounds = np.concatenate([[0], cuts, [length]])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        wave[lo:hi] = wave[lo:hi] * rng.choice([0.5, 1.0, 1.5, -1.0]) + rng.uniform(-0.5, 0.5)
    return wave


@dataclass
class SynthResult:
    values: np.ndarray       # [length, channels]
    components: dict         # "linear", "nonlinear", "noise", same shape
    columns: list


def synth_generate(spec: SynthSpec) -> SynthResult:
    """Generate the mixed series; `values` is exactly the sum of the three
    stored component arrays."""
    rng = stream(spec.seed, "synth")
    shape = (spec.length, spec.channels)
    linear = np.zeros(shape)
    nonlinear = np.zeros(shape)
    for c in range(spec.channels):
        for _ in range(spec.s_components):
            linear[:, c] += _piecewise_trend(rng, spec.length)
            linear[:, c] += _stable_ar2(rng, spec.length)
            nonlinear[:, c] += _modulated_wave(rng, spec.length)
    linear *= spec.linear_amplitude
    nonlinear *= spec.nonlinear_amplitude
    noise = rng.normal(0.0, spec.noise_sigma, size=shape) if spec.noise_sigma > 0 \
        else np.zeros(shape)
    values = linear + nonlinear + noise
    return SynthResult(values=values,
                       components={"linear": linear, "nonlinear": nonlinear,
                                   "noise": noise},
                       columns=[f"c{j}" for j in range(spec.channels)])


def add_noise(x: np.ndarray, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """Train-time corruption: x + alpha * g with g ~ N(0, 1) elementwise.
    alpha = 0 returns the input unchanged (and draws nothing)."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"noise alpha must lie in [0, 1], got {alpha}")
    if alpha == 0.0:
        return x
    return x + alpha * rng.standard_normal(x.shape)
