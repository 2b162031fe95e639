"""Forward measurement model and problem-instance construction.

A measurement is the squared magnitude of the far-field transform of an
exit wave, one row per illuminated region:

    y[r, k] = Noisy( | dft(x * S_r w)[k] |^2 )

with object x, window w and shift family S_r.  Noise is optional and drawn
from an explicit menu (none, poisson, clamped gaussian).  A ``Problem`` is
built from its measurements y and their shift family; its dimension d is
the column count of y.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .fourier import CIRCULAR, MODES, ShiftSet, dft, shift_stack
from .rng import Rng, _count, _integral

NOISE_KINDS = ("none", "poisson", "gaussian")


@dataclass(frozen=True)
class NoiseModel:
    kind: str = "none"
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind: {self.kind!r}")
        if self.kind == "gaussian" and (self.sigma < 0 or not np.isfinite(self.sigma)):
            raise ValueError("gaussian noise sigma must be finite and >= 0")


@dataclass(frozen=True)
class MeasurementSet:
    """Nonnegative R x d intensity array tied to its shift family."""

    values: np.ndarray
    shifts: ShiftSet

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("values must be a 2-d array (regions x frequencies)")
        if values.shape[0] != len(self.shifts):
            raise ValueError("row count of values must equal the number of shifts")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if np.any(values < 0):
            raise ValueError("values must be nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def forward_intensities(x: np.ndarray, w: np.ndarray, shifts: ShiftSet) -> MeasurementSet:
    """Noiseless intensities |dft(x * S_r w)|^2 for every shift."""
    x, w = (np.asarray(a, dtype=np.complex128) for a in (x, w))
    if x.shape != w.shape or x.ndim != 1:
        raise ValueError("x and w must be 1-d arrays of equal length")
    shifts.validate_for_dim(x.shape[0])
    spec = dft(x * shift_stack(w, shifts))
    return MeasurementSet(np.abs(spec) ** 2, shifts)


def add_noise(measurements: MeasurementSet, model: NoiseModel, rng: Rng) -> MeasurementSet:
    """Apply the noise model entrywise, row-major draw order."""
    values = measurements.values
    if model.kind == "none":
        return MeasurementSet(values, measurements.shifts)
    if model.kind == "poisson":
        out = np.fromiter(map(rng.poisson, values.flat), np.float64, values.size)
    else:
        noisy = values.reshape(-1) + model.sigma * rng.normal_vector(values.size)
        # as max(0.0, .) per entry: -0.0 and NaN become 0.0
        out = np.where(noisy > 0.0, noisy, 0.0)
    return MeasurementSet(out.reshape(values.shape), measurements.shifts)


# Problem's checks, one field each: problem_from_json runs them again, under
# the key of the file field each one reads, to name the field it rejects.

def _smoothing(epsilon) -> None:
    if epsilon < 0 or not np.isfinite(epsilon):
        raise ValueError("epsilon must be finite and >= 0")


def _tikhonov(weight) -> None:
    if not 0 <= weight < np.inf:
        raise ValueError("alpha and beta must be finite and >= 0")


def _family(shifts: ShiftSet, d: int) -> ShiftSet:
    offsets = shifts.offsets
    if any(b <= a for a, b in zip(offsets, offsets[1:])):
        raise ValueError("offsets must be strictly ascending")
    shifts.validate_for_dim(d)
    return shifts


def _distribution(p, n: int) -> np.ndarray:
    p = np.array(p, dtype=np.float64)
    if p.shape != (n,):
        raise ValueError("p must have one entry per shift")
    if not np.all((p > 0) & np.isfinite(p)):
        raise ValueError("p entries must be finite and strictly positive")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("p must sum to 1 within 1e-12")
    p.setflags(write=False)
    return p


def _truth_vector(a, d: int) -> np.ndarray:
    a = np.array(a, dtype=np.complex128)
    if a.shape != (d,):
        raise ValueError("truth vectors must have length d")
    if not np.all(np.isfinite(a)):
        raise ValueError("truth vectors must be finite")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Problem:
    """Immutable reconstruction instance.

    Measurements ``y``, one row per shift, checked as a ``MeasurementSet``;
    ``d`` is their column count.  Smoothing ``epsilon`` of the amplitude
    loss, Tikhonov weights ``alpha`` (object) and ``beta`` (window), region
    sampling distribution ``p`` aligned with the offset list, and the
    stochastic batch size.  ``truth`` optionally carries the generating
    (object, window) pair.
    """

    y: np.ndarray
    shifts: ShiftSet
    epsilon: float
    alpha: float
    beta: float
    p: np.ndarray
    batch_size: int = 1
    truth: tuple[np.ndarray, np.ndarray] | None = None
    d: int = field(init=False)

    def __post_init__(self):
        y = MeasurementSet(self.y, self.shifts).values
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "d", y.shape[1])
        _require_integers(self, d=1, batch_size=1)
        _smoothing(self.epsilon)
        _tikhonov(self.alpha)
        _tikhonov(self.beta)
        _family(self.shifts, self.d)
        object.__setattr__(self, "p", _distribution(self.p, len(self.shifts)))
        if self.truth is not None:
            object.__setattr__(self, "truth",
                               tuple(_truth_vector(a, self.d) for a in self.truth))

    @property
    def offsets(self) -> tuple[int, ...]:
        return self.shifts.offsets

    @property
    def n_regions(self) -> int:
        return len(self.shifts)

    @cached_property
    def y_total(self) -> float:
        """l1 mass of the measurements."""
        return float(np.sum(self.y))

    @cached_property
    def y_amplitude(self) -> np.ndarray:
        """Smoothed measured amplitudes sqrt(y + epsilon), as the loss uses them."""
        amp = np.sqrt(self.y + self.epsilon)
        amp.setflags(write=False)
        return amp

    @cached_property
    def offset_row(self) -> dict[int, int]:
        return {r: i for i, r in enumerate(self.offsets)}

    def row(self, offset: int) -> int:
        """The measurement row of a region offset; an offset the problem does
        not measure (a bool is not an offset) raises ValueError naming it."""
        row = self.offset_row.get(offset) if _integral(offset) else None
        if row is None:
            raise ValueError(f"unknown region offset: {offset!r}")
        return row


def synthesize_problem(d: int,
                       shifts: ShiftSet | None = None,
                       seed: int = 0,
                       noise: NoiseModel = NoiseModel("none"),
                       epsilon: float = 1e-8,
                       alpha: float = 1e-3,
                       beta: float = 1e-3,
                       p: np.ndarray | None = None,
                       batch_size: int = 1) -> Problem:
    """Draw a ground-truth pair and build the matching problem instance.

    Object and window entries are i.i.d. standard complex normal, drawn in
    that order from a fresh ``Rng(seed)``; noise draws follow.  The same
    seed therefore reproduces the instance bit for bit.
    """
    d = _count(d, "d", 1)
    if shifts is None:
        shifts = ShiftSet.all_shifts(d, CIRCULAR)
    rng = Rng(seed)
    x = rng.complex_normal_vector(d)
    w = rng.complex_normal_vector(d)
    measured = add_noise(forward_intensities(x, w, shifts), noise, rng)
    if p is None:
        p = np.full(len(shifts), 1.0 / len(shifts))
    return Problem(y=measured.values, shifts=shifts, epsilon=epsilon, alpha=alpha,
                   beta=beta, p=p, batch_size=batch_size, truth=(x, w))


# ---------------------------------------------------------------------------
# serialization

def problem_to_json(problem: Problem) -> str:
    """One JSON document with a fixed key order; ``x`` and ``w`` are lists of
    [re, im] pairs.  Floats are written in shortest exact form, so a file
    reloads to the same bits, signed zeros included."""
    doc = {"d": int(problem.d), "mode": problem.shifts.mode,
           "offsets": list(problem.offsets), "epsilon": float(problem.epsilon),
           "alpha_T": float(problem.alpha), "beta_T": float(problem.beta),
           "p": problem.p.tolist(), "K": int(problem.batch_size),
           "y": problem.y.tolist()}
    if problem.truth is not None:
        for key, vec in zip(("x", "w"), problem.truth):
            doc[key] = vec.view(np.float64).reshape(-1, 2).tolist()
    return json.dumps(doc, allow_nan=False) + "\n"


def _number(value) -> float:
    """A JSON number as a float; a bool (JSON true or false) or a string raises."""
    if type(value) not in (int, float):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _floats(value, ndim: int) -> np.ndarray:
    """A JSON array of ``ndim`` levels, rows of equal length, as float64; any
    other shape raises, and each entry is checked as by ``_number``
    (``np.array`` takes bools and numeric strings)."""
    array = np.array(value, dtype=object)
    kinds = set(map(type, array.flat))
    if array.ndim != ndim or list in kinds:
        raise ValueError(f"expected a {ndim}-d array of numbers")
    if not kinds <= {int, float}:
        _number(next(x for x in array.flat if type(x) not in (int, float)))
    return array.astype(np.float64)


def _mode(value) -> str:
    if type(value) is not str:
        raise ValueError(f"{value!r} is not a string")
    if value not in MODES:
        raise ValueError(f"unknown shift mode: {value!r}")
    return value


def _complex_pairs(value) -> np.ndarray:
    pairs = _floats(value, 2)
    if pairs.shape[1] != 2:
        raise ValueError("expected a list of [re, im] pairs")
    return pairs.view(np.complex128)[:, 0]


def _offsets(value) -> list:
    """A JSON array; ``ShiftSet`` reads each entry as an offset."""
    if type(value) is not list:
        raise ValueError(f"{value!r} is not an array")
    return value


def _require_integers(obj, **least) -> None:
    """Store each field of ``obj`` named in ``least`` as an int, checked by
    ``_count`` against its bound (None for no bound), so a non-integral or
    too small value raises ValueError naming the field."""
    for name, bound in least.items():
        object.__setattr__(obj, name, _count(getattr(obj, name), name, bound))


# document field -> conversion; x and w (the truth) are optional as a pair.
# Numbers must be JSON numbers: no bool and no string, in arrays as well.
_FIELDS = {"d": lambda v: _count(v, "d", 1), "mode": _mode, "offsets": _offsets,
           "epsilon": _number, "alpha_T": _number, "beta_T": _number,
           "p": lambda v: _floats(v, 1), "K": lambda v: _count(v, "K", 1),
           "y": lambda v: _floats(v, 2), "x": _complex_pairs, "w": _complex_pairs}


@contextmanager
def _field(key: str):
    """Raise an error of the block as a ValueError naming problem field ``key``."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"problem field {key!r}: {exc}") from None


def problem_from_json(text: str) -> Problem:
    """Inverse of problem_to_json; a missing field, or one of the wrong type
    or shape, a ``d`` other than y's column count, or any value ``Problem``
    rejects (offsets that do not form an ascending shift family of dimension
    d, a y row per offset, epsilon, the weights, p, x and w), raises
    ValueError naming its field."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("problem document must be a JSON object")
    keys = list(_FIELDS) if "x" in data or "w" in data else list(_FIELDS)[:-2]
    values = {}
    for key in keys:
        if key not in data:
            raise ValueError(f"problem document is missing field {key!r}")
        with _field(key):
            values[key] = _FIELDS[key](data[key])
    d, y = values["d"], values["y"]
    with _field("d"):
        if d != y.shape[1]:
            raise ValueError(f"d must equal the column count of y ({y.shape[1]}): {d}")
    with _field("offsets"):
        shifts = _family(ShiftSet(values["offsets"], values["mode"]), d)
    try:
        return Problem(y=y, shifts=shifts, epsilon=values["epsilon"],
                       alpha=values["alpha_T"], beta=values["beta_T"], p=values["p"],
                       batch_size=values["K"],
                       truth=(values["x"], values["w"]) if "x" in values else None)
    except ValueError:
        # Name the field: run Problem's checks again, each under the key of
        # the value it reads (only on failure, so a valid file is checked once).
        checks = {"y": lambda a: MeasurementSet(a, shifts), "epsilon": _smoothing,
                  "alpha_T": _tikhonov, "beta_T": _tikhonov,
                  "p": lambda a: _distribution(a, len(shifts)),
                  "x": lambda a: _truth_vector(a, d), "w": lambda a: _truth_vector(a, d)}
        for key, check in checks.items():
            if key in values:
                with _field(key):
                    check(values[key])
        raise


def save_problem(path, problem: Problem) -> None:
    Path(path).write_text(problem_to_json(problem))


def load_problem(path) -> Problem:
    return problem_from_json(Path(path).read_text())
