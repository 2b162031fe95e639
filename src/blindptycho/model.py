"""Forward measurement model and problem-instance construction.

A measurement is the squared magnitude of the far-field transform of an
exit wave, one row per illuminated region:

    y[r, k] = Noisy( | dft(x * S_r w)[k] |^2 )

with object x, window w and shift family S_r.  Noise is optional and drawn
from an explicit menu (none, poisson, clamped gaussian).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .formatting import g17
from .fourier import CIRCULAR, ShiftSet, dft, shift_stack
from .rng import Rng

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
    x = np.asarray(x, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    if x.shape != w.shape or x.ndim != 1:
        raise ValueError("x and w must be 1-d arrays of equal length")
    shifts.validate_for_dim(x.shape[0])
    spec = dft(x[np.newaxis, :] * shift_stack(w, shifts))
    return MeasurementSet(np.abs(spec) ** 2, shifts)


def add_noise(measurements: MeasurementSet, model: NoiseModel, rng: Rng) -> MeasurementSet:
    """Apply the noise model entrywise, row-major draw order."""
    values = measurements.values
    if model.kind == "none":
        return MeasurementSet(values.copy(), measurements.shifts)
    out = np.empty_like(values)
    rows, cols = values.shape
    for i in range(rows):
        for j in range(cols):
            if model.kind == "poisson":
                out[i, j] = float(rng.poisson(values[i, j]))
            else:
                out[i, j] = max(0.0, values[i, j] + model.sigma * rng.normal())
    return MeasurementSet(out, measurements.shifts)


@dataclass(frozen=True)
class Problem:
    """Immutable reconstruction instance.

    Fields beyond the measurements: smoothing ``epsilon`` of the amplitude
    loss, Tikhonov weights ``alpha`` (object) and ``beta`` (window), region
    sampling distribution ``p`` aligned with the offset list, and the
    stochastic batch size.  ``truth`` optionally carries the generating
    (object, window) pair.
    """

    d: int
    measurements: MeasurementSet
    epsilon: float
    alpha: float
    beta: float
    p: np.ndarray
    batch_size: int = 1
    truth: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.measurements.values.shape[1] != self.d:
            raise ValueError("measurement columns must equal d")
        if self.epsilon < 0 or not np.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite and >= 0")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        offsets = self.shifts.offsets
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("offsets must be strictly ascending")
        self.shifts.validate_for_dim(self.d)
        p = np.array(self.p, dtype=np.float64)
        if p.shape != (len(offsets),):
            raise ValueError("p must have one entry per shift")
        if np.any(p <= 0):
            raise ValueError("p entries must be strictly positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("p must sum to 1 within 1e-12")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        if self.truth is not None:
            x = np.array(self.truth[0], dtype=np.complex128)
            w = np.array(self.truth[1], dtype=np.complex128)
            if x.shape != (self.d,) or w.shape != (self.d,):
                raise ValueError("truth vectors must have length d")
            x.setflags(write=False)
            w.setflags(write=False)
            object.__setattr__(self, "truth", (x, w))

    @property
    def shifts(self) -> ShiftSet:
        return self.measurements.shifts

    @property
    def y(self) -> np.ndarray:
        return self.measurements.values

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
    if shifts is None:
        shifts = ShiftSet.all_shifts(d, CIRCULAR)
    rng = Rng(seed)
    x = rng.complex_normal_vector(d)
    w = rng.complex_normal_vector(d)
    measured = add_noise(forward_intensities(x, w, shifts), noise, rng)
    if p is None:
        p = np.full(len(shifts), 1.0 / len(shifts))
    return Problem(d=d, measurements=measured, epsilon=epsilon, alpha=alpha,
                   beta=beta, p=p, batch_size=batch_size, truth=(x, w))


# ---------------------------------------------------------------------------
# serialization
#
# One JSON document per problem with a fixed key order; floats carry 17
# significant digits so a written file reloads to identical doubles.

def _complex_rows(vec: np.ndarray) -> str:
    return "[" + ", ".join(f"[{g17(c.real)}, {g17(c.imag)}]" for c in vec) + "]"


def problem_to_json(problem: Problem) -> str:
    lines = [
        f'"d": {problem.d}',
        f'"mode": "{problem.shifts.mode}"',
        '"offsets": [' + ", ".join(str(o) for o in problem.offsets) + "]",
        f'"epsilon": {g17(problem.epsilon)}',
        f'"alpha_T": {g17(problem.alpha)}',
        f'"beta_T": {g17(problem.beta)}',
        '"p": [' + ", ".join(g17(v) for v in problem.p) + "]",
        f'"K": {problem.batch_size}',
        '"y": [' + ", ".join(
            "[" + ", ".join(g17(v) for v in row) + "]" for row in problem.y) + "]",
    ]
    if problem.truth is not None:
        x, w = problem.truth
        lines.append('"x": ' + _complex_rows(x))
        lines.append('"w": ' + _complex_rows(w))
    return "{\n  " + ",\n  ".join(lines) + "\n}\n"


def problem_from_json(text: str) -> Problem:
    data = json.loads(text)
    required = ("d", "mode", "offsets", "epsilon", "alpha_T", "beta_T", "p", "K", "y")
    for key in required:
        if key not in data:
            raise ValueError(f"problem document is missing field {key!r}")
    shifts = ShiftSet(tuple(data["offsets"]), data["mode"])
    measurements = MeasurementSet(np.array(data["y"], dtype=np.float64), shifts)
    truth = None
    if "x" in data and "w" in data:
        x = np.array([complex(re, im) for re, im in data["x"]])
        w = np.array([complex(re, im) for re, im in data["w"]])
        truth = (x, w)
    return Problem(d=int(data["d"]), measurements=measurements,
                   epsilon=float(data["epsilon"]), alpha=float(data["alpha_T"]),
                   beta=float(data["beta_T"]), p=np.array(data["p"], dtype=np.float64),
                   batch_size=int(data["K"]), truth=truth)


def save_problem(path, problem: Problem) -> None:
    with open(path, "w") as fh:
        fh.write(problem_to_json(problem))


def load_problem(path) -> Problem:
    with open(path) as fh:
        return problem_from_json(fh.read())
