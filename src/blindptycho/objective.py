"""Amplitude loss, Wirtinger gradients, and step-size bound constants.

The data term compares smoothed amplitudes against the measurements,

    L_eps(z, v) = sum_{r,k} [ sqrt(|dft(z * S_r v)[k]|^2 + eps)
                              - sqrt(y[r,k] + eps) ]^2,

and the full objective adds Tikhonov terms,

    J(z, v) = L_eps(z, v) + alpha ||z||^2 + beta ||v||^2.

Gradients follow the Wirtinger convention for real-valued functions of
complex vectors: component j of grad_z f is (df/dRe + i df/dIm)/2.  With
D the diagonal of sqrt(y + eps) / sqrt(|spectrum|^2 + eps),

    grad_z J = sum_r conj(S_r v) * F^*(I - D) F(z * S_r v) + alpha z,
    grad_v J = sum_r S_{-r}[ conj(z) * F^*(I - D) F(z * S_r v) ] + beta v.

When eps = 0 and a spectral coefficient vanishes, the ratio term is set to
zero (coefficients below 1e-300 in magnitude are treated as zero to avoid
overflow).

Every value and gradient comes from one kernel, ``_evaluate``, over any
subset of regions (repeats allowed).  Reductions run in row order, so the
decomposition identities are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import dft, dft_adjoint, neg_shift_stack, shift_stack, unshift_sum
from .fourier import shift  # noqa: F401  # perfbench/tracing.py wraps objective.shift
from .model import Problem

_TINY = 1e-300


@dataclass(frozen=True)
class GradientPair:
    """Object- and window-direction gradients of equal length."""

    z: np.ndarray
    v: np.ndarray

    def norms(self) -> tuple[float, float]:
        return float(np.linalg.norm(self.z)), float(np.linalg.norm(self.v))


def _as_iterate(problem: Problem, z, v):
    z = np.asarray(z, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if z.shape != (problem.d,) or v.shape != (problem.d,):
        raise ValueError("z and v must be 1-d arrays of length d")
    return z, v


@dataclass(frozen=True)
class _Evaluation:
    """One pass of the residual kernel.  Row i of each array belongs to the
    offset with index ``rows[i]`` (every offset, in listed order, when
    ``rows`` is None); ``back`` and ``grad`` are None without a gradient."""

    J: float
    L_eps: float
    grad: GradientPair | None
    windows: np.ndarray            # S_r v
    spectrum: np.ndarray           # dft(z * S_r v)
    back: np.ndarray | None        # F^* (I - D) spectrum


def _evaluate(problem: Problem, z, v, rows=None, weights=None,
              tikhonov: float = 1.0, grad: bool = True) -> _Evaluation:
    """The residual kernel: value and Wirtinger gradient of

        sum_i weights_i L_i(z, v) + tikhonov (alpha ||z||^2 + beta ||v||^2),

    where L_i is the data misfit of the region with offset index rows[i]
    (repeats allowed; all regions when None) and weights default to one.
    L_eps is the weighted data sum.  One forward and one back transform
    cover all the rows.
    """
    z, v = _as_iterate(problem, z, v)
    windows = shift_stack(v, problem.shifts, rows)
    spectrum = dft(z * windows)
    target = problem.y_amplitude if rows is None else problem.y_amplitude[rows]
    amp = np.sqrt(np.abs(spectrum) ** 2 + problem.epsilon)
    misfit = (amp - target) ** 2
    if weights is not None:
        misfit = weights[:, np.newaxis] * misfit
    data = float(np.sum(misfit))
    total = data + problem.alpha * tikhonov * float(np.vdot(z, z).real) \
        + problem.beta * tikhonov * float(np.vdot(v, v).real)
    if not grad:
        return _Evaluation(total, data, None, windows, spectrum, None)
    # (I - D) spectrum with the eps = 0 zero convention, then F^*.
    ratio = np.divide(target, amp, out=np.zeros_like(amp), where=amp > _TINY)
    back = dft_adjoint((1.0 - ratio) * spectrum)
    g = _gradient(problem, z, v, windows, back, rows, weights, tikhonov)
    return _Evaluation(total, data, g, windows, spectrum, back)


def _gradient(problem: Problem, z, v, windows, back, rows, weights=None,
              tikhonov: float = 1.0) -> GradientPair:
    """The gradient reduction of ``_evaluate`` from its per-row arrays."""
    if weights is not None:
        back = weights[:, np.newaxis] * back
    g_z = np.sum(np.conj(windows) * back, axis=0) + tikhonov * problem.alpha * z
    g_v = unshift_sum(np.conj(z) * back, problem.shifts, rows) \
        + tikhonov * problem.beta * v
    return GradientPair(g_z, g_v)


def loss(problem: Problem, z, v) -> tuple[float, float]:
    """Evaluate the objective; returns (J, L_eps)."""
    ev = _evaluate(problem, z, v, grad=False)
    return ev.J, ev.L_eps


def loss_region(problem: Problem, z, v, r: int) -> float:
    """Data misfit of the single region with offset r (no Tikhonov part)."""
    return _evaluate(problem, z, v, [problem.offset_row[r]], grad=False).L_eps


def gradient(problem: Problem, z, v) -> GradientPair:
    """Wirtinger gradient of J, all regions reduced in listed order."""
    return _evaluate(problem, z, v).grad


def loss_and_gradient(problem: Problem, z, v) -> tuple[float, float, GradientPair]:
    """Fused evaluation sharing one forward transform; returns (J, L_eps, grad)."""
    ev = _evaluate(problem, z, v)
    return ev.J, ev.L_eps, ev.grad


def gradient_region(problem: Problem, z, v, r: int) -> GradientPair:
    """Gradient of the single-region objective J_r.

    J_r carries the region's data misfit plus its p_r share of the Tikhonov
    terms, so the full gradient is recovered exactly by summing over all
    regions in listed order.
    """
    row = problem.offset_row[r]
    return _evaluate(problem, z, v, [row], tikhonov=float(problem.p[row])).grad


# ---------------------------------------------------------------------------
# bound constants feeding the step-size rules

def step_curvature_bound(problem: Problem, z, v) -> float:
    """Uniform curvature bound for joint descent steps.

    3 d [ (10/3)(||z||^2 + ||v||^2) + sqrt(||y||_1 / d) ] + 3 max(alpha, beta);
    its reciprocal is the norm-independent branch of the step-size rule.
    """
    z, v = _as_iterate(problem, z, v)
    nz2 = float(np.vdot(z, z).real)
    nv2 = float(np.vdot(v, v).real)
    d = problem.d
    return 3.0 * d * ((10.0 / 3.0) * (nz2 + nv2) + np.sqrt(problem.y_total / d)) \
        + 3.0 * max(problem.alpha, problem.beta)


def stochastic_gradient_bounds(problem: Problem, z, v) -> tuple[float, float]:
    """Deterministic envelopes (b_z, b_v) for the sampled gradients.

    Whatever indices are drawn, (15 d / 4) ||g_z||^2 <= b_z^2 and likewise
    for the window part, which makes the SGD step rule measurable without
    looking at the sample.
    """
    z, v = _as_iterate(problem, z, v)
    d = problem.d
    nz = float(np.linalg.norm(z))
    nv = float(np.linalg.norm(v))
    scale = np.sqrt(15.0 * d / 4.0)
    pmin = float(np.min(problem.p))
    shared = (nz * nv + np.sqrt(problem.y_total / d)) \
        / (np.sqrt(problem.batch_size) * pmin)
    b_z = scale * (d * nv * shared + problem.alpha * nz)
    b_v = scale * (d * nz * shared + problem.beta * nv)
    return float(b_z), float(b_v)


def partial_lipschitz(problem: Problem, z, v) -> tuple[float, float]:
    """Curvature constants for the single-variable updates.

    Returns (object_step, window_step): the object update divides its
    gradient by d max_j sum_r |(S_r v)_j|^2 + alpha, the window update by
    d max_j sum_r |(S_{-r} z)_j|^2 + beta.  Both are at most
    d ||.||^2 + weight since each coordinate collects at most the full
    energy of the shifted vector.
    """
    z, v = _as_iterate(problem, z, v)
    d = problem.d
    win_energy = np.sum(np.abs(shift_stack(v, problem.shifts)) ** 2, axis=0)
    obj_energy = np.sum(np.abs(neg_shift_stack(z, problem.shifts)) ** 2, axis=0)
    object_step = d * float(np.max(win_energy)) + problem.alpha
    window_step = d * float(np.max(obj_energy)) + problem.beta
    return object_step, window_step
