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
decomposition identities are reproducible run to run.  The kernel takes
complex128 vectors of length d unchecked (the public wrappers check them)
and keeps ||z||^2 and ||v||^2 for the step rules; every norm in the package
is ``_sq_norm`` or its square root.  It has two halves: the forward half
(gather, transform, amplitudes, misfit and norms) is all that ``grad=False``
runs, and the back half (ratio, back transform and gradient reduction) runs
on a forward half, either its own or one passed as ``forward=`` that an
earlier ``grad=False`` call computed for the same arguments.  The engine's
step (and sgd's at K = 1) runs the back half's two parts, ``_residual_back``
at eps = 0 and ``_gradient``, in their one-row form: on 1-d views of one
row of the solver monitor's forward half, with an int row and a float
weight, so nothing is stacked and no sum runs over one row.

The bound formulas are written once, on ``_Bounds``, which computes the
per-problem constants sqrt(||y||_1 / d), 3 max(alpha, beta), sqrt(15d/4)
and sqrt(K) min p when built: once per run by a solver, once per call by
the public ``step_curvature_bound`` and ``stochastic_gradient_bounds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import dft, dft_adjoint, shift_stack, unshift_sum
from .fourier import shift  # noqa: F401  # perfbench/tracing.py wraps objective.shift
from .model import Problem

_TINY = 1e-300


@dataclass(frozen=True, slots=True)
class GradientPair:
    """Object- and window-direction gradients of equal length."""

    z: np.ndarray
    v: np.ndarray

    def norms(self) -> tuple[float, float]:
        return math.sqrt(_sq_norm(self.z)), math.sqrt(_sq_norm(self.v))


def _sq_norm(x: np.ndarray) -> float:
    """||x||^2, the package's one norm: every ||x|| is its square root."""
    return float(np.vdot(x, x).real)


def _as_iterate(problem: Problem, z, v):
    z, v = (np.asarray(a, dtype=np.complex128) for a in (z, v))
    if z.shape != (problem.d,) or v.shape != (problem.d,):
        raise ValueError("z and v must be 1-d arrays of length d")
    return z, v


@dataclass(slots=True)
class _Evaluation:
    """One pass of the residual kernel.  Row i of each array belongs to the
    offset with index ``rows[i]`` (every offset, in listed order, when
    ``rows`` is None); ``back`` and ``grad`` are None without a gradient,
    ``amp`` (which only the back half reads) with one.  Slotted, not
    frozen: a frozen build costs several times more, and every iteration
    builds one or two; nothing assigns to a field after the kernel returns."""

    J: float
    L_eps: float
    grad: GradientPair | None
    windows: np.ndarray            # S_r v
    spectrum: np.ndarray           # dft(z * S_r v)
    amp: np.ndarray | None         # sqrt(|spectrum|^2 + eps)
    back: np.ndarray | None        # F^* (I - D) spectrum
    z_sq: float                    # ||z||^2
    v_sq: float                    # ||v||^2


def _evaluate(problem: Problem, z, v, rows=None, weights=None,
              tikhonov: float = 1.0, grad: bool = True,
              forward: _Evaluation | None = None) -> _Evaluation:
    """The residual kernel: value and Wirtinger gradient of

        sum_i weights_i L_i(z, v) + tikhonov (alpha ||z||^2 + beta ||v||^2),

    where L_i is the data misfit of the region with offset index rows[i]
    (repeats allowed; all regions when None) and weights default to one.
    L_eps is the weighted data sum.  One forward and one back transform
    cover all the rows.  z and v must already be complex128 of length d.

    ``forward``, when given, must be the ``grad=False`` evaluation of the
    same (z, v, rows, weights, tikhonov); the kernel then runs only its
    back half, on those arrays, and returns value and gradient.
    """
    target = problem.y_amplitude if rows is None else problem.y_amplitude[rows]
    if forward is None:
        windows = shift_stack(v, problem.shifts, rows)
        spectrum = dft(z * windows)
        amp = np.sqrt(np.abs(spectrum) ** 2 + problem.epsilon)
        misfit = (amp - target) ** 2
        if weights is not None:
            misfit = weights[:, np.newaxis] * misfit
        data = float(np.add.reduce(misfit, None))
        z_sq, v_sq = _sq_norm(z), _sq_norm(v)
        total = data + problem.alpha * tikhonov * z_sq + problem.beta * tikhonov * v_sq
        if not grad:
            return _Evaluation(total, data, None, windows, spectrum, amp, None,
                               z_sq, v_sq)
    else:
        f = forward
        total, data, windows, spectrum, amp, z_sq, v_sq = \
            f.J, f.L_eps, f.windows, f.spectrum, f.amp, f.z_sq, f.v_sq
    back = _residual_back(target, amp, spectrum, problem.epsilon)
    g = _gradient(problem, z, v, windows, back, rows, weights, tikhonov)
    # amp has no reader after the back half; a monitor that kept it would
    # hold one more (R, d) array alive per iteration for every solver.
    return _Evaluation(total, data, g, windows, spectrum, None, back, z_sq, v_sq)


def _residual_back(target, amp, spectrum, epsilon: float) -> np.ndarray:
    """F^* (I - D) spectrum, D = target / amp, of ``_evaluate``'s back half.
    With eps > 0 every amplitude is at least sqrt(eps) > _TINY; with eps = 0
    a vanished coefficient gets ratio 0."""
    if epsilon > 0:
        ratio = target / amp
    else:
        ratio = np.divide(target, amp, out=np.zeros(amp.shape), where=amp > _TINY)
    return dft_adjoint((1.0 - ratio) * spectrum)


def _gradient(problem: Problem, z, v, windows, back, rows, weights=None,
              tikhonov: float = 1.0) -> GradientPair:
    """The gradient reduction of ``_evaluate`` from its per-row arrays.

    An int ``rows`` is the one-row form: ``windows`` and ``back`` are that
    row's 1-d arrays and ``weights`` a float or None, and nothing is
    stacked or summed over one row.  Its values are those of the stack
    ``[rows]``; an axis-0 sum turns -0 into +0, so it can differ only in
    the sign of an exact zero.  ``tikhonov == 0`` skips the Tikhonov adds,
    whose zero terms could likewise change only the sign of an exact zero
    of the data part."""
    if isinstance(rows, (int, np.integer)):
        if weights is not None:
            back = weights * back
        g_z = np.conj(windows) * back
    else:
        if weights is not None:
            back = weights[:, np.newaxis] * back
        g_z = np.add.reduce(np.conj(windows) * back, 0)
    g_v = unshift_sum(np.conj(z) * back, problem.shifts, rows)
    if tikhonov != 0:
        g_z = g_z + tikhonov * problem.alpha * z
        g_v = g_v + tikhonov * problem.beta * v
    return GradientPair(g_z, g_v)


def loss(problem: Problem, z, v) -> tuple[float, float]:
    """Evaluate the objective; returns (J, L_eps)."""
    ev = _evaluate(problem, *_as_iterate(problem, z, v), grad=False)
    return ev.J, ev.L_eps


def gradient(problem: Problem, z, v) -> GradientPair:
    """Wirtinger gradient of J, all regions reduced in listed order."""
    return _evaluate(problem, *_as_iterate(problem, z, v)).grad


def loss_and_gradient(problem: Problem, z, v) -> tuple[float, float, GradientPair]:
    """Fused evaluation sharing one forward transform; returns (J, L_eps, grad)."""
    ev = _evaluate(problem, *_as_iterate(problem, z, v))
    return ev.J, ev.L_eps, ev.grad


def gradient_region(problem: Problem, z, v, r: int) -> GradientPair:
    """Gradient of the single-region objective J_r.

    J_r carries the region's data misfit plus its p_r share of the Tikhonov
    terms, so the full gradient is recovered exactly by summing over all
    regions in listed order.
    """
    row = problem.row(r)
    return _evaluate(problem, *_as_iterate(problem, z, v), [row],
                     tikhonov=float(problem.p[row])).grad


# ---------------------------------------------------------------------------
# bound constants feeding the step-size rules

class _Bounds:
    """The curvature bound and the stochastic-gradient envelopes of one
    problem, with every factor that depends on the problem alone computed
    when built."""

    def __init__(self, problem: Problem):
        d = problem.d
        self.d, self.alpha, self.beta = d, problem.alpha, problem.beta
        self.ymass = np.sqrt(problem.y_total / d)
        self.weight = 3.0 * max(problem.alpha, problem.beta)
        self.scale = np.sqrt(15.0 * d / 4.0)
        self.sampling = np.sqrt(problem.batch_size) * float(np.min(problem.p))

    def curvature(self, z_sq: float, v_sq: float) -> float:
        """``step_curvature_bound`` from ||z||^2 and ||v||^2."""
        return 3.0 * self.d * ((10.0 / 3.0) * (z_sq + v_sq) + self.ymass) + self.weight

    def envelopes(self, z_sq: float, v_sq: float) -> tuple[float, float]:
        """``stochastic_gradient_bounds`` from ||z||^2 and ||v||^2."""
        nz, nv = math.sqrt(z_sq), math.sqrt(v_sq)
        shared = (nz * nv + self.ymass) / self.sampling
        b_z = self.scale * (self.d * nv * shared + self.alpha * nz)
        b_v = self.scale * (self.d * nz * shared + self.beta * nv)
        return float(b_z), float(b_v)


def step_curvature_bound(problem: Problem, z, v) -> float:
    """Uniform curvature bound for joint descent steps.

    3 d [ (10/3)(||z||^2 + ||v||^2) + sqrt(||y||_1 / d) ] + 3 max(alpha, beta);
    its reciprocal is the norm-independent branch of the step-size rule.
    """
    z, v = _as_iterate(problem, z, v)
    return _Bounds(problem).curvature(_sq_norm(z), _sq_norm(v))


def stochastic_gradient_bounds(problem: Problem, z, v) -> tuple[float, float]:
    """Deterministic envelopes (b_z, b_v) for the sampled gradients.

    Whatever indices are drawn, (15 d / 4) ||g_z||^2 <= b_z^2 and likewise
    for the window part, which makes the SGD step rule measurable without
    looking at the sample.
    """
    z, v = _as_iterate(problem, z, v)
    return _Bounds(problem).envelopes(_sq_norm(z), _sq_norm(v))


def partial_lipschitz(problem: Problem, z, v) -> tuple[float, float]:
    """Curvature constants for the single-variable updates.

    Returns (object_step, window_step): the object update divides its
    gradient by d max_j sum_r |(S_r v)_j|^2 + alpha, the window update by
    d max_j sum_r |(S_{-r} z)_j|^2 + beta.  Both are at most
    d ||.||^2 + weight since each coordinate collects at most the full
    energy of the shifted vector.  The first depends on v alone and the
    second on z alone; ``_partial_lipschitz`` computes them, and interval
    descent passes it the one its last step left unchanged.
    """
    return _partial_lipschitz(problem, *_as_iterate(problem, z, v))


def _partial_lipschitz(problem: Problem, z, v, object_step: float | None = None,
                       window_step: float | None = None) -> tuple[float, float]:
    """``partial_lipschitz`` of complex128 vectors of length d, computing
    only the constant not given: each is one gather (or scatter), one
    reduction and one max, called as ufunc reductions (``np.add.reduce``,
    ``np.maximum.reduce``) without the ``.sum``/``.max`` method layer."""
    if object_step is None:
        win_energy = np.add.reduce(shift_stack(np.abs(v) ** 2, problem.shifts), 0)
        peak = float(np.maximum.reduce(win_energy, None))
        object_step = problem.d * peak + problem.alpha
    if window_step is None:
        obj_energy = unshift_sum(np.abs(z) ** 2, problem.shifts)
        peak = float(np.maximum.reduce(obj_energy, None))
        window_step = problem.d * peak + problem.beta
    return object_step, window_step
