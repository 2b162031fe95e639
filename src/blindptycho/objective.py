"""Amplitude loss, Wirtinger gradients and the partial curvature constants.

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

Every value and gradient comes from one kernel, ``_evaluate``, over all of
a problem's regions; a single-region objective J_r is that of the
one-region problem ``_region``, with Tikhonov weights p_r alpha and
p_r beta.  Reductions run in row order, so the decomposition identities
are reproducible run to run.  The kernel takes
complex128 vectors of length d unchecked (the public wrappers check them)
and keeps ||z||^2 and ||v||^2 for the step rules; every norm in the package
is ``_sq_norm`` or its square root.  ``_forward`` is its value-only pass
(gather, transform, amplitudes, misfit and norms), which ``loss`` and
interval descent's gamma trials run; ``_evaluate`` runs the back half
(ratio, back transform and gradient reduction) on a ``_forward`` record,
its own or one handed over for the same arguments, and completes it.

The back half forms each row's data gradient, ``_parts``: conj(S_r v) B_r
and S_{-r}(conj(z) B_r), with B = F^*(I - D) spectrum.  ``_weighted_sum``
scales each row by its weight after those products, sums the rows in
order and adds the Tikhonov terms (alpha z, beta v).  The evaluation
keeps the unweighted parts and the Tikhonov terms, so sgd's step is a
``_weighted_sum`` of drawn rows of the solver monitor's parts, with no
product, gather or transform of its own; it equals the public
``stochastic_gradient``, which evaluates each drawn region afresh, bit
for bit.
The engine's step runs the back half, ``_residual_back`` at eps = 0 and
``_weighted_sum`` of ``_parts`` without Tikhonov terms, in its one-row
form: on 1-d views of one row of the monitor's forward half, with an int
row and a float weight, so nothing is stacked and no sum runs over one row.

``partial_lipschitz`` gives interval descent's curvatures; the bounds that
gd's and sgd's step rules read live beside those rules, in ``solvers``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import ShiftSet, dft, dft_adjoint, shift_stack, unshift_stack, unshift_sum
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


# np.vdot's own C function, without the array-function dispatch that every
# np.vdot call runs first: the same bits; the monitor takes four norms an
# iteration
_vdot = np.vdot._implementation


def _sq_norm(x: np.ndarray) -> float:
    """||x||^2, the package's one norm: every ||x|| is its square root."""
    return float(_vdot(x, x).real)


def _as_iterate(problem: Problem, z, v):
    z, v = (np.asarray(a, dtype=np.complex128) for a in (z, v))
    if z.shape != (problem.d,) or v.shape != (problem.d,):
        raise ValueError("z and v must be 1-d arrays of length d")
    return z, v


@dataclass(slots=True)
class _Evaluation:
    """One pass of the residual kernel.  Row i of each array belongs to
    offset i of the problem.  ``_forward`` leaves ``grad``, ``parts`` and
    ``tik`` None and ``_evaluate`` fills them in, so it is not frozen.
    ``solvers.run`` owns each monitor record's life."""

    J: float
    L_eps: float
    windows: np.ndarray            # S_r v
    spectrum: np.ndarray           # dft(z * S_r v)
    amp: np.ndarray                # sqrt(|spectrum|^2 + eps)
    z_sq: float                    # ||z||^2
    v_sq: float                    # ||v||^2
    grad: GradientPair | None = None
    parts: tuple | None = None     # each row's data gradient (``_parts``)
    tik: tuple | None = None       # (alpha z, beta v)


def _forward(problem: Problem, z, v) -> _Evaluation:
    """The kernel's value-only pass: J and its data sum L_eps over all the
    problem's regions, with one forward transform.  z and v must already
    be complex128 of length d."""
    windows = shift_stack(v, problem.shifts)
    spectrum = dft(z * windows)
    amp = np.sqrt(np.abs(spectrum) ** 2 + problem.epsilon)
    data = float(np.add.reduce((amp - problem.y_amplitude) ** 2, None))
    z_sq, v_sq = _sq_norm(z), _sq_norm(v)
    return _Evaluation(data + problem.alpha * z_sq + problem.beta * v_sq, data,
                       windows, spectrum, amp, z_sq, v_sq)


def _evaluate(problem: Problem, z, v, forward: _Evaluation | None = None) -> _Evaluation:
    """The residual kernel: J and its Wirtinger gradient.  The back half
    (one back transform over all the rows) runs on ``forward``, which must
    be ``_forward(problem, z, v)``, or on its own ``_forward``, and fills
    in that record, which it returns."""
    ev = _forward(problem, z, v) if forward is None else forward
    back = _residual_back(problem.y_amplitude, ev.amp, ev.spectrum, problem.epsilon)
    ev.parts = _parts(problem, z, ev.windows, back)
    ev.tik = _tikhonov(problem, z, v)
    ev.grad = _weighted_sum(ev.parts, None, ev.tik)
    return ev


def _residual_back(target, amp, spectrum, epsilon: float) -> np.ndarray:
    """F^* (I - D) spectrum, D = target / amp, of ``_evaluate``'s back half.
    With eps > 0 every amplitude is at least sqrt(eps) > _TINY; with eps = 0
    a vanished coefficient gets ratio 0."""
    if epsilon > 0:
        ratio = target / amp
    else:
        ratio = np.divide(target, amp, out=np.zeros(amp.shape), where=amp > _TINY)
    return dft_adjoint((1.0 - ratio) * spectrum)


def _parts(problem: Problem, z, windows, back, row=None) -> tuple[np.ndarray, np.ndarray]:
    """The unweighted data gradient of each row, (conj(S_r v) B_r,
    S_{-r}(conj(z) B_r)), from ``_evaluate``'s per-row arrays; an int
    ``row`` takes that row's 1-d ``windows`` and ``back`` and gives 1-d
    parts."""
    # the window part first, and the object part's product in place: at
    # most three (R, d) arrays are alive at once, back included
    part_v = unshift_stack(np.conj(z) * back, problem.shifts, row)
    part_z = np.conj(windows)
    part_z *= back
    return part_z, part_v


def _tikhonov(problem: Problem, z, v):
    """The Tikhonov gradient (alpha z, beta v)."""
    return problem.alpha * z, problem.beta * v


def _weighted_sum(parts, weights, tik) -> GradientPair:
    """sum_i weights_i parts_i + tik: each row scaled by its weight after
    the products, then the rows summed in order.  1-d parts (one row) take
    a float weight or None, and nothing is summed over one row: its values
    are those of the (1, d) stack, except that an axis-0 sum turns -0 into
    +0."""
    g_z, g_v = parts
    if weights is not None:
        if g_z.ndim > 1:
            weights = weights[:, np.newaxis]
        g_z, g_v = weights * g_z, weights * g_v
    if g_z.ndim > 1:
        g_z, g_v = np.add.reduce(g_z, 0), np.add.reduce(g_v, 0)
    if tik is not None:
        g_z, g_v = g_z + tik[0], g_v + tik[1]
    return GradientPair(g_z, g_v)


def loss(problem: Problem, z, v) -> tuple[float, float]:
    """Evaluate the objective; returns (J, L_eps)."""
    ev = _forward(problem, *_as_iterate(problem, z, v))
    return ev.J, ev.L_eps


def gradient(problem: Problem, z, v) -> GradientPair:
    """Wirtinger gradient of J, all regions reduced in listed order."""
    return _evaluate(problem, *_as_iterate(problem, z, v)).grad


def loss_and_gradient(problem: Problem, z, v) -> tuple[float, float, GradientPair]:
    """Fused evaluation sharing one forward transform; returns (J, L_eps, grad)."""
    ev = _evaluate(problem, *_as_iterate(problem, z, v))
    return ev.J, ev.L_eps, ev.grad


def _region(problem: Problem, offset) -> Problem:
    """The one-region problem whose objective is J_r: the region's
    measurement row and offset, the same eps, and alpha and beta scaled by
    p_r; an offset the problem does not measure raises ValueError."""
    row = problem.row(offset)
    share = float(problem.p[row])
    return Problem(y=problem.y[row:row + 1],
                   shifts=ShiftSet((problem.offsets[row],), problem.shifts.mode),
                   epsilon=problem.epsilon, alpha=share * problem.alpha,
                   beta=share * problem.beta, p=(1.0,))


def gradient_region(problem: Problem, z, v, r: int) -> GradientPair:
    """Gradient of the single-region objective J_r.

    J_r carries the region's data misfit plus its p_r share of the Tikhonov
    terms, so the full gradient is recovered exactly by summing over all
    regions in listed order.
    """
    return gradient(_region(problem, r), z, v)


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
