"""Independent oracles and inequality checkers.

Each checker samples random points, evaluates both sides of one of the
inequalities the step-size machinery relies on, and reports the worst
normalized slack.  A report passes when the worst slack stays above minus
the stated tolerance; slack is normalized by 1 + |bound side| so that the
tolerances are scale free.

The finite-difference gradient here is the ground truth the analytic
gradient is checked against: central differences in every real and
imaginary coordinate, assembled as (d/dRe + i d/dIm)/2.

``run_suite`` runs suites by name from one table, in the order of
``SUITES``: gradient_fd (at most 10 points), descent (scales 0.1, 1, 10),
unbiasedness, gradient_bounds, bilinear (circular and zero-padded, at most
25 points) and lipschitz.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .fourier import ShiftSet, q_apply
from .model import Problem, synthesize_problem
from .objective import (GradientPair, _sq_norm, gradient, gradient_region, loss,
                        loss_and_gradient, stochastic_gradient_bounds)
from .rng import Rng, _count
from .solvers import sample_indices, stochastic_gradient

DEFAULT_TOL = 1e-9


@dataclass
class CheckReport:
    name: str
    samples: int
    worst_slack: float
    passed: bool
    detail: str


def reports_to_json(reports: list[CheckReport]) -> str:
    """The reports as a JSON list; a worst slack that is not finite (NaN
    when a sample could not be evaluated) is written as null."""
    docs = [asdict(r) for r in reports]
    for doc in docs:
        if not math.isfinite(doc["worst_slack"]):
            doc["worst_slack"] = None
    return json.dumps(docs, indent=2, allow_nan=False) + "\n"


def _report(name, samples, worst, tol, extra=""):
    detail = f"tolerance={tol:g} (relative slack)" + (f"; {extra}" if extra else "")
    return CheckReport(name, samples, float(worst), bool(worst >= -tol), detail)


def _sampled(name, n_samples, slack, tol, extra=""):
    """Report the worst of ``slack()`` over n_samples calls, each of which
    draws its own point.  A NaN slack (a side that could not be evaluated)
    is the worst of all, so the check fails.  Fewer than one sample would
    check nothing, so it is rejected."""
    n_samples = _count(n_samples, "n_samples")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1: {n_samples!r}")
    worst = np.min([slack() for _ in range(n_samples)], initial=np.inf)
    return _report(name, n_samples, worst, tol, extra)


# ---------------------------------------------------------------------------
# finite-difference oracle

def fd_wirtinger_gradient(problem: Problem, z, v, h_step: float | None = None):
    """Central-difference Wirtinger gradient of J; requires epsilon > 0."""
    if problem.epsilon <= 0:
        raise ValueError("finite differences require epsilon > 0")
    z, v = (np.asarray(a, dtype=np.complex128) for a in (z, v))

    def fd_one(base, value):
        h = h_step if h_step is not None else \
            1e-6 * (1.0 + float(np.max(np.abs(base), initial=0.0)))
        out = np.zeros(problem.d, dtype=np.complex128)
        for j in range(problem.d):
            for direction in (1.0, 1j):
                plus, minus = base.copy(), base.copy()
                plus[j] += h * direction
                minus[j] -= h * direction
                diff = (value(plus) - value(minus)) / (2.0 * h)
                out[j] += 0.5 * direction * diff
        return out

    return GradientPair(fd_one(z, lambda a: loss(problem, a, v)[0]),
                        fd_one(v, lambda b: loss(problem, z, b)[0]))


def check_gradient_fd(problem: Problem, n_samples: int, rng: Rng,
                      tol: float = 1e-6) -> CheckReport:
    """Analytic gradient against the finite-difference oracle."""
    def slack():
        z = rng.complex_normal_vector(problem.d)
        v = rng.complex_normal_vector(problem.d)
        exact = gradient(problem, z, v)
        approx = fd_wirtinger_gradient(problem, z, v)
        scale = max(float(np.max(np.abs(exact.z))), float(np.max(np.abs(exact.v))), 1e-12)
        return -(max(float(np.max(np.abs(exact.z - approx.z))),
                     float(np.max(np.abs(exact.v - approx.v)))) / scale)
    return _sampled("gradient_fd", n_samples, slack, tol)


# ---------------------------------------------------------------------------
# inequality checkers

def descent_upper_bound(problem: Problem, z, v, u, h) -> float:
    """Right-hand side of the quartic descent bound at (z + u, v + h)."""
    total, _, grad = loss_and_gradient(problem, z, v)
    d = problem.d
    nz2, nv2, nu2, nh2 = map(_sq_norm, (z, v, u, h))
    ymass = np.sqrt(problem.y_total / d)
    rhs = total + 2.0 * float(np.vdot(u, grad.z).real) \
        + 2.0 * float(np.vdot(h, grad.v).real)
    rhs += nu2 * (problem.alpha + d * ((10.0 / 3.0) * nv2 + 1.25 * nh2
                                       + (2.0 / 3.0) * nz2 + 0.25 * nu2 + ymass))
    rhs += nh2 * (problem.beta + d * ((10.0 / 3.0) * nz2 + 1.25 * nu2
                                      + (2.0 / 3.0) * nv2 + 0.25 * nh2 + ymass))
    return rhs


def check_descent_lemma(problem: Problem, n_samples: int, scale: float,
                        rng: Rng, tol: float = DEFAULT_TOL) -> CheckReport:
    """J(z+u, v+h) never exceeds the quartic upper expansion around (z, v)."""
    def slack():
        z, v, u, h = (scale * rng.complex_normal_vector(problem.d) for _ in range(4))
        rhs = descent_upper_bound(problem, z, v, u, h)
        return (rhs - loss(problem, z + u, v + h)[0]) / (1.0 + abs(rhs))
    return _sampled("descent_lemma", n_samples, slack, tol, extra=f"scale={scale:g}")


def check_unbiasedness(problem: Problem, z, v, tol: float = 1e-12) -> CheckReport:
    """Full enumeration sum_r p_r (1/p_r) grad J_r equals the gradient."""
    g_z = np.zeros(problem.d, dtype=np.complex128)
    g_v = np.zeros(problem.d, dtype=np.complex128)
    for i, r in enumerate(problem.offsets):
        part = gradient_region(problem, z, v, r)
        weight = float(problem.p[i]) * (1.0 / float(problem.p[i]))
        g_z = g_z + weight * part.z
        g_v = g_v + weight * part.v
    exact = gradient(problem, z, v)
    scale = 1.0 + max(float(np.max(np.abs(exact.z))), float(np.max(np.abs(exact.v))))
    dev = max(float(np.max(np.abs(g_z - exact.z))),
              float(np.max(np.abs(g_v - exact.v)))) / scale
    return _report("unbiasedness", len(problem.offsets), -dev, tol)


def check_gradient_bounds(problem: Problem, n_samples: int, rng: Rng,
                          tol: float = DEFAULT_TOL) -> CheckReport:
    """(15 d / 4) ||g||^2 stays below the deterministic envelopes squared."""
    factor = 15.0 * problem.d / 4.0

    def slack():
        z = rng.complex_normal_vector(problem.d)
        v = rng.complex_normal_vector(problem.d)
        drawn = sample_indices(problem, problem.batch_size, rng)
        gz, gv = stochastic_gradient(problem, z, v, drawn).norms()
        b_z, b_v = stochastic_gradient_bounds(problem, z, v)
        return min((b_z * b_z - factor * gz * gz) / (1.0 + b_z * b_z),
                   (b_v * b_v - factor * gv * gv) / (1.0 + b_v * b_v))
    return _sampled("gradient_bounds", n_samples, slack, tol)


def check_bilinear_bound(d: int, shifts: ShiftSet, n_samples: int, rng: Rng,
                         tol: float = DEFAULT_TOL) -> CheckReport:
    """sum_{r,k} |q(z, v, r, k)|^2 <= d ||z||^2 ||v||^2, any shift mode."""
    shifts.validate_for_dim(d)

    def slack():
        z = rng.complex_normal_vector(d)
        v = rng.complex_normal_vector(d)
        total = 0.0
        for r in shifts.offsets:
            for k in range(d):
                total += abs(q_apply(z, v, r, k, shifts.mode)) ** 2
        bound = d * _sq_norm(z) * _sq_norm(v)
        return (bound - total) / (1.0 + bound)
    return _sampled(f"bilinear_bound[{shifts.mode}]", n_samples, slack, tol)


def check_lipschitz(problem: Problem, n_samples: int, rng: Rng,
                    tol: float = DEFAULT_TOL) -> CheckReport:
    """Gradient difference bounded by the local smoothness constant."""
    if problem.epsilon <= 0:
        raise ValueError("the smoothness check requires epsilon > 0")
    eps = problem.epsilon
    d = problem.d
    ymass = np.sqrt(problem.y_total / d)
    peak = np.sqrt(float(np.max(problem.y)) + eps) / np.sqrt(eps)

    def slack():
        z1, v1, z2, v2 = (rng.complex_normal_vector(d) for _ in range(4))
        g1 = gradient(problem, z1, v1)
        g2 = gradient(problem, z2, v2)
        lhs = np.sqrt(_sq_norm(g1.z - g2.z) + _sq_norm(g1.v - g2.v))
        norms = _sq_norm(z1) + _sq_norm(z2) + _sq_norm(v1) + _sq_norm(v2)
        smooth = d * (ymass + max(1.25, peak - 0.75) * norms)
        dist = np.sqrt(_sq_norm(z1 - z2) + _sq_norm(v1 - v2))
        rhs = np.sqrt(2.0 * smooth * smooth
                      + 2.0 * max(problem.alpha, problem.beta) ** 2) * dist
        return (rhs - lhs) / (1.0 + rhs)
    return _sampled("lipschitz", n_samples, slack, tol)


# ---------------------------------------------------------------------------
# suites

# suite name -> (problem, rng, samples) -> its reports, in the order they run
_SUITES = {
    "gradient_fd": lambda problem, rng, n: [check_gradient_fd(problem, min(n, 10), rng)],
    "descent": lambda problem, rng, n: [check_descent_lemma(problem, n, scale, rng)
                                        for scale in (0.1, 1.0, 10.0)],
    "unbiasedness": lambda problem, rng, n: [check_unbiasedness(
        problem, rng.complex_normal_vector(problem.d), rng.complex_normal_vector(problem.d))],
    "gradient_bounds": lambda problem, rng, n: [check_gradient_bounds(problem, n, rng)],
    "bilinear": lambda problem, rng, n: [
        check_bilinear_bound(problem.d, ShiftSet(problem.offsets, mode), min(n, 25), rng)
        for mode in ("circular", "zero-padded")],
    "lipschitz": lambda problem, rng, n: [check_lipschitz(problem, n, rng)],
}
SUITES = tuple(_SUITES)


def run_suite(names, problem: Problem | None = None, seed: int = 0,
              samples: int = 100) -> list[CheckReport]:
    """Run named checkers on a default-style instance; an unknown name is
    rejected before any check runs."""
    samples = _count(samples, "samples")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    try:
        suites = [_SUITES[name] for name in names]
    except KeyError as exc:
        raise ValueError(f"unknown check suite: {exc.args[0]!r}") from None
    seed = _count(seed, "seed")
    if problem is None:
        problem = synthesize_problem(d=8, seed=seed, epsilon=1e-3)
    rng = Rng(seed + 1)
    return [report for suite in suites for report in suite(problem, rng, samples)]
