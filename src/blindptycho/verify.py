"""Independent oracles and inequality checkers.

Each checker samples random points, evaluates both sides of one of the
inequalities the step-size machinery relies on, and reports the worst
normalized slack.  A report passes when the worst slack stays above minus
the stated tolerance; slack is normalized by 1 + |bound side| so that the
tolerances are scale free.

The finite-difference gradient here is the ground truth the analytic
gradient is checked against: central differences in every real and
imaginary coordinate, assembled as (d/dRe + i d/dIm)/2.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .fourier import ShiftSet, q_apply
from .model import Problem, synthesize_problem
from .objective import (GradientPair, gradient, gradient_region, loss,
                        loss_and_gradient, stochastic_gradient_bounds)
from .rng import Rng
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
    return json.dumps([asdict(r) for r in reports], indent=2, allow_nan=False) + "\n"


def _report(name, samples, worst, tol, extra=""):
    detail = f"tolerance={tol:g} (relative slack)"
    if extra:
        detail += "; " + extra
    return CheckReport(name, samples, float(worst), bool(worst >= -tol), detail)


# ---------------------------------------------------------------------------
# finite-difference oracle

def fd_wirtinger_gradient(problem: Problem, z, v, h_step: float | None = None):
    """Central-difference Wirtinger gradient of J; requires epsilon > 0."""
    if problem.epsilon <= 0:
        raise ValueError("finite differences require epsilon > 0")
    z = np.asarray(z, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)

    def value(a, b):
        return loss(problem, a, b)[0]

    def fd_one(base, other, is_object, h):
        out = np.zeros(problem.d, dtype=np.complex128)
        for j in range(problem.d):
            for part, direction in ((1.0, 1.0), (1j, 1j)):
                plus = base.copy()
                minus = base.copy()
                plus[j] += h * direction
                minus[j] -= h * direction
                if is_object:
                    diff = (value(plus, other) - value(minus, other)) / (2.0 * h)
                else:
                    diff = (value(other, plus) - value(other, minus)) / (2.0 * h)
                if part == 1.0:
                    out[j] += 0.5 * diff
                else:
                    out[j] += 0.5j * diff
        return out

    h_z = h_step if h_step is not None else 1e-6 * (1.0 + float(np.max(np.abs(z), initial=0.0)))
    h_v = h_step if h_step is not None else 1e-6 * (1.0 + float(np.max(np.abs(v), initial=0.0)))
    return GradientPair(fd_one(z, v, True, h_z), fd_one(v, z, False, h_v))


def check_gradient_fd(problem: Problem, n_samples: int, rng: Rng,
                      tol: float = 1e-6) -> CheckReport:
    """Analytic gradient against the finite-difference oracle."""
    worst = np.inf
    for _ in range(n_samples):
        z = rng.complex_normal_vector(problem.d)
        v = rng.complex_normal_vector(problem.d)
        exact = gradient(problem, z, v)
        approx = fd_wirtinger_gradient(problem, z, v)
        scale = max(float(np.max(np.abs(exact.z))), float(np.max(np.abs(exact.v))), 1e-12)
        err = max(float(np.max(np.abs(exact.z - approx.z))),
                  float(np.max(np.abs(exact.v - approx.v)))) / scale
        worst = min(worst, -err)
    return _report("gradient_fd", n_samples, worst, tol)


# ---------------------------------------------------------------------------
# inequality checkers

def descent_upper_bound(problem: Problem, z, v, u, h) -> float:
    """Right-hand side of the quartic descent bound at (z + u, v + h)."""
    total, _, grad = loss_and_gradient(problem, z, v)
    d = problem.d
    nz2 = float(np.vdot(z, z).real)
    nv2 = float(np.vdot(v, v).real)
    nu2 = float(np.vdot(u, u).real)
    nh2 = float(np.vdot(h, h).real)
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
    worst = np.inf
    for _ in range(n_samples):
        z = scale * rng.complex_normal_vector(problem.d)
        v = scale * rng.complex_normal_vector(problem.d)
        u = scale * rng.complex_normal_vector(problem.d)
        h = scale * rng.complex_normal_vector(problem.d)
        rhs = descent_upper_bound(problem, z, v, u, h)
        lhs = loss(problem, z + u, v + h)[0]
        worst = min(worst, (rhs - lhs) / (1.0 + abs(rhs)))
    return _report("descent_lemma", n_samples, worst, tol,
                   extra=f"scale={scale:g}")


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
    worst = np.inf
    factor = 15.0 * problem.d / 4.0
    for _ in range(n_samples):
        z = rng.complex_normal_vector(problem.d)
        v = rng.complex_normal_vector(problem.d)
        drawn = sample_indices(problem, problem.batch_size, rng)
        g = stochastic_gradient(problem, z, v, drawn)
        b_z, b_v = stochastic_gradient_bounds(problem, z, v)
        gz, gv = g.norms()
        worst = min(worst, (b_z * b_z - factor * gz * gz) / (1.0 + b_z * b_z))
        worst = min(worst, (b_v * b_v - factor * gv * gv) / (1.0 + b_v * b_v))
    return _report("gradient_bounds", n_samples, worst, tol)


def check_bilinear_bound(d: int, shifts: ShiftSet, n_samples: int, rng: Rng,
                         tol: float = DEFAULT_TOL) -> CheckReport:
    """sum_{r,k} |q(z, v, r, k)|^2 <= d ||z||^2 ||v||^2, any shift mode."""
    shifts.validate_for_dim(d)
    worst = np.inf
    for _ in range(n_samples):
        z = rng.complex_normal_vector(d)
        v = rng.complex_normal_vector(d)
        total = 0.0
        for r in shifts.offsets:
            for k in range(d):
                total += abs(q_apply(z, v, r, k, shifts.mode)) ** 2
        bound = d * float(np.vdot(z, z).real) * float(np.vdot(v, v).real)
        worst = min(worst, (bound - total) / (1.0 + bound))
    return _report(f"bilinear_bound[{shifts.mode}]", n_samples, worst, tol)


def check_lipschitz(problem: Problem, n_samples: int, rng: Rng,
                    tol: float = DEFAULT_TOL) -> CheckReport:
    """Gradient difference bounded by the local smoothness constant."""
    if problem.epsilon <= 0:
        raise ValueError("the smoothness check requires epsilon > 0")
    eps = problem.epsilon
    d = problem.d
    ymass = np.sqrt(problem.y_total / d)
    peak = np.sqrt(float(np.max(problem.y)) + eps) / np.sqrt(eps)
    worst = np.inf
    for _ in range(n_samples):
        z1 = rng.complex_normal_vector(d)
        v1 = rng.complex_normal_vector(d)
        z2 = rng.complex_normal_vector(d)
        v2 = rng.complex_normal_vector(d)
        g1 = gradient(problem, z1, v1)
        g2 = gradient(problem, z2, v2)
        lhs = np.sqrt(float(np.vdot(g1.z - g2.z, g1.z - g2.z).real)
                      + float(np.vdot(g1.v - g2.v, g1.v - g2.v).real))
        norms = (float(np.vdot(z1, z1).real) + float(np.vdot(z2, z2).real)
                 + float(np.vdot(v1, v1).real) + float(np.vdot(v2, v2).real))
        smooth = d * (ymass + max(1.25, peak - 0.75) * norms)
        dist = np.sqrt(float(np.vdot(z1 - z2, z1 - z2).real)
                       + float(np.vdot(v1 - v2, v1 - v2).real))
        rhs = np.sqrt(2.0 * smooth * smooth
                      + 2.0 * max(problem.alpha, problem.beta) ** 2) * dist
        worst = min(worst, (rhs - lhs) / (1.0 + rhs))
    return _report("lipschitz", n_samples, worst, tol)


# ---------------------------------------------------------------------------
# suites

SUITES = ("gradient_fd", "descent", "unbiasedness", "gradient_bounds",
          "bilinear", "lipschitz")


def run_suite(names, problem: Problem | None = None, seed: int = 0,
              samples: int = 100) -> list[CheckReport]:
    """Run named checkers on a default-style instance."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if problem is None:
        problem = synthesize_problem(d=8, seed=seed, epsilon=1e-3)
    rng = Rng(seed + 1)
    reports = []
    for name in names:
        if name == "gradient_fd":
            reports.append(check_gradient_fd(problem, min(samples, 10), rng))
        elif name == "descent":
            for scale in (0.1, 1.0, 10.0):
                reports.append(check_descent_lemma(problem, samples, scale, rng))
        elif name == "unbiasedness":
            z = rng.complex_normal_vector(problem.d)
            v = rng.complex_normal_vector(problem.d)
            reports.append(check_unbiasedness(problem, z, v))
        elif name == "gradient_bounds":
            reports.append(check_gradient_bounds(problem, samples, rng))
        elif name == "bilinear":
            for mode in ("circular", "zero-padded"):
                shifts = ShiftSet(problem.offsets, mode)
                reports.append(check_bilinear_bound(problem.d, shifts,
                                                    min(samples, 25), rng))
        elif name == "lipschitz":
            reports.append(check_lipschitz(problem, samples, rng))
        else:
            raise ValueError(f"unknown check suite: {name!r}")
    return reports
