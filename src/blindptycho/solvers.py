"""Iteration schemes: joint gradient descent, stochastic gradient descent,
the ptychographic iterative engine, and interval descent.

All four solvers share the same trace schema (one row per visited iterate,
plus a closing row for the final iterate with zero step sizes) and are
bit-reproducible from (problem, initial pair, config): stochastic solvers
own a fresh ``Rng(config.seed)``.  sgd and epie steps reuse their regions'
rows of the iteration's full evaluation (the trace monitor).

Step-size policies:

* gd:        mu_t = nu_t = min( 1/B,  (15d/4)^(-1/3) ||g_z||^(-2/3),
                                 (15d/4)^(-1/3) ||g_v||^(-2/3) ),
  where B is the joint curvature bound; "cap" mode scales the minimum by
  user factors <= 1.  A vanished branch (zero gradient or zero bound) is
  treated as +infinity, i.e. dropped from the minimum.
* sgd:       mu_t = mu * m_t and nu_t = nu * m_t with
  m_t = min( (1+t)^(kappa-1) B^(-1/(1-theta)), b_z^(-2/(3-theta)),
             b_v^(-2/(3-theta)), (1 - 1/K)^(-1/theta) );
  the last branch enforces m_t^theta (1 - 1/K) <= 1 and is dropped when
  K = 1 (it is infinite) or theta = 0 (the condition it guards is vacuous).
* epie:      magnitude projection of one region's exit wave followed by the
  decoupling updates with factors alpha_t / ||v||_inf^2, beta_t / ||z||_inf^2.
  With uniform sampling, K = 1, eps = 0 and no Tikhonov terms, it coincides
  with sgd under the mapping mu_t = alpha_t p_r / (d ||v||_inf^2).
* interval:  minimize J over a gamma grid on the segment between the two
  single-variable endpoint updates z - (1/L) grad_z J and v - (1/L) grad_v J.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .formatting import g17
# dft, gradient_region and loss_and_gradient are not called here but stay
# bound: perfbench/tracing.py wraps them under these names.
from .fourier import dft, idft, shift  # noqa: F401
from .model import Problem
from .objective import (GradientPair, _evaluate, _gradient, gradient_region,  # noqa: F401
                        loss, loss_and_gradient, partial_lipschitz,
                        step_curvature_bound, stochastic_gradient_bounds)
from .rng import Rng

ALGORITHMS = ("gd", "sgd", "epie", "interval")
TRACE_HEADER = "t,J,L_eps,grad_z_norm,grad_v_norm,mu_t,nu_t,wall_ns"


class DivergenceError(RuntimeError):
    """Raised when a run produces non-finite or degenerate iterates; ``run``
    holds the trace and iterates before it and the iterate it failed at."""

    def __init__(self, message: str, run: SolverRun):
        super().__init__(message)
        self.run = run


@dataclass
class SolverConfig:
    algorithm: str = "gd"
    max_iters: int = 100
    seed: int = 0
    grad_tol: float = 0.0
    # gd
    step_mode: str = "rate"            # "rate": exact minimum; "cap": scaled
    # sgd
    theta: float = 0.5
    kappa: float = 0.2
    mu: float = 1.0
    nu: float = 1.0
    sgd_step_rule: str = "bounded"     # "bounded" or "epie_scaled"
    # epie
    epie_alpha: float = 1.0
    epie_beta: float = 1.0
    epie_schedule: str = "iid"         # "iid" or "shuffled"
    # interval
    gamma_grid: int = 2
    # diagnostics
    record_iterates: bool = False

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {self.algorithm!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be >= 0")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")
        if not (0.0 < self.mu <= 1.0 and 0.0 < self.nu <= 1.0):
            raise ValueError("mu and nu must lie in (0, 1]")
        if self.step_mode not in ("rate", "cap"):
            raise ValueError(f"unknown step_mode: {self.step_mode!r}")
        if self.sgd_step_rule not in ("bounded", "epie_scaled"):
            raise ValueError(f"unknown sgd_step_rule: {self.sgd_step_rule!r}")
        if self.epie_schedule not in ("iid", "shuffled"):
            raise ValueError(f"unknown epie_schedule: {self.epie_schedule!r}")
        if self.algorithm == "sgd" and self.sgd_step_rule == "bounded":
            if self.theta <= 0.0:
                raise ValueError("sgd with bounded steps requires theta > 0")
            if self.kappa < 0.0:
                raise ValueError("sgd with bounded steps requires kappa >= 0")
            if self.kappa >= self.theta / (1.0 + self.theta):
                raise ValueError("kappa must be below theta / (1 + theta)")
        if self.algorithm == "epie" and (self.epie_alpha <= 0 or self.epie_beta <= 0):
            raise ValueError("epie step factors must be positive")
        if self.gamma_grid < 2:
            raise ValueError("gamma_grid must be >= 2")


@dataclass
class TraceRecord:
    """Per-iteration scalars; the closing row carries zero step sizes."""

    t: int
    J: float
    L_eps: float
    grad_z_norm: float
    grad_v_norm: float
    mu_t: float
    nu_t: float
    wall_ns: int


@dataclass
class IntervalStep:
    """Diagnostics of one interval-descent iteration.

    Each endpoint guarantees a decrease of at least ``||g||^2 / L``, with
    ``L`` the curvature its own update divides by.  The selected step beats
    the better endpoint, so it decreases the loss by at least the average
    of the two endpoint guarantees, i.e. half their sum: ``bound_matched``.
    ``bound_crossed`` exchanges the two curvatures; it is not implied by
    the endpoint guarantees and is recorded only for comparison.
    """

    gamma: float
    loss_object_endpoint: float   # gamma = 1: full object step
    loss_window_endpoint: float   # gamma = 0: full window step
    loss_selected: float
    decrease: float
    bound_matched: float
    bound_crossed: float


@dataclass
class SolverRun:
    z: np.ndarray
    v: np.ndarray
    trace: list[TraceRecord] = field(default_factory=list)
    iterates: list[tuple[np.ndarray, np.ndarray]] | None = None
    interval_steps: list[IntervalStep] | None = None


def _start_state(problem: Problem, z0, v0, config: SolverConfig):
    """Starting pair, empty trace and, when recorded, the iterate list."""
    z = np.array(z0, dtype=np.complex128)
    v = np.array(v0, dtype=np.complex128)
    if z.shape != (problem.d,) or v.shape != (problem.d,):
        raise ValueError("starting pair must be 1-d arrays of length d")
    iterates = [(z.copy(), v.copy())] if config.record_iterates else None
    return z, v, [], iterates


def _checked_eval(problem, z, v, t, trace, iterates):
    """Full evaluation (the trace monitor) with its per-row arrays."""
    ev = _evaluate(problem, z, v)
    if not np.isfinite(ev.J) or not np.all(np.isfinite(ev.grad.z)) \
            or not np.all(np.isfinite(ev.grad.v)):
        raise DivergenceError(f"non-finite loss or gradient at iteration {t}",
                              SolverRun(z, v, trace, iterates))
    return ev


def _close(problem, z, v, t, trace, iterates, start) -> None:
    """Append the closing row: the final iterate with zero step sizes."""
    ev = _checked_eval(problem, z, v, t, trace, iterates)
    gz, gv = ev.grad.norms()
    trace.append(TraceRecord(t, ev.J, ev.L_eps, gz, gv, 0.0, 0.0,
                             time.monotonic_ns() - start))


# ---------------------------------------------------------------------------
# gradient descent

def gd_step_sizes(problem: Problem, z, v, grad: GradientPair,
                  step_mode: str = "rate", mu: float = 1.0,
                  nu: float = 1.0) -> tuple[float, float]:
    """Joint-descent step sizes; infinite branches drop out of the minimum."""
    bound = step_curvature_bound(problem, z, v)
    gz, gv = grad.norms()
    scale = (15.0 * problem.d / 4.0) ** (-1.0 / 3.0)
    candidates = []
    if bound > 0:
        candidates.append(1.0 / bound)
    if gz > 0:
        candidates.append(scale * gz ** (-2.0 / 3.0))
    if gv > 0:
        candidates.append(scale * gv ** (-2.0 / 3.0))
    m = min(candidates) if candidates else 0.0
    if step_mode == "cap":
        return mu * m, nu * m
    return m, m


def run_gd(problem: Problem, z0, v0, config: SolverConfig) -> SolverRun:
    config.validate()
    z, v, trace, iterates = _start_state(problem, z0, v0, config)
    start = time.monotonic_ns()
    for t in range(config.max_iters):
        ev = _checked_eval(problem, z, v, t, trace, iterates)
        gz, gv = ev.grad.norms()
        mu_t, nu_t = gd_step_sizes(problem, z, v, ev.grad, config.step_mode,
                                   config.mu, config.nu)
        if config.grad_tol > 0 and np.hypot(gz, gv) <= config.grad_tol:
            trace.append(TraceRecord(t, ev.J, ev.L_eps, gz, gv, 0.0, 0.0,
                                     time.monotonic_ns() - start))
            break
        trace.append(TraceRecord(t, ev.J, ev.L_eps, gz, gv, mu_t, nu_t,
                                 time.monotonic_ns() - start))
        z = z - mu_t * ev.grad.z
        v = v - nu_t * ev.grad.v
        if iterates is not None:
            iterates.append((z.copy(), v.copy()))
    else:
        _close(problem, z, v, config.max_iters, trace, iterates, start)
    return SolverRun(z, v, trace, iterates)


# ---------------------------------------------------------------------------
# stochastic gradient descent

def _sampling_table(p, offsets):
    """Check p and build its inverse-CDF table over ascending offsets: the
    positions that sort the offsets, and the cumulative sums of p in them."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (len(offsets),):
        raise ValueError("p must have one entry per offset")
    if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-12:
        raise ValueError("p must be a probability vector")
    order = np.array(sorted(range(len(offsets)), key=offsets.__getitem__),
                     dtype=np.intp)
    return order, np.cumsum(p[order])


def _draw_rows(table, k: int, rng: Rng) -> np.ndarray:
    """k i.i.d. positions into the offsets, one ``rng.uniform()`` each."""
    order, cum = table
    u = [rng.uniform() for _ in range(k)]
    idx = np.searchsorted(cum, u, side="right")
    return order[np.minimum(idx, len(order) - 1)]


def sample_indices(p: np.ndarray, offsets, k: int, rng: Rng) -> list[int]:
    """Draw k offsets i.i.d. by inverse CDF over ascending offsets."""
    offsets = tuple(offsets)
    return [offsets[i] for i in _draw_rows(_sampling_table(p, offsets), k, rng)]


def _importance_weights(problem: Problem, rows: np.ndarray) -> np.ndarray:
    return 1.0 / (len(rows) * problem.p[rows])


def stochastic_gradient(problem: Problem, z, v, indices) -> GradientPair:
    """Importance-weighted average of the sampled single-region gradients:
    (1/K) sum_k (1 / p_{r_k}) grad J_{r_k}, from one batched evaluation."""
    rows = np.array([problem.offset_row[r] for r in indices], dtype=np.intp)
    if rows.size == 0:
        raise ValueError("indices must contain at least one offset")
    return _evaluate(problem, z, v, rows, _importance_weights(problem, rows)).grad


def sgd_max_step(problem: Problem, z, v, t: int, theta: float, kappa: float,
                 k: int) -> float:
    """Largest admissible SGD step at iteration t (see module docstring)."""
    bound = step_curvature_bound(problem, z, v)
    b_z, b_v = stochastic_gradient_bounds(problem, z, v)
    candidates = []
    if bound > 0:
        candidates.append((1.0 + t) ** (-1.0 + kappa) * bound ** (-1.0 / (1.0 - theta)))
    if b_z > 0:
        candidates.append(b_z ** (-2.0 / (3.0 - theta)))
    if b_v > 0:
        candidates.append(b_v ** (-2.0 / (3.0 - theta)))
    if k > 1 and theta > 0:
        candidates.append((1.0 - 1.0 / k) ** (-1.0 / theta))
    return min(candidates) if candidates else 0.0


def _sup_sq(z, v, t, trace, iterates) -> tuple[float, float]:
    """(||v||_inf^2, ||z||_inf^2), the engine's step denominators."""
    linf_v, linf_z = float(np.max(np.abs(v))), float(np.max(np.abs(z)))
    if linf_v == 0.0 or linf_z == 0.0:
        raise DivergenceError(f"epie step undefined at iteration {t}: zero iterate",
                              SolverRun(z, v, trace, iterates))
    return linf_v ** 2, linf_z ** 2


def run_sgd(problem: Problem, z0, v0, config: SolverConfig) -> SolverRun:
    config.validate()
    if config.sgd_step_rule == "epie_scaled" and problem.batch_size != 1:
        raise ValueError("epie_scaled steps require batch_size 1")
    z, v, trace, iterates = _start_state(problem, z0, v0, config)
    rng = Rng(config.seed)
    table = _sampling_table(problem.p, problem.offsets)
    start = time.monotonic_ns()
    for t in range(config.max_iters):
        ev = _checked_eval(problem, z, v, t, trace, iterates)
        gz, gv = ev.grad.norms()
        rows = _draw_rows(table, problem.batch_size, rng)
        # the step reuses the monitor's rows: no transform of its own
        g = _gradient(problem, z, v, ev.windows[rows], ev.back[rows], rows,
                      _importance_weights(problem, rows))
        if config.sgd_step_rule == "bounded":
            m = sgd_max_step(problem, z, v, t, config.theta, config.kappa,
                             problem.batch_size)
            mu_t = config.mu * m
            nu_t = config.nu * m
        else:
            sq_v, sq_z = _sup_sq(z, v, t, trace, iterates)
            share = float(problem.p[rows[0]])
            mu_t = config.epie_alpha * share / (problem.d * sq_v)
            nu_t = config.epie_beta * share / (problem.d * sq_z)
        trace.append(TraceRecord(t, ev.J, ev.L_eps, gz, gv, mu_t, nu_t,
                                 time.monotonic_ns() - start))
        z = z - mu_t * g.z
        v = v - nu_t * g.v
        if iterates is not None:
            iterates.append((z.copy(), v.copy()))
    _close(problem, z, v, config.max_iters, trace, iterates, start)
    return SolverRun(z, v, trace, iterates)


# ---------------------------------------------------------------------------
# ptychographic iterative engine

def run_epie(problem: Problem, z0, v0, config: SolverConfig) -> SolverRun:
    config.validate()
    z, v, trace, iterates = _start_state(problem, z0, v0, config)
    rng = Rng(config.seed)
    table = _sampling_table(problem.p, problem.offsets)
    mode = problem.shifts.mode
    schedule: list[int] = []
    start = time.monotonic_ns()
    for t in range(config.max_iters):
        ev = _checked_eval(problem, z, v, t, trace, iterates)
        gz, gv = ev.grad.norms()
        if config.epie_schedule == "iid":
            row = int(_draw_rows(table, 1, rng)[0])
        else:
            if not schedule:
                schedule = list(range(problem.n_regions))
                rng.shuffle(schedule)
            row = schedule.pop()
        sq_v, sq_z = _sup_sq(z, v, t, trace, iterates)
        # the monitor's row equals shift and dft of this region bit for bit
        sv = ev.windows[row]
        exit_wave = z * sv
        spectrum = ev.spectrum[row]
        # magnitude via |.|^2 then sqrt to match the forward-model path bit
        # for bit; coefficients at exactly zero stay zero after correction
        mag = np.sqrt(np.abs(spectrum) ** 2)
        scale = np.divide(np.sqrt(problem.y[row]), mag,
                          out=np.zeros_like(mag), where=mag > 1e-300)
        corrected = scale * spectrum
        delta = idft(corrected) - exit_wave
        share = float(problem.p[row])
        mu_t = config.epie_alpha * share / (problem.d * sq_v)
        nu_t = config.epie_beta * share / (problem.d * sq_z)
        trace.append(TraceRecord(t, ev.J, ev.L_eps, gz, gv, mu_t, nu_t,
                                 time.monotonic_ns() - start))
        r = problem.offsets[row]
        z_new = z + config.epie_alpha * np.conj(sv) * delta / sq_v
        v_new = v + config.epie_beta * shift(np.conj(z) * delta, -r, mode) / sq_z
        z, v = z_new, v_new
        if iterates is not None:
            iterates.append((z.copy(), v.copy()))
    _close(problem, z, v, config.max_iters, trace, iterates, start)
    return SolverRun(z, v, trace, iterates)


# ---------------------------------------------------------------------------
# interval descent

def run_interval(problem: Problem, z0, v0, config: SolverConfig) -> SolverRun:
    config.validate()
    if problem.alpha <= 0 or problem.beta <= 0:
        raise ValueError("interval descent requires positive Tikhonov weights")
    z, v, trace, iterates = _start_state(problem, z0, v0, config)
    gammas = np.linspace(0.0, 1.0, config.gamma_grid)
    steps: list[IntervalStep] = []
    start = time.monotonic_ns()
    for t in range(config.max_iters):
        ev = _checked_eval(problem, z, v, t, trace, iterates)
        gz, gv = ev.grad.norms()
        object_curv, window_curv = partial_lipschitz(problem, z, v)
        dz = ev.grad.z / object_curv
        dv = ev.grad.v / window_curv
        values = [loss(problem, z - g * dz, v - (1.0 - g) * dv)[0] for g in gammas]
        best = int(np.argmin(values))
        gamma = float(gammas[best])
        steps.append(IntervalStep(
            gamma=gamma,
            loss_object_endpoint=values[-1],
            loss_window_endpoint=values[0],
            loss_selected=values[best],
            decrease=ev.J - values[best],
            bound_matched=0.5 * gz * gz / object_curv + 0.5 * gv * gv / window_curv,
            bound_crossed=0.5 * gz * gz / window_curv + 0.5 * gv * gv / object_curv,
        ))
        trace.append(TraceRecord(t, ev.J, ev.L_eps, gz, gv,
                                 gamma / object_curv, (1.0 - gamma) / window_curv,
                                 time.monotonic_ns() - start))
        z = z - gamma * dz
        v = v - (1.0 - gamma) * dv
        if iterates is not None:
            iterates.append((z.copy(), v.copy()))
    _close(problem, z, v, config.max_iters, trace, iterates, start)
    return SolverRun(z, v, trace, iterates, steps)


# ---------------------------------------------------------------------------

_RUNNERS = {"gd": run_gd, "sgd": run_sgd, "epie": run_epie, "interval": run_interval}


def run(problem: Problem, z0, v0, config: SolverConfig) -> SolverRun:
    config.validate()
    return _RUNNERS[config.algorithm](problem, z0, v0, config)


def trace_to_csv(trace: list[TraceRecord]) -> str:
    lines = [TRACE_HEADER]
    for r in trace:
        lines.append(",".join([
            str(r.t), g17(r.J), g17(r.L_eps), g17(r.grad_z_norm),
            g17(r.grad_v_norm), g17(r.mu_t), g17(r.nu_t), str(r.wall_ns),
        ]))
    return "\n".join(lines) + "\n"


def write_trace(path, trace: list[TraceRecord]) -> None:
    with open(path, "w") as fh:
        fh.write(trace_to_csv(trace))


def read_trace(path) -> list[TraceRecord]:
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header: {header!r}")
        for line in fh:
            parts = line.strip().split(",")
            records.append(TraceRecord(
                int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]),
                float(parts[4]), float(parts[5]), float(parts[6]), int(parts[7])))
    return records
