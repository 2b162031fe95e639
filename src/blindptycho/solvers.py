"""Iteration schemes: joint gradient descent, stochastic gradient descent,
the ptychographic iterative engine, and interval descent.

``run`` is the one solver loop; its SolverConfig was checked when built.  At
each t it evaluates the iterate in full (the trace monitor; a non-finite
loss or gradient norm raises DivergenceError).  At t = max_iters, or once
grad_tol > 0 and ||grad J|| <= grad_tol, it writes a closing row with zero
step sizes and stops; otherwise it writes the row of
``step(z, v, t, ev, gz, gv) -> (z_new, v_new, mu_t, nu_t)`` and moves on.
The factories ``_gd/_sgd/_epie/_interval(problem, config)`` check the
problem, build the algorithm's state and return (step, interval_steps or
None).  ``ev`` is the monitor's evaluation, whose rows the sgd and epie
steps reuse, and (gz, gv) its gradient norms.  A step raises DivergenceError
on a degenerate iterate and ``run`` attaches the partial run.  Stochastic
solvers own a fresh ``Rng(config.seed)``, so runs are bit-reproducible from
(problem, initial pair, config).

Step-size policies:

* gd:        mu_t = mu * m_t and nu_t = nu * m_t with
  m_t = min( 1/B,  (15d/4)^(-1/3) ||g_z||^(-2/3),  (15d/4)^(-1/3) ||g_v||^(-2/3) ),
  where B is the joint curvature bound and mu, nu in (0, 1] (default 1).
  Here and in sgd, ``_branch_min`` drops a vanished branch (zero gradient,
  bound or envelope) as +infinity; m_t = 0 when every branch vanished.
* sgd:       mu_t = mu * m_t and nu_t = nu * m_t with
  m_t = min( (1+t)^(kappa-1) B^(-1/(1-theta)), b_z^(-2/(3-theta)),
             b_v^(-2/(3-theta)), (1 - 1/K)^(-1/theta) ), K the batch size;
  the last branch enforces m_t^theta (1 - 1/K) <= 1 and is dropped when
  K = 1 (it is infinite) or theta = 0 (the condition it guards is vacuous).
  These steps certify convergence but barely move J; the practical
  stochastic path is ``sgd_step_rule="epie_scaled"`` (the engine's steps).
* epie:      magnitude projection of one region's exit wave followed by the
  decoupling updates with factors alpha_t / ||v||_inf^2, beta_t / ||z||_inf^2.
  With uniform sampling, K = 1, eps = 0 and no Tikhonov terms, it coincides
  with sgd under the mapping mu_t = alpha_t p_r / (d ||v||_inf^2).
* interval:  minimize J over a gamma grid on the segment between the two
  single-variable endpoint updates z - (1/L) grad_z J and v - (1/L) grad_v J.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from .formatting import cell
# dft, gradient_region and loss_and_gradient are not called here but stay
# bound: perfbench/tracing.py wraps them under these names.
from .fourier import dft, idft, shift  # noqa: F401
from .model import Problem, _require_integers
from .objective import (_TINY, GradientPair, _evaluate, _gradient,  # noqa: F401
                        gradient_region, loss, loss_and_gradient, partial_lipschitz,
                        step_curvature_bound, stochastic_gradient_bounds)
from .rng import Rng

ALGORITHMS = ("gd", "sgd", "epie", "interval")


class DivergenceError(RuntimeError):
    """Raised when a run produces non-finite or degenerate iterates; ``run``
    holds the trace and iterates before it and the iterate it failed at
    (the solver loop attaches it)."""

    def __init__(self, message: str, run: SolverRun | None = None):
        super().__init__(message)
        self.run = run


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings, each range checked when built whatever the algorithm."""

    algorithm: str = "gd"
    max_iters: int = 100
    seed: int = 0
    grad_tol: float = 0.0
    # sgd
    theta: float = 0.5
    kappa: float = 0.2
    # gd and bounded sgd: factors on the certified step
    mu: float = 1.0
    nu: float = 1.0
    sgd_step_rule: str = "bounded"
    # epie, and sgd with epie_scaled steps
    epie_alpha: float = 1.0
    epie_beta: float = 1.0
    epie_schedule: str = "iid"
    # interval
    gamma_grid: int = 2
    # diagnostics
    record_iterates: bool = False

    CHOICES: ClassVar[dict[str, tuple[str, ...]]] = {
        "algorithm": ALGORITHMS, "sgd_step_rule": ("bounded", "epie_scaled"),
        "epie_schedule": ("iid", "shuffled")}

    def __post_init__(self):
        for name, allowed in self.CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name}: {getattr(self, name)!r}")
        _require_integers(self, "max_iters", "seed", "gamma_grid")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        for name in ("grad_tol", "theta", "kappa", "mu", "nu", "epie_alpha",
                     "epie_beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be >= 0")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not 0.0 <= self.kappa < self.theta / (1.0 + self.theta):
            raise ValueError("kappa must lie in [0, theta / (1 + theta))")
        if not (0.0 < self.mu <= 1.0 and 0.0 < self.nu <= 1.0):
            raise ValueError("mu and nu must lie in (0, 1]")
        if self.epie_alpha <= 0 or self.epie_beta <= 0:
            raise ValueError("epie_alpha and epie_beta must be positive")
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


TRACE_HEADER = ",".join(f.name for f in fields(TraceRecord))
_TRACE_ROW = ",".join(map(cell, fields(TraceRecord)))


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


def run(problem: Problem, z0, v0, config: SolverConfig) -> SolverRun:
    """The solver loop shared by every algorithm (see module docstring)."""
    z = np.array(z0, dtype=np.complex128)
    v = np.array(v0, dtype=np.complex128)
    if z.shape != (problem.d,) or v.shape != (problem.d,):
        raise ValueError("starting pair must be 1-d arrays of length d")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(v))):
        raise ValueError("starting pair must be finite")
    step, interval_steps = _FACTORIES[config.algorithm](problem, config)
    trace: list[TraceRecord] = []
    iterates = [(z.copy(), v.copy())] if config.record_iterates else None
    start = time.monotonic_ns()
    for t in range(config.max_iters + 1):
        try:
            ev = _evaluate(problem, z, v)
            gz, gv = ev.grad.norms()
            # a non-finite gradient entry makes its norm non-finite
            if not (np.isfinite(ev.J) and np.isfinite(gz) and np.isfinite(gv)):
                raise DivergenceError(f"non-finite loss or gradient at iteration {t}")
            last = t == config.max_iters or \
                (config.grad_tol > 0 and np.hypot(gz, gv) <= config.grad_tol)
            z_new, v_new, mu_t, nu_t = (z, v, 0.0, 0.0) if last else \
                step(z, v, t, ev, gz, gv)
        except DivergenceError as exc:
            exc.run = SolverRun(z, v, trace, iterates, interval_steps)
            raise
        trace.append(TraceRecord(t, ev.J, ev.L_eps, gz, gv, mu_t, nu_t,
                                 time.monotonic_ns() - start))
        if last:
            break
        z, v = z_new, v_new
        if iterates is not None:
            iterates.append((z.copy(), v.copy()))
    return SolverRun(z, v, trace, iterates, interval_steps)


# ---------------------------------------------------------------------------
# gradient descent

_INF = float("inf")


def _branch_min(*branches: float) -> float:
    """The step rules' minimum m_t: a vanished branch is passed as +inf and
    drops out; 0.0 when every branch vanished."""
    m = min(branches)
    return m if m < _INF else 0.0


def gd_step_sizes(problem: Problem, z, v, gz: float, gv: float,
                  mu: float = 1.0, nu: float = 1.0) -> tuple[float, float]:
    """Joint-descent step sizes (mu m, nu m) from the gradient norms
    (gz, gv) at (z, v); infinite branches drop out of the minimum m."""
    bound = step_curvature_bound(problem, z, v)
    scale = (15.0 * problem.d / 4.0) ** (-1.0 / 3.0)
    m = _branch_min(1.0 / bound if bound > 0 else _INF,
                    scale * gz ** (-2.0 / 3.0) if gz > 0 else _INF,
                    scale * gv ** (-2.0 / 3.0) if gv > 0 else _INF)
    return mu * m, nu * m


def _gd(problem: Problem, config: SolverConfig):
    def step(z, v, t, ev, gz, gv):
        mu_t, nu_t = gd_step_sizes(problem, z, v, gz, gv, config.mu, config.nu)
        return z - mu_t * ev.grad.z, v - nu_t * ev.grad.v, mu_t, nu_t
    return step, None


# ---------------------------------------------------------------------------
# stochastic gradient descent

def _draw_rows(cdf: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    """k i.i.d. rows by inverse CDF over ``cdf = cumsum(problem.p)`` (the
    offsets ascend), one ``rng.uniform()`` each."""
    u = [rng.uniform() for _ in range(k)]
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def sample_indices(problem: Problem, k: int, rng: Rng) -> list[int]:
    """Draw k offsets of the problem i.i.d. from its distribution p."""
    return [problem.offsets[i] for i in _draw_rows(np.cumsum(problem.p), k, rng)]


def _importance_weights(problem: Problem, rows: np.ndarray) -> np.ndarray:
    return 1.0 / (len(rows) * problem.p[rows])


def stochastic_gradient(problem: Problem, z, v, indices) -> GradientPair:
    """Importance-weighted average of the sampled single-region gradients:
    (1/K) sum_k (1 / p_{r_k}) grad J_{r_k}, from one batched evaluation."""
    rows = np.array([problem.offset_row[r] for r in indices], dtype=np.intp)
    if rows.size == 0:
        raise ValueError("indices must contain at least one offset")
    return _evaluate(problem, z, v, rows, _importance_weights(problem, rows)).grad


def sgd_max_step(problem: Problem, z, v, t: int, theta: float,
                 kappa: float) -> float:
    """Largest admissible SGD step at iteration t for the problem's batch
    size K (see module docstring)."""
    bound = step_curvature_bound(problem, z, v)
    b_z, b_v = stochastic_gradient_bounds(problem, z, v)
    k = problem.batch_size
    return _branch_min(
        (1.0 + t) ** (-1.0 + kappa) * bound ** (-1.0 / (1.0 - theta)) if bound > 0 else _INF,
        b_z ** (-2.0 / (3.0 - theta)) if b_z > 0 else _INF,
        b_v ** (-2.0 / (3.0 - theta)) if b_v > 0 else _INF,
        (1.0 - 1.0 / k) ** (-1.0 / theta) if k > 1 and theta > 0 else _INF)


def _epie_steps(problem: Problem, config: SolverConfig, z, v, t, row):
    """The engine's step denominators (||v||_inf^2, ||z||_inf^2) for region
    ``row`` and its sgd steps alpha p_r / (d ||v||_inf^2), beta p_r / (d ||z||_inf^2)."""
    linf_v, linf_z = float(np.max(np.abs(v))), float(np.max(np.abs(z)))
    if linf_v == 0.0 or linf_z == 0.0:
        raise DivergenceError(f"epie step undefined at iteration {t}: zero iterate")
    sq_v, sq_z = linf_v ** 2, linf_z ** 2
    share = float(problem.p[row])
    return (sq_v, sq_z, config.epie_alpha * share / (problem.d * sq_v),
            config.epie_beta * share / (problem.d * sq_z))


def _sgd(problem: Problem, config: SolverConfig):
    if config.sgd_step_rule == "epie_scaled" and problem.batch_size != 1:
        raise ValueError("epie_scaled steps require batch_size 1")
    rng = Rng(config.seed)
    cdf = np.cumsum(problem.p)

    def step(z, v, t, ev, gz, gv):
        rows = _draw_rows(cdf, problem.batch_size, rng)
        # the step reuses the monitor's rows: no transform of its own
        g = _gradient(problem, z, v, ev.windows[rows], ev.back[rows], rows,
                      _importance_weights(problem, rows))
        if config.sgd_step_rule == "bounded":
            m = sgd_max_step(problem, z, v, t, config.theta, config.kappa)
            mu_t = config.mu * m
            nu_t = config.nu * m
        else:
            _, _, mu_t, nu_t = _epie_steps(problem, config, z, v, t, rows[0])
        return z - mu_t * g.z, v - nu_t * g.v, mu_t, nu_t
    return step, None


# ---------------------------------------------------------------------------
# ptychographic iterative engine

def _epie(problem: Problem, config: SolverConfig):
    rng = Rng(config.seed)
    cdf = np.cumsum(problem.p)
    mode = problem.shifts.mode
    schedule: list[int] = []

    def step(z, v, t, ev, gz, gv):
        if config.epie_schedule == "iid":
            row = int(_draw_rows(cdf, 1, rng)[0])
        else:
            if not schedule:
                schedule.extend(range(problem.n_regions))
                rng.shuffle(schedule)
            row = schedule.pop()
        sq_v, sq_z, mu_t, nu_t = _epie_steps(problem, config, z, v, t, row)
        # the monitor's row equals shift and dft of this region bit for bit
        sv = ev.windows[row]
        exit_wave = z * sv
        spectrum = ev.spectrum[row]
        # magnitude via |.|^2 then sqrt to match the forward-model path bit
        # for bit; coefficients at exactly zero stay zero after correction
        mag = np.sqrt(np.abs(spectrum) ** 2)
        scale = np.divide(np.sqrt(problem.y[row]), mag,
                          out=np.zeros_like(mag), where=mag > _TINY)
        corrected = scale * spectrum
        delta = idft(corrected) - exit_wave
        r = problem.offsets[row]
        z_new = z + config.epie_alpha * np.conj(sv) * delta / sq_v
        v_new = v + config.epie_beta * shift(np.conj(z) * delta, -r, mode) / sq_z
        return z_new, v_new, mu_t, nu_t
    return step, None


# ---------------------------------------------------------------------------
# interval descent

def _interval(problem: Problem, config: SolverConfig):
    if problem.alpha <= 0 or problem.beta <= 0:
        raise ValueError("interval descent requires positive Tikhonov weights")
    gammas = np.linspace(0.0, 1.0, config.gamma_grid)
    steps: list[IntervalStep] = []

    def step(z, v, t, ev, gz, gv):
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
        return (z - gamma * dz, v - (1.0 - gamma) * dv,
                gamma / object_curv, (1.0 - gamma) / window_curv)
    return step, steps


# ---------------------------------------------------------------------------

_FACTORIES = {"gd": _gd, "sgd": _sgd, "epie": _epie, "interval": _interval}


def trace_to_csv(trace: list[TraceRecord]) -> str:
    return "\n".join([TRACE_HEADER, *[_TRACE_ROW % vars(r) for r in trace]]) + "\n"


def write_trace(path, trace: list[TraceRecord]) -> None:
    Path(path).write_text(trace_to_csv(trace))


def read_trace(path) -> list[TraceRecord]:
    header, *rows = Path(path).read_text().splitlines() or [""]
    if header.rstrip() != TRACE_HEADER:
        raise ValueError(f"unexpected trace header: {header!r}")
    return [TraceRecord(int(t), *map(float, columns), int(wall_ns))
            for t, *columns, wall_ns in (row.split(",") for row in rows)]
