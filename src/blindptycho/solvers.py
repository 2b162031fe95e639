"""Iteration schemes: joint gradient descent, stochastic gradient descent,
the ptychographic iterative engine, and interval descent.

``run`` is the one solver loop; its SolverConfig, whose every field is a
setting, was checked when built (``record_iterates`` is a ``run`` argument,
not a setting).  At each t it evaluates value and gradient of the iterate
over all regions (the trace monitor; a non-finite loss or gradient norm
raises DivergenceError).
At t = max_iters, or once grad_tol > 0 and ||grad J|| <= grad_tol, it
writes a closing row with zero step sizes and stops; otherwise it writes
the row of ``step(z, v, t, ev, gz, gv) -> (mu_t, nu_t, g, ahead)`` and moves
the iterate, there only, to (z - mu_t g.z, v - nu_t g.v), where ``g`` is
``ev.grad`` for gd and interval and the sampled gradient for sgd and epie.
``ahead`` is None or the new pair's ``_evaluate(..., grad=False)``, which
interval hands over (its selected trial): the monitor then runs only the
kernel's back half.
The factories ``_gd/_sgd/_interval(problem, config)`` check the problem,
build the algorithm's state and return (step, interval_steps or None);
``_sgd`` serves sgd and epie.  ``ev`` is the monitor's evaluation, whose
rows the sgd and epie steps reuse, and (gz, gv) its gradient norms.  A
step raises DivergenceError on a degenerate iterate and ``run`` attaches
the partial run.  Stochastic solvers own a fresh ``Rng(config.seed)``, so
runs are bit-reproducible from (problem, initial pair, config).

A factory computes once per run what depends only on the problem and the
config: the step rules ``_gd_rule``/``_sgd_rule`` with their constants
(``_Bounds``, (15d/4)^(-1/3), sgd's exponents and K-branch), the
sampling CDF, the importance weights 1/(K p) and epie's sqrt(y).  A step
passes the rule the monitor's ||z||^2 and ||v||^2; no rule takes a norm.
The bound formulas are written once, on ``_Bounds`` (with sqrt(||y||_1 / d),
3 max(alpha, beta), sqrt(15d/4) and min p), built once per run by a rule
and once per call by the public bound and step-size functions.

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
  The sampled gradient (1/K) sum_k (1/p_{r_k}) grad J_{r_k} is the
  ``objective._weighted_sum`` of the K drawn rows of the monitor's
  per-row data gradients (``ev.parts``) plus its Tikhonov terms
  (``ev.tik``); at K = 1 it is w_r parts[r] + tik, with no stack and no
  sum.  Rows are drawn by inverse CDF (``_draw_row``) from uniforms that
  the run takes from ``Rng.uniform_vector`` blocks of at most 256 (never
  more than max_iters K in all), with the scalar stream's bits.
* epie:      magnitude projection of one region's exit wave followed by the
  decoupling updates with factors alpha_t / ||v||_inf^2, beta_t / ||z||_inf^2.
  That is the importance-weighted sgd step on the eps = 0 residual without
  Tikhonov terms, mu_t = alpha_t p_r / (d ||v||_inf^2), so ``_sgd`` runs it
  as its special case: K = 1 whatever the problem's batch size, the
  epie_scaled steps, that residual on the monitor's row r (through the
  kernel's one-row form), and i.i.d. or (``epie_schedule="shuffled"``)
  shuffled draws; the shuffled schedule draws no uniforms.  With eps = 0
  and no Tikhonov terms it equals epie_scaled sgd bit for bit.
* interval:  minimize J over a gamma grid of the loop's update with
  (mu_t, nu_t) = (gamma / L_obj, (1 - gamma) / L_win), whose ends are the
  single-variable updates of z (gamma = 1) and v (gamma = 0); the selected
  trial's forward pass is the next monitor's.  L_obj reads only v and
  L_win only z, so a step that selected an end carries the curvature of
  the side it left in place (L_obj when nu_t = 0, L_win when mu_t = 0) and
  the next step computes only the other: that side moved by 0 * g with g
  finite, which keeps every |entry|^2, so the carried value is the one
  ``partial_lipschitz`` would compute, bit for bit.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from itertools import chain
from pathlib import Path
from typing import ClassVar

import numpy as np

# dft, shift, gradient_region, loss, loss_and_gradient and partial_lipschitz
# are not called here but stay bound: perfbench/tracing.py wraps them under
# these names.
from .fourier import dft, shift  # noqa: F401
from .model import Problem, _require
from .objective import (GradientPair, _as_iterate, _evaluate,  # noqa: F401
                        _partial_lipschitz, _parts, _region, _residual_back,
                        _sq_norm, _tikhonov, _weighted_sum, gradient_region,
                        loss, loss_and_gradient, partial_lipschitz)
from .rng import Rng, _count, _real

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

    CHOICES: ClassVar[dict[str, tuple[str, ...]]] = {
        "algorithm": ALGORITHMS, "sgd_step_rule": ("bounded", "epie_scaled"),
        "epie_schedule": ("iid", "shuffled")}

    def __post_init__(self):
        for name, allowed in self.CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name}: {getattr(self, name)!r}")
        _require(self, _count, max_iters=0, seed=None, gamma_grid=2)
        _require(self, _real, grad_tol=0, theta=None, kappa=None, mu=None, nu=None,
                 epie_alpha=None, epie_beta=None)
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not 0.0 <= self.kappa < self.theta / (1.0 + self.theta):
            raise ValueError("kappa must lie in [0, theta / (1 + theta))")
        if not (0.0 < self.mu <= 1.0 and 0.0 < self.nu <= 1.0):
            raise ValueError("mu and nu must lie in (0, 1]")
        if self.epie_alpha <= 0 or self.epie_beta <= 0:
            raise ValueError("epie_alpha and epie_beta must be positive")


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


def cell(f) -> str:
    """%-format, by name, of a dataclass field's cell in the trace and report
    CSVs: an ``int`` as it is, any other with 17 digits (floats round-trip)."""
    return f"%({f.name})" + ("s" if f.type in (int, "int") else ".17g")


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


def run(problem: Problem, z0, v0, config: SolverConfig, *,
        record_iterates: bool = False) -> SolverRun:
    """The solver loop shared by every algorithm (see module docstring);
    ``record_iterates`` keeps every iterate in ``SolverRun.iterates``."""
    z, v = (np.array(a) for a in _as_iterate(problem, z0, v0))
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(v))):
        raise ValueError("starting pair must be finite")
    step, interval_steps = _FACTORIES[config.algorithm](problem, config)
    trace: list[TraceRecord] = []
    iterates = [(z.copy(), v.copy())] if record_iterates else None
    ahead = None
    start = time.monotonic_ns()
    for t in range(config.max_iters + 1):
        try:
            ev = _evaluate(problem, z, v, forward=ahead)
            gz, gv = ev.grad.norms()
            # a non-finite gradient entry makes its norm non-finite
            if not (math.isfinite(ev.J) and math.isfinite(gz) and math.isfinite(gv)):
                raise DivergenceError(f"non-finite loss or gradient at iteration {t}")
            last = t == config.max_iters or \
                (config.grad_tol > 0 and np.hypot(gz, gv) <= config.grad_tol)
            mu_t, nu_t, g, ahead = (0.0, 0.0, None, None) if last \
                else step(z, v, t, ev, gz, gv)
        except DivergenceError as exc:
            exc.run = SolverRun(z, v, trace, iterates, interval_steps)
            raise
        trace.append(TraceRecord(t, ev.J, ev.L_eps, gz, gv, mu_t, nu_t,
                                 time.monotonic_ns() - start))
        if last:
            break
        z, v = z - mu_t * g.z, v - nu_t * g.v
        if iterates is not None:
            iterates.append((z.copy(), v.copy()))
    return SolverRun(z, v, trace, iterates, interval_steps)


# ---------------------------------------------------------------------------
# step-size bounds

class _Bounds:
    """The curvature bound and the stochastic-gradient envelopes of one
    problem, with every factor that depends on the problem alone computed
    when built."""

    def __init__(self, problem: Problem):
        d = problem.d
        self.d, self.alpha, self.beta = d, problem.alpha, problem.beta
        # Python floats: the rules run once per iteration on scalars, where
        # numpy scalar arithmetic costs several times more, with equal bits
        self.ymass = math.sqrt(problem.y_total / d)
        self.weight = 3.0 * max(problem.alpha, problem.beta)
        self.scale = math.sqrt(15.0 * d / 4.0)
        self.sampling = float(np.min(problem.p))

    def curvature(self, z_sq: float, v_sq: float) -> float:
        """``step_curvature_bound`` from ||z||^2 and ||v||^2."""
        return 3.0 * self.d * ((10.0 / 3.0) * (z_sq + v_sq) + self.ymass) + self.weight

    def envelopes(self, z_sq: float, v_sq: float) -> tuple[float, float]:
        """``stochastic_gradient_bounds`` from ||z||^2 and ||v||^2."""
        nz, nv = math.sqrt(z_sq), math.sqrt(v_sq)
        shared = (nz * nv + self.ymass) / self.sampling
        b_z = self.scale * (self.d * nv * shared + self.alpha * nz)
        b_v = self.scale * (self.d * nz * shared + self.beta * nv)
        return b_z, b_v


def step_curvature_bound(problem: Problem, z, v) -> float:
    """Uniform curvature bound for joint descent steps.

    3 d [ (10/3)(||z||^2 + ||v||^2) + sqrt(||y||_1 / d) ] + 3 max(alpha, beta);
    its reciprocal is the norm-independent branch of the step-size rule.
    """
    z, v = _as_iterate(problem, z, v)
    return _Bounds(problem).curvature(_sq_norm(z), _sq_norm(v))


def stochastic_gradient_bounds(problem: Problem, z, v) -> tuple[float, float]:
    """Deterministic envelopes (b_z, b_v) for the sampled gradients,

        b_z = sqrt(15d/4) (d ||v|| (||z|| ||v|| + sqrt(||y||_1 / d)) / min p
                           + alpha ||z||),

    and b_v with z, v and alpha exchanged for v, z and beta.  Whatever the
    batch size K and the indices drawn, repeats included, (15 d / 4)
    ||g_z||^2 <= b_z^2 (likewise for g_v), so the SGD step rule need not look
    at the sample: by the triangle inequality the data term of
    g_z = (1/K) sum_k part_{r_k} / p_{r_k} + alpha z, part_r = conj(S_r v) B_r,
    is at most max_r ||part_r|| / min p, the bound of one draw, and the
    Tikhonov term enters once.  A batch that draws one row K times has that
    draw's gradient, so no factor in K can sharpen the envelope.
    """
    z, v = _as_iterate(problem, z, v)
    return _Bounds(problem).envelopes(_sq_norm(z), _sq_norm(v))


# ---------------------------------------------------------------------------
# gradient descent

_INF = float("inf")


def _branch_min(*branches: float) -> float:
    """The step rules' minimum m_t: a vanished branch is passed as +inf and
    drops out; 0.0 when every branch vanished."""
    m = min(branches)
    return m if m < _INF else 0.0


def _gd_rule(problem: Problem):
    """gd's m_t as a function of (||z||^2, ||v||^2, gz, gv), with the
    problem's constants computed once."""
    bounds = _Bounds(problem)
    scale = (15.0 * problem.d / 4.0) ** (-1.0 / 3.0)

    def rule(z_sq: float, v_sq: float, gz: float, gv: float) -> float:
        bound = bounds.curvature(z_sq, v_sq)
        return _branch_min(1.0 / bound if bound > 0 else _INF,
                           scale * gz ** (-2.0 / 3.0) if gz > 0 else _INF,
                           scale * gv ** (-2.0 / 3.0) if gv > 0 else _INF)
    return rule


def gd_step_sizes(problem: Problem, z, v, gz: float, gv: float,
                  mu: float = 1.0, nu: float = 1.0) -> tuple[float, float]:
    """Joint-descent step sizes (mu m, nu m) from the gradient norms
    (gz, gv) at (z, v); infinite branches drop out of the minimum m."""
    z, v = _as_iterate(problem, z, v)
    m = _gd_rule(problem)(_sq_norm(z), _sq_norm(v), gz, gv)
    return mu * m, nu * m


def _gd(problem: Problem, config: SolverConfig):
    rule = _gd_rule(problem)

    def step(z, v, t, ev, gz, gv):
        m = rule(ev.z_sq, ev.v_sq, gz, gv)
        return config.mu * m, config.nu * m, ev.grad, None
    return step, None


# ---------------------------------------------------------------------------
# stochastic gradient descent

def _draw_row(cdf: list[float], u: float) -> int:
    """The row of one uniform ``u`` by inverse CDF over
    ``cdf = cumsum(problem.p).tolist()`` (the offsets ascend); a draw at or
    past the last entry takes the last row."""
    return min(bisect_right(cdf, u), len(cdf) - 1)


_UNIFORM_BLOCK = 256


def _uniforms(rng: Rng, total: int):
    """An iterator over the next ``total`` ``rng.uniform()`` draws, taken from
    ``uniform_vector`` blocks of at most ``_UNIFORM_BLOCK``: the same stream,
    with one block call in place of up to 256 scalar ones.  A memoryview of
    a block yields its entries as Python floats, one at a time."""
    return chain.from_iterable(
        memoryview(rng.uniform_vector(min(_UNIFORM_BLOCK, total - start)))
        for start in range(0, total, _UNIFORM_BLOCK))


def sample_indices(problem: Problem, k: int, rng: Rng) -> list[int]:
    """Draw k >= 1 offsets of the problem i.i.d. from its distribution p."""
    cdf = np.cumsum(problem.p).tolist()
    return [problem.offsets[_draw_row(cdf, u)]
            for u in rng.uniform_vector(_count(k, "k", 1)).tolist()]


def _importance_weights(p: np.ndarray, k: int) -> np.ndarray:
    """The weights 1 / (K p_r) of a batch of K draws with probabilities p."""
    return 1.0 / (k * p)


def stochastic_gradient(problem: Problem, z, v, indices) -> GradientPair:
    """Importance-weighted average of the sampled single-region gradients:
    (1/K) sum_k (1 / p_{r_k}) grad J_{r_k}, from one evaluation of each
    drawn region's problem (``objective._region``), summed in draw order."""
    rows = [problem.row(r) for r in indices]
    if not rows:
        raise ValueError("indices must contain at least one offset")
    z, v = _as_iterate(problem, z, v)
    parts = [_evaluate(_region(problem, problem.offsets[row]), z, v).parts
             for row in rows]
    return _weighted_sum(tuple(np.concatenate(stack) for stack in zip(*parts)),
                         _importance_weights(problem.p[rows], len(rows)),
                         _tikhonov(problem, z, v))


def _sgd_rule(problem: Problem, theta: float, kappa: float):
    """Bounded sgd's m_t as a function of (||z||^2, ||v||^2, t),
    with the constants of (problem, theta, kappa) computed once."""
    bounds = _Bounds(problem)
    decay, curvature_power = -1.0 + kappa, -1.0 / (1.0 - theta)
    envelope_power = -2.0 / (3.0 - theta)
    k = problem.batch_size
    batch_branch = (1.0 - 1.0 / k) ** (-1.0 / theta) if k > 1 and theta > 0 else _INF

    def rule(z_sq: float, v_sq: float, t: int) -> float:
        bound = bounds.curvature(z_sq, v_sq)
        b_z, b_v = bounds.envelopes(z_sq, v_sq)
        return _branch_min(
            (1.0 + t) ** decay * bound ** curvature_power if bound > 0 else _INF,
            b_z ** envelope_power if b_z > 0 else _INF,
            b_v ** envelope_power if b_v > 0 else _INF,
            batch_branch)
    return rule


def sgd_max_step(problem: Problem, z, v, t: int, theta: float,
                 kappa: float) -> float:
    """Largest admissible SGD step at iteration t for the problem's batch
    size K (see module docstring)."""
    z, v = _as_iterate(problem, z, v)
    return _sgd_rule(problem, theta, kappa)(_sq_norm(z), _sq_norm(v), t)


def _sgd(problem: Problem, config: SolverConfig):
    """sgd, and epie as its special case: K = 1, the engine's ``scaled``
    steps, its eps = 0 residual without Tikhonov terms and, on request, a
    ``shuffled`` schedule (bounded sgd's certificate assumes i.i.d. draws,
    so sgd never shuffles)."""
    engine = config.algorithm == "epie"
    k = 1 if engine else problem.batch_size
    scaled = engine or config.sgd_step_rule == "epie_scaled"
    if scaled and k != 1:
        raise ValueError("epie_scaled steps require batch_size 1")
    shuffled = engine and config.epie_schedule == "shuffled"
    magnitude = np.sqrt(problem.y) if engine else None
    rng = Rng(config.seed)
    # the run owns rng, and the shuffled schedule draws no uniforms
    uniforms = _uniforms(rng, config.max_iters * k)
    cdf = np.cumsum(problem.p).tolist()
    weights = _importance_weights(problem.p, k)
    weight, share = weights.tolist(), problem.p.tolist()
    rule = None if scaled else _sgd_rule(problem, config.theta, config.kappa)
    schedule: list[int] = []

    # The sampled gradient sums drawn rows of the monitor's per-row
    # gradients: no product, gather or transform of its own.
    def step(z, v, t, ev, gz, gv):
        if k > 1:
            rows = [_draw_row(cdf, next(uniforms)) for _ in range(k)]
            pz, pv = ev.parts
            g = _weighted_sum((pz.take(rows, 0), pv.take(rows, 0)),
                              weights.take(rows), ev.tik)
        else:
            if shuffled:
                if not schedule:
                    schedule.extend(range(problem.n_regions))
                    rng.shuffle(schedule)
                row = schedule.pop()
            else:
                row = _draw_row(cdf, next(uniforms))
            if engine:
                # the projection residual of the row: the kernel's at eps = 0
                spectrum = ev.spectrum[row]
                back = _residual_back(magnitude[row], np.sqrt(np.abs(spectrum) ** 2),
                                      spectrum, 0.0)
                g = _weighted_sum(_parts(problem, z, ev.windows[row], back, row),
                                  weight[row], None)
            else:
                pz, pv = ev.parts
                g = _weighted_sum((pz[row], pv[row]), weight[row], ev.tik)
        if scaled:
            # alpha p_r / (d ||v||_inf^2), beta p_r / (d ||z||_inf^2)
            linf_v = float(np.maximum.reduce(np.abs(v), None))
            linf_z = float(np.maximum.reduce(np.abs(z), None))
            if linf_v == 0.0 or linf_z == 0.0:
                raise DivergenceError(f"epie step undefined at iteration {t}: zero iterate")
            return (config.epie_alpha * share[row] / (problem.d * linf_v ** 2),
                    config.epie_beta * share[row] / (problem.d * linf_z ** 2), g, None)
        m = rule(ev.z_sq, ev.v_sq, t)
        return config.mu * m, config.nu * m, g, None
    return step, None


# ---------------------------------------------------------------------------
# interval descent

def _interval(problem: Problem, config: SolverConfig):
    if problem.alpha <= 0 or problem.beta <= 0:
        raise ValueError("interval descent requires positive Tikhonov weights")
    gammas = np.linspace(0.0, 1.0, config.gamma_grid).tolist()
    steps: list[IntervalStep] = []
    carried = (None, None)   # (L_obj, L_win) the last step left valid

    def step(z, v, t, ev, gz, gv):
        nonlocal carried
        object_curv, window_curv = _partial_lipschitz(problem, z, v, *carried)
        g = ev.grad
        # Only the running best trial is kept, with its forward pass, which
        # the next monitor reuses; it is np.argmin's choice (the first NaN,
        # else the first minimum).
        values, best = [], None
        for gamma in gammas:
            mu, nu = gamma / object_curv, (1.0 - gamma) / window_curv
            forward = _evaluate(problem, z - mu * g.z, v - nu * g.v, grad=False)
            values.append(forward.J)
            if best is None or not math.isnan(best[3].J) and (
                    math.isnan(forward.J) or forward.J < best[3].J):
                best = (gamma, mu, nu, forward)
        gamma, mu_t, nu_t, forward = best
        # A zero step moves its side by 0 * g with g finite (the monitor
        # checked it), which changes at most the sign of a zero, so the
        # curvature read from that side alone holds at the next iterate.
        carried = (object_curv if nu_t == 0.0 else None,
                   window_curv if mu_t == 0.0 else None)
        steps.append(IntervalStep(
            gamma=gamma,
            loss_object_endpoint=values[-1],
            loss_window_endpoint=values[0],
            loss_selected=forward.J,
            decrease=ev.J - forward.J,
            bound_matched=0.5 * gz * gz / object_curv + 0.5 * gv * gv / window_curv,
            bound_crossed=0.5 * gz * gz / window_curv + 0.5 * gv * gv / object_curv,
        ))
        return mu_t, nu_t, g, forward
    return step, steps


# ---------------------------------------------------------------------------

_FACTORIES = {"gd": _gd, "sgd": _sgd, "epie": _sgd, "interval": _interval}


def trace_to_csv(trace: list[TraceRecord]) -> str:
    return "\n".join([TRACE_HEADER, *[_TRACE_ROW % vars(r) for r in trace]]) + "\n"


def write_trace(path, trace: list[TraceRecord]) -> None:
    Path(path).write_text(trace_to_csv(trace))


def read_trace(path) -> list[TraceRecord]:
    """Records of a trace CSV; a malformed row raises ValueError naming its line."""
    header, *rows = Path(path).read_text().splitlines() or [""]
    if header.rstrip() != TRACE_HEADER:
        raise ValueError(f"unexpected trace header: {header!r}")
    records = []
    for line, row in enumerate(rows, start=2):
        cells = row.split(",")
        try:
            if len(cells) != len(fields(TraceRecord)):
                raise ValueError(f"{len(cells)} columns")
            t, *columns, wall_ns = cells
            records.append(TraceRecord(int(t), *map(float, columns), int(wall_ns)))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: malformed trace row {row!r} "
                             f"({exc})") from None
    return records
