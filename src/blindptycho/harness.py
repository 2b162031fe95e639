"""Experiment orchestration: initial guesses, error metrics, trace fits,
run summaries and repetition matrices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .formatting import g17
from .model import Problem
from .rng import Rng
from .solvers import (DivergenceError, SolverConfig, SolverRun, TraceRecord,
                      run, write_trace)


def initial_guess(d: int, seed: int, scale: float = 1.0):
    """Random starting pair with i.i.d. complex normal entries."""
    rng = Rng(seed)
    return (scale * rng.complex_normal_vector(d),
            scale * rng.complex_normal_vector(d))


def reconstruction_error(z, v, x, w) -> float:
    """Relative error after removing the global phase and scaling freedom.

    The closed-form correction gamma = <z, x> / ||z||^2 aligns the object
    estimate; the window is counter-scaled by 1/gamma.  The remaining
    freedoms (entrywise linear phase, and grid-specific degeneracies) are
    not corrected here.  Returns +inf when the estimate is orthogonal to or
    identically zero against the truth.
    """
    z = np.asarray(z, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    nx = float(np.linalg.norm(x))
    nw = float(np.linalg.norm(w))
    if nx == 0.0 or nw == 0.0:
        raise ValueError("ground truth norms must be nonzero")
    nz2 = float(np.vdot(z, z).real)
    if nz2 == 0.0:
        return np.inf
    gamma = complex(np.vdot(z, x)) / nz2
    if gamma == 0:
        return np.inf
    return float(np.linalg.norm(gamma * z - x) / nx
                 + np.linalg.norm(v / gamma - w) / nw)


@dataclass
class SlopeFit:
    slope: float
    degenerate: bool


def fit_decay_slope(trace: list[TraceRecord], t_min: int = 1) -> SlopeFit:
    """Least-squares slope of log(running-min squared gradient) vs log t.

    Requires more than t_min + 100 trace rows.  A flat series (for example
    a run started at a stationary point) is flagged degenerate with slope 0.
    """
    if len(trace) <= t_min + 100:
        raise ValueError("trace too short for a slope fit")
    gsq = np.array([r.grad_z_norm ** 2 + r.grad_v_norm ** 2 for r in trace])
    envelope = np.minimum.accumulate(gsq)
    ts = np.arange(len(trace))
    keep = (ts >= max(t_min, 1)) & (envelope > 0.0)
    if keep.sum() < 2:
        return SlopeFit(0.0, True)
    logt = np.log(ts[keep].astype(np.float64))
    logg = np.log(envelope[keep])
    if float(np.ptp(logg)) < 1e-12:
        return SlopeFit(0.0, True)
    slope = float(np.polyfit(logt, logg, 1)[0])
    return SlopeFit(slope, False)


@dataclass
class Summary:
    """Per-run scalars persisted next to each trace."""

    final_J: float
    min_grad_sq: float
    decay_slope: float | None
    recon_error: float | None
    wall_ns: int


def summarize(problem: Problem, result: SolverRun) -> Summary:
    trace = result.trace
    min_grad = min(r.grad_z_norm ** 2 + r.grad_v_norm ** 2 for r in trace)
    slope = None
    if len(trace) > 200:
        fit = fit_decay_slope(trace, t_min=100)
        if not fit.degenerate:
            slope = fit.slope
    err = None
    if problem.truth is not None:
        err = reconstruction_error(result.z, result.v, *problem.truth)
        if not np.isfinite(err):
            err = None
    return Summary(final_J=trace[-1].J, min_grad_sq=min_grad,
                   decay_slope=slope, recon_error=err,
                   wall_ns=trace[-1].wall_ns)


def _opt(x) -> str:
    return "null" if x is None else g17(x)


def summary_to_json(summary: Summary, config: SolverConfig,
                    problem: Problem) -> str:
    """Summary document; solver defaults are materialized for provenance."""
    cfg = [
        f'"algorithm": "{config.algorithm}"',
        f'"max_iters": {config.max_iters}',
        f'"seed": {config.seed}',
        f'"grad_tol": {g17(config.grad_tol)}',
        f'"step_mode": "{config.step_mode}"',
        f'"theta": {g17(config.theta)}',
        f'"kappa": {g17(config.kappa)}',
        f'"mu": {g17(config.mu)}',
        f'"nu": {g17(config.nu)}',
        f'"sgd_step_rule": "{config.sgd_step_rule}"',
        f'"epie_alpha": {g17(config.epie_alpha)}',
        f'"epie_beta": {g17(config.epie_beta)}',
        f'"epie_schedule": "{config.epie_schedule}"',
        f'"gamma_grid": {config.gamma_grid}',
        f'"d": {problem.d}',
        f'"mode": "{problem.shifts.mode}"',
        f'"epsilon": {g17(problem.epsilon)}',
        f'"alpha_T": {g17(problem.alpha)}',
        f'"beta_T": {g17(problem.beta)}',
        f'"K": {problem.batch_size}',
    ]
    lines = [
        f'"final_J": {g17(summary.final_J)}',
        f'"min_grad_sq": {g17(summary.min_grad_sq)}',
        f'"decay_slope": {_opt(summary.decay_slope)}',
        f'"recon_error": {_opt(summary.recon_error)}',
        f'"wall_ns": {summary.wall_ns}',
        '"config": {' + ", ".join(cfg) + "}",
    ]
    return "{\n  " + ",\n  ".join(lines) + "\n}\n"


@dataclass
class ExperimentConfig:
    """A solver matrix over one problem with seeded repetitions.

    Repetition i of each solver runs with seed ``base_seed + i`` (used both
    for the starting pair and the solver's own stream) and writes
    ``<algo>_run<i>_trace.csv`` plus ``<algo>_run<i>_summary.json`` into
    ``out_dir``.  A run that diverges writes the trace rows it reached and
    re-raises its ``DivergenceError``.
    """

    problem: Problem
    solvers: list[SolverConfig]
    repetitions: int = 1
    base_seed: int = 0
    init_scale: float = 1.0
    out_dir: str | Path = "."

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


def run_experiment(config: ExperimentConfig) -> list[tuple[Path, Path, Summary]]:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for template in config.solvers:
        for rep in range(config.repetitions):
            solver = SolverConfig(**{**template.__dict__,
                                     "seed": config.base_seed + rep})
            z0, v0 = initial_guess(config.problem.d, solver.seed,
                                   config.init_scale)
            stem = f"{solver.algorithm}_run{rep:03d}"
            trace_path = out_dir / f"{stem}_trace.csv"
            summary_path = out_dir / f"{stem}_summary.json"
            started = time.monotonic_ns()
            try:
                result = run(config.problem, z0, v0, solver)
            except DivergenceError as exc:
                write_trace(trace_path, exc.run.trace)
                raise
            elapsed = time.monotonic_ns() - started
            summary = summarize(config.problem, result)
            summary.wall_ns = elapsed
            write_trace(trace_path, result.trace)
            with open(summary_path, "w") as fh:
                fh.write(summary_to_json(summary, solver, config.problem))
            results.append((trace_path, summary_path, summary))
    return results


REPORT_HEADER = "file,algorithm,seed,final_J,min_grad_sq,decay_slope,recon_error,wall_ns"


def aggregate_summaries(paths) -> str:
    """Collect summary documents into one CSV table."""
    import json

    lines = [REPORT_HEADER]
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        cfg = data.get("config", {})
        lines.append(",".join([
            Path(path).name,
            str(cfg.get("algorithm", "")),
            str(cfg.get("seed", "")),
            g17(data["final_J"]),
            g17(data["min_grad_sq"]),
            "" if data.get("decay_slope") is None else g17(data["decay_slope"]),
            "" if data.get("recon_error") is None else g17(data["recon_error"]),
            str(data["wall_ns"]),
        ]))
    return "\n".join(lines) + "\n"
