"""Experiment orchestration: initial guesses, error metrics, trace fits,
run summaries and repetition matrices.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .model import Problem, _file, _require
from .objective import _sq_norm
from .rng import Rng, _count, _real
from .solvers import (DivergenceError, SolverConfig, SolverRun, TraceRecord,
                      cell, run, write_trace)


def initial_guess(d: int, seed: int, scale: float = 1.0):
    """Random starting pair with i.i.d. complex normal entries."""
    d = _count(d, "d", 1)
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
    z, v, x, w = (np.asarray(a, dtype=np.complex128) for a in (z, v, x, w))
    nx, nw = math.sqrt(_sq_norm(x)), math.sqrt(_sq_norm(w))
    if nx == 0.0 or nw == 0.0:
        raise ValueError("ground truth norms must be nonzero")
    nz2 = _sq_norm(z)
    if nz2 == 0.0:
        return np.inf
    gamma = complex(np.vdot(z, x)) / nz2
    if gamma == 0:
        return np.inf
    return (math.sqrt(_sq_norm(gamma * z - x)) / nx
            + math.sqrt(_sq_norm(v / gamma - w)) / nw)


def fit_decay_slope(trace: list[TraceRecord], t_min: int = 1) -> float | None:
    """Least-squares slope of log(running-min squared gradient) vs log t.

    Requires more than t_min + 100 trace rows.  Fewer than two positive
    points from t_min on, or a flat series (for example a run started at a
    stationary point), has no slope: the fit returns None.
    """
    if len(trace) <= t_min + 100:
        raise ValueError("trace too short for a slope fit")
    gsq = np.array([r.grad_z_norm ** 2 + r.grad_v_norm ** 2 for r in trace])
    envelope = np.minimum.accumulate(gsq)
    ts = np.arange(len(trace))
    keep = (ts >= max(t_min, 1)) & (envelope > 0.0)
    logt, logg = np.log(ts[keep].astype(np.float64)), np.log(envelope[keep])
    if keep.sum() < 2 or float(np.ptp(logg)) < 1e-12:
        return None
    return float(np.polyfit(logt, logg, 1)[0])


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
    slope = fit_decay_slope(trace, t_min=100) if len(trace) > 200 else None
    err = None
    if problem.truth is not None:
        err = reconstruction_error(result.z, result.v, *problem.truth)
        if not np.isfinite(err):
            err = None
    return Summary(final_J=trace[-1].J, min_grad_sq=min_grad,
                   decay_slope=slope, recon_error=err,
                   wall_ns=trace[-1].wall_ns)


def summary_to_json(summary: Summary, config: SolverConfig,
                    problem: Problem) -> str:
    """Summary document; every solver setting, defaults included, is written
    for provenance."""
    cfg = asdict(config)
    cfg.update(d=problem.d, mode=problem.shifts.mode, epsilon=problem.epsilon,
               alpha_T=problem.alpha, beta_T=problem.beta, K=problem.batch_size)
    doc = {**asdict(summary), "config": cfg}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


@dataclass
class ExperimentConfig:
    """A solver matrix over one problem with seeded repetitions.

    Repetition i of each solver runs with seed ``base_seed + i`` (used both
    for the starting pair and the solver's own stream) and writes
    ``<algo>_run<i>_trace.csv`` plus ``<algo>_run<i>_summary.json`` into
    ``out_dir``, created at the first write (a rejected run leaves none).
    A run that diverges writes the trace rows it reached and re-raises its
    ``DivergenceError``.
    """

    problem: Problem
    solvers: list[SolverConfig]
    repetitions: int = 1
    base_seed: int = 0
    init_scale: float = 1.0
    out_dir: str | Path = "."

    def __post_init__(self):
        _require(self, _count, repetitions=1, base_seed=None)
        _require(self, _real, init_scale=None)


def run_experiment(config: ExperimentConfig) -> list[tuple[Path, Path, Summary]]:
    out_dir = Path(config.out_dir)
    results = []
    for template in config.solvers:
        for rep in range(config.repetitions):
            solver = replace(template, seed=config.base_seed + rep)
            z0, v0 = initial_guess(config.problem.d, solver.seed,
                                   config.init_scale)
            stem = f"{solver.algorithm}_run{rep:03d}"
            trace_path = out_dir / f"{stem}_trace.csv"
            summary_path = out_dir / f"{stem}_summary.json"
            try:
                result = run(config.problem, z0, v0, solver)
            except DivergenceError as exc:
                out_dir.mkdir(parents=True, exist_ok=True)
                write_trace(trace_path, exc.run.trace)
                raise
            summary = summarize(config.problem, result)
            out_dir.mkdir(parents=True, exist_ok=True)
            write_trace(trace_path, result.trace)
            summary_path.write_text(summary_to_json(summary, solver, config.problem))
            results.append((trace_path, summary_path, summary))
    return results


REPORT_HEADER = ",".join(["file", "algorithm", "seed", *(f.name for f in fields(Summary))])


def aggregate_summaries(paths) -> str:
    """Collect summary documents into one CSV table; a file that is not UTF-8
    JSON, or a field that is missing or not a number, raises ValueError
    naming it."""
    lines = [REPORT_HEADER]
    for path in paths:
        with _file(path):
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        cfg = data.get("config", {}) if isinstance(data, dict) else None
        if not isinstance(cfg, dict):
            raise ValueError(f"{path}: not a summary document")
        row = [Path(path).name, str(cfg.get("algorithm", "")),
               str(cfg.get("seed", ""))]
        for f in fields(Summary):
            value = data.get(f.name)
            if value is None and str(f.type).endswith("None"):
                row.append("")
            elif type(value) not in (int, float):
                raise ValueError(
                    f"{path}: summary field {f.name!r} is missing or not a number")
            else:
                row.append(cell(f) % data)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
