import json
import re
from dataclasses import replace

import numpy as np
import pytest

from blindptycho import (SolverConfig, SolverRun, TraceRecord, aggregate_summaries,
                         fit_decay_slope, initial_guess, read_trace,
                         reconstruction_error, run, summarize,
                         summary_to_json, synthesize_problem)
from blindptycho.harness import ExperimentConfig, run_experiment

from conftest import np_pair


def test_reconstruction_error_identity_and_ambiguities():
    x, w = np_pair(8, 1)
    assert reconstruction_error(x, w, x, w) == pytest.approx(0.0, abs=1e-12)
    assert reconstruction_error(2 * x, w / 2, x, w) == pytest.approx(0.0, abs=1e-12)
    phase = np.exp(0.9j)
    assert reconstruction_error(phase * x, w / phase, x, w) == pytest.approx(0.0, abs=1e-12)


def test_reconstruction_error_invariant_under_joint_phase():
    x, w = np_pair(8, 2)
    z, v = np_pair(8, 3)
    base = reconstruction_error(z, v, x, w)
    for phi in (0.3, 1.2, -2.5):
        a = np.exp(1j * phi)
        moved = reconstruction_error(a * z, v / a, x, w)
        assert moved == pytest.approx(base, rel=1e-10, abs=1e-12)
    gamma = 0.7 - 2.1j
    assert reconstruction_error(gamma * z, v / gamma, x, w) == \
        pytest.approx(base, rel=1e-10, abs=1e-12)


def test_reconstruction_error_edge_cases():
    x, w = np_pair(8, 4)
    assert reconstruction_error(np.zeros(8, complex), w, x, w) == np.inf
    # an estimate orthogonal to the truth has no scaling to correct
    e0, e1 = np.eye(8, dtype=complex)[:2]
    assert reconstruction_error(e1, w, e0, w) == np.inf
    with pytest.raises(ValueError):
        reconstruction_error(x, w, np.zeros(8, complex), w)


def _fake_trace(gsq_series):
    return [TraceRecord(t, 1.0, 1.0, float(np.sqrt(g)), 0.0, 0.0, 0.0, 0)
            for t, g in enumerate(gsq_series)]


def test_fit_decay_slope_power_law():
    ts = np.arange(1500)
    series = 3.0 / np.maximum(ts, 1)
    slope = fit_decay_slope(_fake_trace(series), t_min=10)
    assert type(slope) is float
    assert slope == pytest.approx(-1.0, abs=0.01)


def test_fit_decay_slope_constant_flagged():
    assert fit_decay_slope(_fake_trace(np.full(500, 2.0)), t_min=10) is None
    # a gradient that vanished before t_min leaves no point to fit
    assert fit_decay_slope(_fake_trace(np.r_[1.0, np.zeros(499)]), t_min=10) is None


def test_fit_decay_slope_short_trace_rejected():
    with pytest.raises(ValueError):
        fit_decay_slope(_fake_trace(np.ones(50)), t_min=10)


def test_gd_trace_slope_steep():
    prob = synthesize_problem(16, seed=5)
    z0, v0 = initial_guess(16, 6)
    res = run(prob, z0, v0, SolverConfig(algorithm="gd", max_iters=600))
    assert fit_decay_slope(res.trace, t_min=10) <= -0.9


def test_summarize_and_json(tmp_path):
    prob = synthesize_problem(8, seed=7)
    z0, v0 = initial_guess(8, 8)
    cfg = SolverConfig(algorithm="gd", max_iters=30, seed=8)
    res = run(prob, z0, v0, cfg)
    summary = summarize(prob, res)
    assert summary.final_J == res.trace[-1].J
    assert summary.decay_slope is None  # trace too short for a fit
    assert summary.recon_error is not None
    text = summary_to_json(summary, cfg, prob)
    data = json.loads(text)
    assert data["final_J"] == summary.final_J
    assert data["decay_slope"] is None
    assert data["config"]["algorithm"] == "gd"
    assert data["config"]["theta"] == 0.5  # defaults materialized
    assert list(data) == ["final_J", "min_grad_sq", "decay_slope",
                          "recon_error", "wall_ns", "config"]
    assert list(data["config"]) == [
        "algorithm", "max_iters", "seed", "grad_tol", "theta",
        "kappa", "mu", "nu", "sgd_step_rule", "epie_alpha", "epie_beta",
        "epie_schedule", "gamma_grid", "d", "mode", "epsilon", "alpha_T",
        "beta_T", "K"]
    # settings given as numpy scalars are written as plain numbers
    numpy_cfg = SolverConfig(algorithm="gd", max_iters=np.int64(30),
                             seed=np.int64(8), theta=np.float32(0.5))
    assert json.loads(summary_to_json(summary, numpy_cfg, prob))["config"] == data["config"]


def test_summary_of_a_run_at_a_stationary_point_has_no_slope():
    # gd started at the noiseless truth with no Tikhonov terms: the gradient
    # is 0 at every step, so the trace is long enough to fit but has no slope
    prob = synthesize_problem(8, seed=7, alpha=0.0, beta=0.0)
    cfg = SolverConfig(algorithm="gd", max_iters=250)
    res = run(prob, *prob.truth, cfg)
    assert len(res.trace) == 251
    assert all(r.grad_z_norm == r.grad_v_norm == 0.0 for r in res.trace)
    summary = summarize(prob, res)
    assert summary.decay_slope is None
    assert json.loads(summary_to_json(summary, cfg, prob))["decay_slope"] is None


def test_summary_writes_infinite_error_as_null():
    prob = synthesize_problem(4, seed=7)
    e0, e1 = np.eye(4, dtype=complex)[:2]
    prob = replace(prob, truth=(e0, prob.truth[1]))
    result = SolverRun(e1, prob.truth[1], _fake_trace([1.0]))
    summary = summarize(prob, result)
    assert summary.recon_error is None
    assert json.loads(summary_to_json(summary, SolverConfig(), prob))["recon_error"] is None


@pytest.mark.parametrize("make,message", [
    (lambda tmp_path: ExperimentConfig(problem=synthesize_problem(4, seed=1),
                                       solvers=[], repetitions=0),
     "repetitions must be >= 1"),
    (lambda tmp_path: aggregate_summaries([_write(tmp_path / "a.json", "[1]")]),
     "a.json: not a summary document"),
    (lambda tmp_path: aggregate_summaries([_write(tmp_path / "b.json", '{"config": 1}')]),
     "b.json: not a summary document"),
], ids=["repetitions-zero", "summary-a-list", "summary-config-not-object"])
def test_input_checks(tmp_path, make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make(tmp_path)


def _write(path, text):
    path.write_text(text)
    return path


def test_run_experiment_and_report(tmp_path):
    prob = synthesize_problem(8, seed=9)
    cfg = ExperimentConfig(
        problem=prob,
        solvers=[SolverConfig(algorithm="gd", max_iters=20)],
        repetitions=2, base_seed=100, out_dir=tmp_path)
    results = run_experiment(cfg)
    assert len(results) == 2
    seeds = []
    for trace_path, summary_path, _ in results:
        assert trace_path.exists() and summary_path.exists()
        seeds.append(json.loads(summary_path.read_text())["config"]["seed"])
    assert seeds == [100, 101]

    table = aggregate_summaries([r[1] for r in results])
    lines = table.strip().split("\n")
    assert lines[0].startswith("file,algorithm,seed,final_J")
    assert len(lines) == 3


def test_experiment_summary_wall_ns_is_trace_closing_row(tmp_path):
    prob = synthesize_problem(8, seed=10)
    cfg = ExperimentConfig(problem=prob, solvers=[SolverConfig(max_iters=5)],
                           out_dir=tmp_path)
    [(trace_path, summary_path, summary)] = run_experiment(cfg)
    closing = read_trace(trace_path)[-1].wall_ns
    assert summary.wall_ns == closing
    assert json.loads(summary_path.read_text())["wall_ns"] == closing


def test_experiment_config_integral_repetitions(tmp_path):
    prob = synthesize_problem(8, seed=11)
    for value in (1.5, np.nan, "2"):
        with pytest.raises(ValueError, match="repetitions must be an integer"):
            ExperimentConfig(problem=prob, solvers=[], repetitions=value)
    cfg = ExperimentConfig(problem=prob, solvers=[SolverConfig(max_iters=2)],
                           repetitions=2.0, out_dir=tmp_path)
    assert cfg.repetitions == 2 and type(cfg.repetitions) is int
    assert len(run_experiment(cfg)) == 2
