"""Acceptance suite.

Every criterion is checked at its stated tolerance and announces itself
with one pass/fail line (run with ``pytest -s`` to see the lines as they
pass).  Desk scale throughout: d in {8, 16, 32}, all-circular shift
families, noiseless measurements unless a criterion says otherwise.
Criterion 14 (sgd progress) sits beside criteria 8 and 9, which it
complements.
"""

import numpy as np
import pytest

from blindptycho import (Rng, ShiftSet, SolverConfig, check_bilinear_bound,
                         check_descent_lemma, check_gradient_bounds,
                         check_lipschitz, check_unbiasedness,
                         fd_wirtinger_gradient, fit_decay_slope,
                         forward_intensities, gradient, initial_guess, loss,
                         partial_lipschitz, reconstruction_error, run,
                         synthesize_problem)
from blindptycho.cli import main as cli_main

from conftest import np_pair


def _announce(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}")
    assert ok, f"criterion {number} failed: {description}"


# ---------------------------------------------------------------------------
# shared long runs

@pytest.fixture(scope="module")
def gd_runs():
    """Five seeded rate-mode runs, d=16, 1000 iterations."""
    runs = []
    for seed in range(5):
        prob = synthesize_problem(16, seed=seed, epsilon=1e-8,
                                  alpha=1e-3, beta=1e-3)
        z0, v0 = initial_guess(16, 1000 + seed)
        res = run(prob, z0, v0,
                  SolverConfig(algorithm="gd", max_iters=1000, seed=seed))
        runs.append((prob, res))
    return runs


def _sgd_runs(seeds=range(10), **settings):
    """Seeded sgd runs, d=8, 20000 iterations; ``settings`` override the
    default-policy SolverConfig fields."""
    runs = []
    for seed in seeds:
        prob = synthesize_problem(8, seed=seed, epsilon=1e-8,
                                  alpha=1e-3, beta=1e-3)
        z0, v0 = initial_guess(8, 2000 + seed)
        cfg = dict(algorithm="sgd", max_iters=20_000, seed=seed,
                   theta=0.5, kappa=0.2, mu=1.0, nu=1.0)
        runs.append(run(prob, z0, v0, SolverConfig(**{**cfg, **settings})))
    return runs


@pytest.fixture(scope="module")
def sgd_runs():
    """Ten seeded default-policy runs, d=8, 20000 iterations."""
    return _sgd_runs()


@pytest.fixture(scope="module")
def epie_scaled_runs():
    """The same ten runs with the engine's steps (``epie_scaled``)."""
    return _sgd_runs(sgd_step_rule="epie_scaled")


# ---------------------------------------------------------------------------

def test_criterion_01_gradient_vs_finite_differences():
    worst = 0.0
    for i in range(10):
        for eps in (1e-3, 1.0):
            d = (8, 16, 32)[i % 3]
            prob = synthesize_problem(d, seed=50 + i, epsilon=eps,
                                      alpha=1e-3, beta=2e-3)
            z, v = np_pair(d, 500 + i)
            exact = gradient(prob, z, v)
            approx = fd_wirtinger_gradient(prob, z, v)
            scale = max(np.max(np.abs(exact.z)), np.max(np.abs(exact.v)))
            err = max(np.max(np.abs(exact.z - approx.z)),
                      np.max(np.abs(exact.v - approx.v))) / scale
            worst = max(worst, err)
    _announce(1, f"analytic vs FD Wirtinger gradient, 20 instances "
                 f"(worst rel err {worst:.2e} <= 1e-6)", worst <= 1e-6)


def test_criterion_02_descent_bound():
    prob = synthesize_problem(8, seed=60, epsilon=1e-8)
    rng = Rng(61)
    worst = np.inf
    for scale in (0.1, 1.0, 10.0):
        report = check_descent_lemma(prob, 200, scale, rng)
        worst = min(worst, report.worst_slack)
    _announce(2, f"quartic descent bound, 200 tuples x scales {{0.1,1,10}} "
                 f"(worst slack {worst:.2e} >= -1e-9)", worst >= -1e-9)


def test_criterion_03_gd_descent_inequality(gd_runs):
    ok = True
    for prob, res in gd_runs:
        tr = res.trace
        for a, b in zip(tr[:500], tr[1:501]):
            rhs = a.J - a.mu_t * a.grad_z_norm ** 2 - a.nu_t * a.grad_v_norm ** 2
            if b.J > rhs + 1e-10 * (1 + a.J):
                ok = False
    _announce(3, "per-step gd descent inequality over 500 iterations, 5 seeds",
              ok)


def test_criterion_04_gd_rate_bound(gd_runs):
    ok = True
    detail = np.inf
    for prob, res in gd_runs:
        tr = res.trace
        j0 = tr[0].J
        c1 = max(prob.d * (20.0 * (1 / prob.alpha + 1 / prob.beta) * j0
                           + 6.0 * np.sqrt(prob.y_total / prob.d))
                 + 2.0 * max(prob.alpha, prob.beta),
                 (15.0 * prob.d) ** (1.0 / 3.0))
        for horizon in (100, 1000):
            best = min(r.grad_z_norm ** 2 + r.grad_v_norm ** 2
                       for r in tr[:horizon])
            envelope = max(c1 * j0 / horizon, (c1 * j0 / horizon) ** 1.5)
            detail = min(detail, envelope / best)
            if best > envelope:
                ok = False
    _announce(4, f"gd min-gradient rate bound at T in {{100, 1000}} "
                 f"(tightest margin {detail:.2e}x)", ok)


def test_criterion_05_epie_equals_mapped_sgd():
    prob = synthesize_problem(8, seed=70, epsilon=0.0, alpha=0.0, beta=0.0)
    z0, v0 = initial_guess(8, 71)
    kwargs = dict(max_iters=1000, seed=72, epie_alpha=0.3, epie_beta=0.3)
    res_e = run(prob, z0, v0, SolverConfig(algorithm="epie", **kwargs),
                record_iterates=True)
    res_s = run(prob, z0, v0,
                SolverConfig(algorithm="sgd", sgd_step_rule="epie_scaled",
                             **kwargs), record_iterates=True)
    worst = max(max(np.max(np.abs(za - zb)), np.max(np.abs(va - vb)))
                for (za, va), (zb, vb) in zip(res_e.iterates, res_s.iterates))
    _announce(5, f"epie vs mapped sgd, shared index stream, 1000 steps "
                 f"(worst coord diff {worst:.2e} <= 1e-12)", worst <= 1e-12)


def test_criterion_06_stochastic_unbiasedness():
    uniform = synthesize_problem(8, seed=80)
    skew = synthesize_problem(8, seed=81,
                              p=np.array([0.44] + [0.08] * 7))
    ok = True
    worst = 0.0
    for i in range(10):
        prob = uniform if i % 2 == 0 else skew
        z, v = np_pair(8, 800 + i)
        report = check_unbiasedness(prob, z, v)
        worst = max(worst, -report.worst_slack)
        ok = ok and report.passed
    _announce(6, f"enumeration unbiasedness on 10 points incl. nonuniform p "
                 f"(worst dev {worst:.2e} <= 1e-12)", ok)


def test_criterion_07_bound_suite():
    ok = True
    rng = Rng(90)
    # sampled-gradient envelopes, uniform and lopsided sampling
    for p in (None, np.array([0.93] + [0.01] * 7)):
        prob = synthesize_problem(8, seed=91, p=p)
        ok = ok and check_gradient_bounds(prob, 50, rng).passed
    # bilinear transform bound in both shift modes
    for mode in ("circular", "zero-padded"):
        report = check_bilinear_bound(8, ShiftSet.all_shifts(8, mode), 50, rng)
        ok = ok and report.passed
    # loss upper bound
    prob16 = synthesize_problem(16, seed=92, epsilon=1e-3, alpha=0.0, beta=0.0)
    for i in range(100):
        z, v = np_pair(16, 900 + i)
        _, data = loss(prob16, z, v)
        cap = 16 * np.vdot(z, z).real * np.vdot(v, v).real + prob16.y_total
        ok = ok and data <= cap * (1 + 1e-9)
    # single-variable curvature never above d ||.||^2 + weight
    sub = synthesize_problem(32, shifts=ShiftSet(tuple(range(0, 32, 3))),
                             seed=93, alpha=1e-3, beta=1e-3)
    for i in range(100):
        z, v = np_pair(32, 1900 + i)
        obj_curv, win_curv = partial_lipschitz(sub, z, v)
        cap_obj = 32 * np.vdot(v, v).real + sub.alpha
        cap_win = 32 * np.vdot(z, z).real + sub.beta
        ok = ok and obj_curv <= cap_obj * (1 + 1e-9)
        ok = ok and win_curv <= cap_win * (1 + 1e-9)
    _announce(7, "bound suite: sampled-gradient envelopes, bilinear bound, "
                 "loss cap, curvature cap (100 samples each)", ok)


def test_criterion_08_sgd_loss_stabilization(sgd_runs):
    passing = 0
    ranges = []
    for res in sgd_runs:
        J = np.array([r.J for r in res.trace])
        tail = J[-len(J) // 10:]
        rel_range = float((tail.max() - tail.min()) / abs(tail.mean()))
        ranges.append(rel_range)
        if rel_range <= 1e-2:
            passing += 1
    _announce(8, f"sgd loss stabilization, trailing 10% rel range <= 1e-2 "
                 f"({passing}/10 seeds, worst {max(ranges):.2e})", passing >= 9)


def test_criterion_09_sgd_min_gradient_decay(sgd_runs):
    passing = 0
    slopes = []
    for res in sgd_runs:
        slope = fit_decay_slope(res.trace, t_min=100)
        slopes.append(slope)
        # a flat fit has no slope, so it counts as a failing seed
        if slope is not None and slope <= -0.2 + 0.3:
            passing += 1
    worst = "none" if None in slopes else f"{max(slopes):.3f}"
    _announce(9, f"sgd min-gradient decay slope <= 0.1 "
                 f"({passing}/10 seeds, worst {worst})", passing >= 8)


# Progress thresholds, from the epie_scaled runs above (numpy 2.4.6): over
# seeds 0-9, J_T / J_0 read 2.6e-5 to 0.126 and min ||g||^2 / ||g_0||^2
# 3.2e-12 to 0.025, so each threshold sits about 4x above its worst seed.
# The default-theta bounded runs (sgd_runs) read 0.9977-0.9996 and
# 0.9943-0.9989, and a run at mu = nu = 1e-12 reads 1.0 for both.
_PROGRESS_J = 0.5
_PROGRESS_GRAD = 0.1


def _progress(res):
    """(J_T / J_0, min_t ||g_t||^2 / ||g_0||^2, whether both clear their
    thresholds) of one run's trace, closing row included."""
    tr = res.trace
    g_sq = [r.grad_z_norm ** 2 + r.grad_v_norm ** 2 for r in tr]
    j_ratio, g_ratio = tr[-1].J / tr[0].J, min(g_sq) / g_sq[0]
    return j_ratio, g_ratio, j_ratio <= _PROGRESS_J and g_ratio <= _PROGRESS_GRAD


def test_criterion_14_sgd_progress(epie_scaled_runs):
    # criteria 8 and 9 also pass on runs that barely move; this one asks
    # the practical stochastic path to decrease J and the gradient
    checks = [_progress(res) for res in epie_scaled_runs]
    passing = sum(ok for _, _, ok in checks)
    worst_j = max(j for j, _, _ in checks)
    worst_g = max(g for _, g, _ in checks)
    _announce(14, f"epie_scaled sgd progress, J_T/J_0 <= {_PROGRESS_J} and "
                  f"min ||g||^2/||g_0||^2 <= {_PROGRESS_GRAD} ({passing}/10 "
                  f"seeds, worst {worst_j:.2e} and {worst_g:.2e})", passing == 10)


def test_progress_check_fails_on_runs_that_stand_still(sgd_runs):
    # negative controls: the default-theta bounded runs move J by about
    # 0.2 %, and a run at mu = nu = 1e-12 does not move at all
    for res in sgd_runs:
        j_ratio, g_ratio, ok = _progress(res)
        assert not ok and j_ratio > 0.99 and g_ratio > 0.99
    (still,) = _sgd_runs(range(1), mu=1e-12, nu=1e-12)
    j_ratio, g_ratio, ok = _progress(still)
    assert not ok and j_ratio > 0.999999 and g_ratio > 0.999999


def test_criterion_10_interval_descent():
    # Each single-variable endpoint decreases the loss by at least
    # ||g||^2 / L, with L the curvature its own update divides by
    # (object: ||g_z||^2 / L_obj, window: ||g_v||^2 / L_win).  The selected
    # step is the argmin of a grid that contains both endpoints, so its
    # decrease beats the better endpoint and hence the average of the two
    # endpoint guarantees, which is half their sum: ``bound_matched``.
    # ``bound_crossed`` exchanges the two curvatures; it is not implied by
    # the endpoint guarantees (on a separable quadratic with these
    # curvatures it exceeds the largest possible decrease whenever g_v = 0
    # and L_obj > 2 L_win), so its slack is only reported.
    worst_crossed = np.inf
    worst_matched = np.inf
    ok_select = True
    for seed in range(5):
        prob = synthesize_problem(16, seed=100 + seed, alpha=1e-3, beta=1e-3)
        z0, v0 = initial_guess(16, 3000 + seed)
        cfg = SolverConfig(algorithm="interval", max_iters=500, seed=seed)
        res = run(prob, z0, v0, cfg)
        for rec, step in zip(res.trace, res.interval_steps):
            worst_crossed = min(worst_crossed,
                                (step.decrease - step.bound_crossed) / (1 + rec.J))
            worst_matched = min(worst_matched,
                                (step.decrease - step.bound_matched) / (1 + rec.J))
            if step.loss_selected > min(step.loss_object_endpoint,
                                        step.loss_window_endpoint):
                ok_select = False
    print(f"[info] criterion 10 supplementary: exchanged-curvature pairing "
          f"worst slack {worst_crossed:.2e} (not implied, not asserted)")
    _announce(10, f"interval decrease >= half the sum of the endpoint "
                  f"guarantees (worst slack {worst_matched:.2e} vs -1e-9) "
                  f"and exact argmin selection",
              worst_matched >= -1e-9 and ok_select)


def test_criterion_11_ambiguity_invariance():
    ok = True
    for d in (8, 32):
        prob = synthesize_problem(d, seed=110 + d, epsilon=1e-3,
                                  alpha=0.0, beta=0.0)
        x, w = prob.truth
        shifts = prob.shifts
        base = forward_intensities(x, w, shifts).values
        k = np.arange(d)
        transforms = [
            (np.exp(0.9j) * x, np.exp(-1.7j) * w),
            ((1.3 - 0.8j) * x, w / (1.3 - 0.8j)),
            (np.exp(-2j * np.pi * 3 * k / d) * x,
             np.exp(2j * np.pi * 3 * k / d) * w),
        ]
        for xt, wt in transforms:
            moved = forward_intensities(xt, wt, shifts).values
            ok = ok and float(np.max(np.abs(moved - base))) <= 1e-10 * float(np.max(base))
            base_loss = loss(prob, x, w)[0]
            moved_loss = loss(prob, xt, wt)[0]
            ok = ok and abs(moved_loss - base_loss) <= 1e-10 * (1 + abs(base_loss))
        # closed-form correction absorbs the phase and scaling pairs
        err_phase = reconstruction_error(np.exp(0.9j) * x, np.exp(-0.9j) * w, x, w)
        err_scale = reconstruction_error((2.2 + 0.4j) * x, w / (2.2 + 0.4j), x, w)
        ok = ok and err_phase <= 1e-10 and err_scale <= 1e-10
    _announce(11, "measurement/loss invariance under the three ambiguity "
                  "transforms; corrected error <= 1e-10 on phase/scale pairs",
              ok)


def test_criterion_12_local_lipschitz_bound():
    worst = np.inf
    for eps in (1e-2, 1e-6):
        prob = synthesize_problem(8, seed=120, epsilon=eps)
        report = check_lipschitz(prob, 100, Rng(121))
        worst = min(worst, report.worst_slack)
    _announce(12, f"local gradient smoothness bound, 100 pairs, "
                  f"eps in {{1e-2, 1e-6}} (worst slack {worst:.2e})",
              worst >= -1e-9)


def test_criterion_13_trace_determinism(tmp_path):
    problem_path = tmp_path / "p.json"
    cli_main(["synth", "--d", "8", "--seed", "13", "--out", str(problem_path)])
    texts = {}
    for algo in ("sgd", "gd"):
        for attempt in ("first", "second"):
            out = tmp_path / f"{algo}_{attempt}"
            code = cli_main(["run", "--problem", str(problem_path), "--algo",
                             algo, "--iters", "80", "--seed", "5",
                             "--out-dir", str(out)])
            assert code == 0
            rows = (out / f"{algo}_run000_trace.csv").read_text().strip().split("\n")
            texts[(algo, attempt)] = [",".join(r.split(",")[:-1]) for r in rows]
    ok = (texts[("sgd", "first")] == texts[("sgd", "second")]
          and texts[("gd", "first")] == texts[("gd", "second")])
    _announce(13, "repeated runs reproduce trace CSVs byte-identically "
                  "(wall_ns column excluded)", ok)
