import inspect
import json
import re

import numpy as np
import pytest

from blindptycho import (Rng, ShiftSet, check_bilinear_bound,
                         check_descent_lemma, check_gradient_bounds,
                         check_gradient_fd, check_lipschitz,
                         check_unbiasedness, descent_upper_bound,
                         fd_wirtinger_gradient, gradient, loss,
                         reports_to_json, run_suite, stochastic_gradient,
                         synthesize_problem)
from blindptycho.verify import DEFAULT_TOL, SUITES, _sampled

from conftest import np_pair


def test_fd_recovers_tikhonov_term():
    # zero window and zeroed measurements leave only alpha ||z||^2 in the
    # object direction
    from blindptycho import Problem
    base = synthesize_problem(6, seed=1)
    prob = Problem(y=np.zeros_like(base.y), shifts=base.shifts, epsilon=1e-3,
                   alpha=0.37, beta=0.0, p=base.p, batch_size=1)
    z, _ = np_pair(6, 2)
    v = np.zeros(6, complex)
    fd = fd_wirtinger_gradient(prob, z, v)
    assert np.max(np.abs(fd.z - 0.37 * z)) < 1e-8


def test_fd_near_zero_at_truth():
    prob = synthesize_problem(8, seed=3, epsilon=1e-2, alpha=0.0, beta=0.0)
    fd = fd_wirtinger_gradient(prob, *prob.truth)
    assert np.max(np.abs(fd.z)) < 1e-8
    assert np.max(np.abs(fd.v)) < 1e-8


def test_fd_requires_positive_eps():
    prob = synthesize_problem(4, seed=4, epsilon=0.0)
    with pytest.raises(ValueError):
        fd_wirtinger_gradient(prob, *prob.truth)


def test_fd_second_order_convergence():
    # halving the step shrinks the disagreement by about 4x
    prob = synthesize_problem(8, seed=5, epsilon=1e-2)
    z, v = np_pair(8, 6)
    exact = gradient(prob, z, v)

    def err(h):
        fd = fd_wirtinger_gradient(prob, z, v, h_step=h)
        return max(np.max(np.abs(fd.z - exact.z)), np.max(np.abs(fd.v - exact.v)))

    e1, e2 = err(1e-3), err(5e-4)
    assert e1 / e2 == pytest.approx(4.0, rel=0.35)


def test_descent_checker_zero_displacement_slack():
    prob = synthesize_problem(8, seed=7, epsilon=1e-3)
    z, v = np_pair(8, 8)
    rhs = descent_upper_bound(prob, z, v, np.zeros(8, complex),
                              np.zeros(8, complex))
    assert rhs == loss(prob, z, v)[0]


@pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
def test_descent_checker_passes(scale):
    prob = synthesize_problem(8, seed=9, epsilon=1e-3)
    report = check_descent_lemma(prob, 200, scale, Rng(10))
    assert report.passed, report.worst_slack
    assert report.samples == 200


def test_unbiasedness_exact_uniform_and_nonuniform():
    prob = synthesize_problem(8, seed=11)
    z, v = np_pair(8, 12)
    assert check_unbiasedness(prob, z, v).passed

    p = np.array([0.7, 0.2, 0.1])
    prob_nu = synthesize_problem(4, shifts=ShiftSet((0, 1, 2)), seed=13, p=p)
    z, v = np_pair(4, 14)
    report = check_unbiasedness(prob_nu, z, v)
    assert report.passed, report.worst_slack


def test_unbiasedness_k3_triple_enumeration():
    # brute-force expectation over all index triples equals the gradient
    p = np.array([0.7, 0.2, 0.1])
    prob = synthesize_problem(4, shifts=ShiftSet((0, 1, 2)), seed=15, p=p,
                              batch_size=3)
    z, v = np_pair(4, 16)
    acc_z = np.zeros(4, complex)
    acc_v = np.zeros(4, complex)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                weight = p[a] * p[b] * p[c]
                g = stochastic_gradient(prob, z, v, [a, b, c])
                acc_z += weight * g.z
                acc_v += weight * g.v
    full = gradient(prob, z, v)
    norm = 1 + max(np.max(np.abs(full.z)), np.max(np.abs(full.v)))
    assert np.max(np.abs(acc_z - full.z)) / norm < 1e-12
    assert np.max(np.abs(acc_v - full.v)) / norm < 1e-12


def test_gradient_bounds_checker():
    prob = synthesize_problem(8, seed=17)
    assert check_gradient_bounds(prob, 100, Rng(18)).passed

    # lopsided sampling distribution stresses the 1/min(p) factor
    p = np.array([0.93] + [0.01] * 7)
    skew = synthesize_problem(8, seed=19, p=p)
    assert check_gradient_bounds(skew, 100, Rng(20)).passed


def test_bilinear_checker_both_modes():
    for mode in ("circular", "zero-padded"):
        report = check_bilinear_bound(8, ShiftSet.all_shifts(8, mode), 25, Rng(21))
        assert report.passed, report.name
    # sparse zero-padded subset
    report = check_bilinear_bound(8, ShiftSet((0, 3), "zero-padded"), 25, Rng(22))
    assert report.passed


@pytest.mark.parametrize("eps", [1e-2, 1e-6])
def test_lipschitz_checker(eps):
    prob = synthesize_problem(8, seed=23, epsilon=eps)
    report = check_lipschitz(prob, 100, Rng(24))
    assert report.passed, report.worst_slack


def test_lipschitz_equal_points_zero_sides():
    prob = synthesize_problem(8, seed=25, epsilon=1e-2)
    z, v = np_pair(8, 26)
    g = gradient(prob, z, v)
    diff = np.sqrt(np.vdot(g.z - g.z, g.z - g.z).real)
    assert diff == 0.0


def test_gradient_fd_checker():
    prob = synthesize_problem(8, seed=27, epsilon=1e-3)
    assert check_gradient_fd(prob, 5, Rng(28)).passed


def test_checker_determinism_and_json():
    prob = synthesize_problem(8, seed=29, epsilon=1e-3)
    a = check_descent_lemma(prob, 20, 1.0, Rng(30))
    b = check_descent_lemma(prob, 20, 1.0, Rng(30))
    assert a.worst_slack == b.worst_slack
    text = reports_to_json([a])
    parsed = json.loads(text)
    assert parsed[0]["name"] == "descent_lemma"
    assert parsed[0]["passed"] is True
    assert "tolerance" in parsed[0]["detail"]


def test_nan_sample_fails_the_check():
    # at scale 1e160 both sides of the descent bound overflow (inf - inf), so
    # every slack is NaN: the check fails and its report still writes
    prob = synthesize_problem(8, seed=1, epsilon=1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        report = check_descent_lemma(prob, 5, 1e160, Rng(2))
    assert not report.passed
    assert np.isnan(report.worst_slack)
    assert json.loads(reports_to_json([report]))[0]["worst_slack"] is None
    # one NaN among finite slacks is not skipped either
    slacks = iter([0.5, float("nan"), 0.25])
    assert not _sampled("mixed", 3, lambda: next(slacks), DEFAULT_TOL).passed


@pytest.mark.parametrize("check,message", [
    (lambda prob: fd_wirtinger_gradient(prob, *prob.truth),
     "finite differences require epsilon > 0"),
    (lambda prob: check_lipschitz(prob, 1, Rng(0)),
     "the smoothness check requires epsilon > 0"),
], ids=["fd", "lipschitz"])
def test_checks_that_need_smoothing(check, message):
    with pytest.raises(ValueError, match=message):
        check(synthesize_problem(4, seed=4, epsilon=0.0))


@pytest.mark.parametrize("check", [
    lambda prob, n: check_gradient_fd(prob, n, Rng(0)),
    lambda prob, n: check_descent_lemma(prob, n, 1.0, Rng(0)),
    lambda prob, n: check_gradient_bounds(prob, n, Rng(0)),
    lambda prob, n: check_bilinear_bound(prob.d, prob.shifts, n, Rng(0)),
    lambda prob, n: check_lipschitz(prob, n, Rng(0)),
], ids=["gradient_fd", "descent_lemma", "gradient_bounds", "bilinear_bound", "lipschitz"])
@pytest.mark.parametrize("n_samples", [0, -1])
def test_sampled_checkers_reject_no_samples(check, n_samples):
    # zero samples would pass with worst_slack = inf without checking anything
    prob = synthesize_problem(8, seed=1, epsilon=1e-3)
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        check(prob, n_samples)


_PROB = synthesize_problem(4, seed=1, epsilon=1e-3)


@pytest.mark.parametrize("call,message", [
    (lambda: run_suite(["descent"], samples=2.5), "samples must be an integer: 2.5"),
    (lambda: run_suite(["descent"], samples=True), "samples must be an integer: True"),
    # with a given problem the seed is checked as passed, not as seed + 1
    (lambda: run_suite(["descent"], problem=_PROB, seed=2.5), "seed must be an integer: 2.5"),
    (lambda: run_suite(["descent"], problem=_PROB, seed=True), "seed must be an integer: True"),
    (lambda: check_descent_lemma(_PROB, 2.5, 1.0, Rng(0)), "n_samples must be an integer: 2.5"),
    (lambda: check_gradient_bounds(_PROB, True, Rng(0)), "n_samples must be an integer: True"),
], ids=["suite-samples-fraction", "suite-samples-bool", "suite-seed-fraction",
        "suite-seed-bool", "n-samples-fraction", "n-samples-bool"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_integral_float_sample_counts():
    # 2.0 means 2, in the checkers and in the report
    assert check_descent_lemma(_PROB, 2.0, 1.0, Rng(5)) == check_descent_lemma(_PROB, 2, 1.0, Rng(5))
    reports = run_suite(["descent"], problem=_PROB, samples=2.0)
    assert reports == run_suite(["descent"], problem=_PROB, samples=2)
    assert all(type(r.samples) is int for r in reports)
    assert run_suite(["descent"], problem=_PROB, seed=3.0, samples=2) == \
        run_suite(["descent"], problem=_PROB, seed=3, samples=2)


def test_run_suite_all_pass():
    reports = run_suite(("unbiasedness", "bilinear", "gradient_bounds"),
                        seed=1, samples=20)
    assert reports and all(r.passed for r in reports)


def test_bilinear_suite_on_offsets_equal_mod_d():
    # -4 and 4 agree mod 8: the circular report runs on the residues
    # (0, 4, 6), the zero-padded one on the offsets as they are
    prob = synthesize_problem(8, shifts=ShiftSet((-4, -2, 0, 4), "zero-padded"),
                              seed=3)
    reports = run_suite(["bilinear"], problem=prob, samples=10)
    assert [r.name for r in reports] == ["bilinear_bound[circular]",
                                         "bilinear_bound[zero-padded]"]
    assert all(r.passed for r in reports)


def test_run_suite_pinned_draws():
    # literal worst slacks of the reports above rounding level (None: at
    # rounding level); a change to the checkers' draws or arithmetic moves them
    expected = [
        ("gradient_fd", None),
        ("descent_lemma", 0.02550245073563167),
        ("descent_lemma", 0.7536025419870396),
        ("descent_lemma", 0.4828265590818514),
        ("unbiasedness", None),
        ("gradient_bounds", 0.9945487496235119),
        ("bilinear_bound[circular]", None),
        ("bilinear_bound[zero-padded]", 0.23062258118147336),
        ("lipschitz", 0.9991648785640243),
    ]
    reports = run_suite(SUITES, seed=0, samples=12)
    assert [r.name for r in reports] == [name for name, _ in expected]
    assert all(r.passed and r.samples >= 1 for r in reports)
    for report, (_, slack) in zip(reports, expected):
        if slack is not None:
            assert report.worst_slack == pytest.approx(slack, rel=1e-9)


def test_each_check_runs_at_its_own_tolerance():
    # no check takes a tolerance from its caller; every report states its own
    for check in (check_gradient_fd, check_descent_lemma, check_unbiasedness,
                  check_gradient_bounds, check_bilinear_bound, check_lipschitz):
        assert "tol" not in inspect.signature(check).parameters
    tolerance = {"gradient_fd": "1e-06", "unbiasedness": "1e-12"}
    for report in run_suite(SUITES, seed=0, samples=2):
        expected = tolerance.get(report.name, "1e-09")
        assert report.detail.startswith(f"tolerance={expected} (relative slack)")


def test_run_suite_rejects_unknown_before_running():
    # gradient_fd would raise on epsilon = 0; the unknown name is caught first
    prob = synthesize_problem(8, seed=31, epsilon=0.0)
    with pytest.raises(ValueError, match="unknown check suite: 'nope'"):
        run_suite(("gradient_fd", "nope"), problem=prob)
