import itertools
import math
import re
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from blindptycho import (ALGORITHMS, DivergenceError, NoiseModel, Problem, Rng,
                         ShiftSet, SolverConfig, gd_step_sizes, gradient,
                         gradient_region, loss_and_gradient, partial_lipschitz,
                         read_trace, run, sample_indices, sgd_max_step,
                         step_curvature_bound, stochastic_gradient,
                         synthesize_problem, trace_to_csv, write_trace)
from blindptycho import solvers
from blindptycho.fourier import dft, shift
from blindptycho.harness import ExperimentConfig
from blindptycho.objective import GradientPair, _sq_norm
from blindptycho.solvers import TRACE_HEADER, _draw_row

from conftest import np_pair


# ---------------------------------------------------------------------------
# step sizes

def test_gd_step_zero_gradient_uses_curvature_bound():
    prob = synthesize_problem(8, seed=1, alpha=0.2, beta=0.1)
    z, v = np_pair(8, 2)
    zero = GradientPair(np.zeros(8, complex), np.zeros(8, complex))
    mu, nu = gd_step_sizes(prob, z, v, *zero.norms())
    assert mu == nu == pytest.approx(1.0 / step_curvature_bound(prob, z, v))


def test_gd_step_gradient_branch():
    # zeroed measurements, zero iterates, no Tikhonov: the curvature bound
    # vanishes and only the gradient-norm branches remain
    from blindptycho import Problem
    base = synthesize_problem(4, seed=3)
    prob = Problem(y=np.zeros_like(base.y), shifts=base.shifts, epsilon=0.0,
                   alpha=0.0, beta=0.0, p=base.p, batch_size=1)
    zeros = np.zeros(4, complex)
    g = np.zeros(4, complex)
    g[0] = 2.0
    pair = GradientPair(g, 0.5 * g)
    mu, nu = gd_step_sizes(prob, zeros, zeros, *pair.norms())
    scale = (15.0 * 4 / 4.0) ** (-1 / 3)
    assert mu == pytest.approx(scale * 2.0 ** (-2 / 3), rel=1e-12)
    assert nu == mu


def test_gd_step_arithmetic_example():
    from blindptycho import Problem
    base = synthesize_problem(4, seed=4)
    prob = Problem(y=np.zeros_like(base.y), shifts=base.shifts, epsilon=0.0,
                   alpha=1.0, beta=1.0, p=base.p, batch_size=1)
    zeros = np.zeros(4, complex)
    pair = GradientPair(zeros, zeros)
    mu, _ = gd_step_sizes(prob, zeros, zeros, *pair.norms())
    assert mu == pytest.approx(1.0 / 3.0)
    assert mu <= 1.0 / 3.0 + 1e-15


# ---------------------------------------------------------------------------
# gradient descent

def test_gd_fixed_point_at_truth():
    prob = synthesize_problem(8, seed=5, alpha=0.0, beta=0.0)
    x, w = prob.truth
    res = run(prob, x, w, SolverConfig(algorithm="gd", max_iters=20))
    assert np.array_equal(res.z, x)
    assert np.array_equal(res.v, w)
    assert all(r.J == res.trace[0].J for r in res.trace)


def test_gd_monotone_descent_500_iters():
    prob = synthesize_problem(16, seed=6)
    z0, v0 = np_pair(16, 60)
    res = run(prob, z0, v0, SolverConfig(algorithm="gd", max_iters=500))
    tr = res.trace
    assert len(tr) == 501
    for a, b in zip(tr, tr[1:]):
        assert b.J <= a.J + 1e-10 * (1 + a.J)


def test_gd_update_rule_matches_trace():
    # the loop's rule takes the monitor's norms and per-run constants; its
    # steps must be the public gd_step_sizes at the recorded iterate, bit for
    # bit.  The ratio term branches on eps, so eps = 0 is covered too.
    for epsilon, mu, nu in [(1e-8, 1.0, 1.0), (0.0, 0.5, 0.25)]:
        prob = synthesize_problem(8, seed=7, epsilon=epsilon)
        z0, v0 = np_pair(8, 70)
        cfg = SolverConfig(algorithm="gd", max_iters=5, mu=mu, nu=nu)
        res = run(prob, z0, v0, cfg, record_iterates=True)
        z = np.array(z0)
        v = np.array(v0)
        for t, (zt, vt) in enumerate(res.iterates[1:]):
            g = gradient(prob, z, v)
            row = res.trace[t]
            assert (row.mu_t, row.nu_t) == \
                gd_step_sizes(prob, z, v, *g.norms(), mu, nu)
            z = z - row.mu_t * g.z
            v = v - row.nu_t * g.v
            assert np.array_equal(z, zt)
            assert np.array_equal(v, vt)


def test_gd_step_factors_scale_steps_and_still_descend():
    prob = synthesize_problem(8, seed=10)
    z0, v0 = np_pair(8, 90)
    rate = run(prob, z0, v0, SolverConfig(algorithm="gd", max_iters=50))
    cap = run(prob, z0, v0, SolverConfig(algorithm="gd", max_iters=50,
                                         mu=0.5, nu=0.25))
    assert cap.trace[0].mu_t == pytest.approx(0.5 * rate.trace[0].mu_t)
    assert cap.trace[0].nu_t == pytest.approx(0.25 * rate.trace[0].nu_t)
    for a, b in zip(cap.trace, cap.trace[1:]):
        assert b.J <= a.J + 1e-10 * (1 + a.J)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_grad_tol_stop(algo):
    # positive Tikhonov weights (interval descent needs them) keep the truth
    # from being stationary: the tolerance sits just above its gradient norm
    prob = synthesize_problem(8, seed=8, alpha=0.1, beta=0.1)
    x, w = prob.truth
    tol = 1.001 * float(np.hypot(*gradient(prob, x, w).norms()))
    res = run(prob, x, w, SolverConfig(algorithm=algo, max_iters=50,
                                       grad_tol=tol))
    assert len(res.trace) == 1
    assert res.trace[0].t == 0 and res.trace[0].mu_t == res.trace[0].nu_t == 0.0
    below = run(prob, x, w, SolverConfig(algorithm=algo, max_iters=1,
                                         grad_tol=tol / 1.002))
    assert len(below.trace) == 2           # one step, then the closing row


def test_gd_divergence_diagnostic():
    prob = synthesize_problem(4, seed=9)
    huge = np.full(4, 1e200, dtype=complex)   # finite, but J overflows
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError, match="iteration 0") as excinfo:
        run(prob, huge, huge, SolverConfig(algorithm="gd", max_iters=3))
    partial = excinfo.value.run           # the partial run travels with it
    assert partial.trace == [] and np.array_equal(partial.z, huge)
    # a non-finite start is a usage error, not a divergence
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="starting pair must be finite"):
            run(prob, np.full(4, bad, dtype=complex), huge,
                SolverConfig(algorithm="gd", max_iters=3))


# ---------------------------------------------------------------------------
# sampling and the stochastic gradient

def test_sample_indices_point_mass_and_k1():
    rng = Rng(0)
    point = synthesize_problem(8, shifts=ShiftSet((5,)))
    assert sample_indices(point, 4, rng) == [5, 5, 5, 5]
    assert len(sample_indices(synthesize_problem(2), 1, rng)) == 1


def test_sample_indices_frequencies():
    rng = Rng(11)
    draws = sample_indices(synthesize_problem(8), 100_000, rng)
    counts = np.bincount(draws, minlength=8) / 100_000
    sigma = np.sqrt((1 / 8) * (7 / 8) / 100_000)
    assert np.all(np.abs(counts - 1 / 8) < 5 * sigma)


def test_sample_indices_nonuniform():
    rng = Rng(12)
    p = np.array([0.7, 0.2, 0.1])
    draws = sample_indices(synthesize_problem(3, p=p), 50_000, rng)
    freq = np.bincount(draws, minlength=3) / 50_000
    assert np.all(np.abs(freq - p) < 0.01)


def test_sample_indices_deterministic():
    prob = synthesize_problem(4)
    a = sample_indices(prob, 50, Rng(13))
    b = sample_indices(prob, 50, Rng(13))
    assert a == b


def test_sample_indices_pinned_draws():
    # the inverse-CDF draw stream, one uniform per draw, for a zero-padded
    # problem with ramped p and K = 4
    offsets = tuple(range(-6, 16, 2))
    p = np.linspace(1.0, 3.0, len(offsets))
    prob = synthesize_problem(16, shifts=ShiftSet(offsets, "zero-padded"),
                              seed=3, p=p / p.sum(), batch_size=4)
    draws = [sample_indices(prob, prob.batch_size, Rng(s)) for s in range(3)]
    assert draws == [[14, 6, -6, 14], [8, 12, 14, 6], [8, 12, 8, 12]]


@pytest.mark.parametrize("p", [
    np.full(8, 1 / 8),
    np.linspace(1.0, 3.0, 40) / np.linspace(1.0, 3.0, 40).sum(),
    np.array([0.5, 0.0, 0.25, 0.0, 0.25]),
    np.array([0.7, 0.2, 0.1]),
], ids=["uniform", "ramped", "zero-mass", "skewed"])
def test_draw_rows_matches_searchsorted(p):
    # the inverse-CDF draw equals numpy's searchsorted on the same
    # uniforms, at and next to every CDF entry and at or past the last one
    cdf = np.cumsum(p)
    stream = Rng(21)
    u = [stream.uniform() for _ in range(200)] + [0.0, 1.0 - 2.0 ** -53]
    for c in cdf:
        u += [float(c), float(np.nextafter(c, 0.0)), float(np.nextafter(c, 2.0))]
    expected = np.minimum(np.searchsorted(cdf, u, side="right"), len(p) - 1)
    assert [_draw_row(cdf.tolist(), x) for x in u] == expected.tolist()


def test_stochastic_gradient_k1_uniform_scaling(small_problem):
    z, v = np_pair(8, 14)
    from blindptycho import gradient_region
    g = stochastic_gradient(small_problem, z, v, [3])
    part = gradient_region(small_problem, z, v, 3)
    assert np.allclose(g.z, 8 * part.z, rtol=1e-12)
    assert np.allclose(g.v, 8 * part.v, rtol=1e-12)


def test_stochastic_gradient_full_pass_recovers_gradient(small_problem):
    z, v = np_pair(8, 15)
    g = stochastic_gradient(small_problem, z, v, list(small_problem.offsets))
    full = gradient(small_problem, z, v)
    norm = 1 + max(np.max(np.abs(full.z)), np.max(np.abs(full.v)))
    assert np.max(np.abs(g.z - full.z)) / norm < 1e-12
    assert np.max(np.abs(g.v - full.v)) / norm < 1e-12


def test_unbiasedness_enumeration(small_problem):
    z, v = np_pair(8, 16)
    acc_z = np.zeros(8, complex)
    acc_v = np.zeros(8, complex)
    for i, r in enumerate(small_problem.offsets):
        g = stochastic_gradient(small_problem, z, v, [r])
        acc_z += small_problem.p[i] * g.z
        acc_v += small_problem.p[i] * g.v
    full = gradient(small_problem, z, v)
    norm = 1 + max(np.max(np.abs(full.z)), np.max(np.abs(full.v)))
    assert np.max(np.abs(acc_z - full.z)) / norm < 1e-12
    assert np.max(np.abs(acc_v - full.v)) / norm < 1e-12


# ---------------------------------------------------------------------------
# sgd

def test_sgd_max_step_cases():
    prob = synthesize_problem(8, seed=17)
    z, v = np_pair(8, 18)
    from blindptycho import stochastic_gradient_bounds
    bound = step_curvature_bound(prob, z, v)
    b_z, b_v = stochastic_gradient_bounds(prob, z, v)
    theta = 0.5
    # K = 1 drops the (1 - 1/K) branch
    m = sgd_max_step(prob, z, v, t=0, theta=theta, kappa=0.2)
    expected = min(bound ** (-2.0), b_z ** (-0.8), b_v ** (-0.8))
    assert m == pytest.approx(expected, rel=1e-12)
    # K = 2, theta = 1/2: the last branch equals 4; the envelopes are K = 1's
    prob2 = synthesize_problem(8, seed=17, batch_size=2)
    b2_z, b2_v = stochastic_gradient_bounds(prob2, z, v)
    m2 = sgd_max_step(prob2, z, v, t=0, theta=theta, kappa=0.2)
    assert m2 == pytest.approx(min(bound ** (-2.0), b2_z ** (-0.8),
                                   b2_v ** (-0.8), 4.0), rel=1e-12)
    # t scales only the curvature branch
    m_t = sgd_max_step(prob, z, v, t=9, theta=theta, kappa=0.2)
    expected_t = min(10 ** (-0.8) * bound ** (-2.0), b_z ** (-0.8), b_v ** (-0.8))
    assert m_t == pytest.approx(expected_t, rel=1e-12)


def test_sgd_max_step_zero_branches_drop_out():
    # zero iterates with no Tikhonov weight zero out the sampled-gradient
    # envelopes; only the curvature branch survives
    prob = synthesize_problem(8, seed=44, alpha=0.0, beta=0.0)
    zeros = np.zeros(8, complex)
    m = sgd_max_step(prob, zeros, zeros, t=0, theta=0.5, kappa=0.2)
    assert m == pytest.approx(step_curvature_bound(prob, zeros, zeros) ** -2.0,
                              rel=1e-12)


def test_sgd_max_step_theta_zero_drops_last_branch():
    prob = synthesize_problem(8, seed=19, batch_size=4)
    z, v = np_pair(8, 20)
    m = sgd_max_step(prob, z, v, t=0, theta=0.0, kappa=-0.5)
    bound = step_curvature_bound(prob, z, v)
    from blindptycho import stochastic_gradient_bounds
    b_z, b_v = stochastic_gradient_bounds(prob, z, v)
    expected = min(bound ** (-1.0), b_z ** (-2 / 3), b_v ** (-2 / 3))
    assert m == pytest.approx(expected, rel=1e-12)


def test_sgd_seed_determinism():
    prob = synthesize_problem(8, seed=21)
    z0, v0 = np_pair(8, 22)
    cfg = SolverConfig(algorithm="sgd", max_iters=100, seed=5)
    a = run(prob, z0, v0, cfg)
    b = run(prob, z0, v0, cfg)
    assert np.array_equal(a.z, b.z) and np.array_equal(a.v, b.v)
    assert trace_to_csv(a.trace).split() != []  # smoke: serializable
    for ra, rb in zip(a.trace, b.trace):
        assert (ra.t, ra.J, ra.mu_t) == (rb.t, rb.J, rb.mu_t)


def test_sgd_single_region_matches_gd_with_same_steps():
    # R = 1 and p = (1): sampling is degenerate, the stochastic gradient is
    # the full gradient, so sgd and gd agree once the steps are identical
    prob = synthesize_problem(8, shifts=ShiftSet((0,)), seed=23)
    z0, v0 = np_pair(8, 24)
    cfg = SolverConfig(algorithm="sgd", max_iters=40, seed=3)
    sgd_res = run(prob, z0, v0, cfg, record_iterates=True)
    z = np.array(z0)
    v = np.array(v0)
    for t in range(40):
        g = gradient(prob, z, v)
        z = z - sgd_res.trace[t].mu_t * g.z
        v = v - sgd_res.trace[t].nu_t * g.v
        assert np.allclose(z, sgd_res.iterates[t + 1][0], rtol=0, atol=1e-13)
        assert np.allclose(v, sgd_res.iterates[t + 1][1], rtol=0, atol=1e-13)


def test_sgd_update_norm_identity():
    prob = synthesize_problem(8, seed=25)
    z0, v0 = np_pair(8, 26)
    cfg = SolverConfig(algorithm="sgd", max_iters=30, seed=7)
    res = run(prob, z0, v0, cfg, record_iterates=True)
    rng = Rng(7)
    z, v = np.array(z0), np.array(v0)
    for t in range(30):
        drawn = sample_indices(prob, 1, rng)
        g = stochastic_gradient(prob, z, v, drawn)
        gz = float(np.linalg.norm(g.z))
        # recovering the step from iterate differences cancels ~1e-11 of
        # relative precision; the identity itself is exact
        step = float(np.linalg.norm(res.iterates[t + 1][0] - z))
        assert step == pytest.approx(res.trace[t].mu_t * gz, rel=1e-9, abs=1e-300)
        z, v = res.iterates[t + 1]


@pytest.mark.parametrize("mode,d,k,rule", [("circular", 8, 1, "epie_scaled"),
                                            ("zero-padded", 16, 3, "bounded"),
                                            ("circular", 8, 3, "bounded")])
def test_sgd_step_is_public_stochastic_gradient(mode, d, k, rule):
    # the sgd step sums drawn rows of the monitor's row gradients; it must be
    # the public stochastic gradient at the recorded iterate times mu_t, nu_t,
    # and a bounded step the public sgd_max_step, bit for bit (eps = 0 and
    # eps > 0: the ratio term branches on eps).  At K = 3 a run draws 300
    # uniforms, from blocks of 256 and 44, against the reference's scalar
    # draws.
    offsets = tuple(range(-4, d, 3)) if mode == "zero-padded" else tuple(range(d))
    p = np.linspace(1.0, 2.0, len(offsets))
    for epsilon in (1e-8, 0.0):
        prob = synthesize_problem(d, shifts=ShiftSet(offsets, mode), seed=49,
                                  epsilon=epsilon, p=p / p.sum(), batch_size=k)
        z0, v0 = np_pair(d, 50)
        cfg = SolverConfig(algorithm="sgd", max_iters=100, seed=8,
                           sgd_step_rule=rule)
        res = run(prob, z0, v0, cfg, record_iterates=True)
        rng = Rng(8)
        for t, row in enumerate(res.trace[:-1]):
            z, v = res.iterates[t]
            g = stochastic_gradient(prob, z, v, sample_indices(prob, k, rng))
            z_next, v_next = res.iterates[t + 1]
            assert np.array_equal(z_next, z - row.mu_t * g.z)
            assert np.array_equal(v_next, v - row.nu_t * g.v)
            if rule == "bounded":
                m = sgd_max_step(prob, z, v, t, cfg.theta, cfg.kappa)
                assert (row.mu_t, row.nu_t) == (cfg.mu * m, cfg.nu * m)


def test_stochastic_gradient_repeated_draws_match_region_sum():
    # d = 100 is not a power of two; K = 4 draws with a repeated offset
    offsets = tuple(range(-60, 100, 4))
    p = np.linspace(1.0, 3.0, len(offsets))
    prob = synthesize_problem(100, shifts=ShiftSet(offsets, "zero-padded"),
                              seed=51, epsilon=1e-3, p=p / p.sum(), batch_size=4)
    z, v = np_pair(100, 52)
    drawn = sample_indices(prob, 4, Rng(8))
    assert len(set(drawn)) < len(drawn)
    g = stochastic_gradient(prob, z, v, drawn)
    acc_z = np.zeros(100, complex)
    acc_v = np.zeros(100, complex)
    for r in drawn:
        part = gradient_region(prob, z, v, r)
        weight = 1.0 / (4 * prob.p[prob.offset_row[r]])
        acc_z += weight * part.z
        acc_v += weight * part.v
    norm = 1 + max(np.max(np.abs(acc_z)), np.max(np.abs(acc_v)))
    assert np.max(np.abs(g.z - acc_z)) / norm < 1e-12
    assert np.max(np.abs(g.v - acc_v)) / norm < 1e-12


def test_sgd_config_validation():
    with pytest.raises(ValueError, match="theta"):
        SolverConfig(algorithm="sgd", theta=0.0)
    with pytest.raises(ValueError, match="kappa"):
        SolverConfig(algorithm="sgd", theta=0.5, kappa=0.4)
    with pytest.raises(ValueError, match="mu"):
        SolverConfig(algorithm="sgd", mu=1.5)
    # every range holds whatever the algorithm, epie_scaled sgd included
    for algo, bad in [("gd", {"theta": 0.0}), ("epie", {"kappa": -0.1}),
                      ("sgd", {"epie_alpha": -1.0}), ("interval", {"epie_beta": 0.0})]:
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverConfig(algorithm=algo, sgd_step_rule="epie_scaled", **bad)
    for name in ("grad_tol", "theta", "kappa", "mu", "nu", "epie_alpha",
                 "epie_beta"):
        for value in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SolverConfig(algorithm="sgd", **{name: value})
    # integral settings: a fraction is rejected, not truncated; 2.0 is kept as 2
    for algo, name in [("gd", "max_iters"), ("sgd", "seed"), ("interval", "gamma_grid")]:
        for value in (2.5, np.nan, np.inf, "3", True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SolverConfig(algorithm=algo, **{name: value})
        kept = getattr(SolverConfig(algorithm=algo, **{name: 2.0}), name)
        assert kept == 2 and type(kept) is int


@pytest.mark.parametrize("name", ["grad_tol", "theta", "kappa", "mu", "nu",
                                  "epie_alpha", "epie_beta"])
def test_real_settings_reject_a_bool(name):
    # a bool is not a number, as it is not a count: not even True for mu = 1
    for value in (True, False):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a number: {value}")):
            SolverConfig(**{name: value})
    with pytest.raises(ValueError, match=f"{name} must be a number: "):
        SolverConfig(**{name: np.True_})


_PROBLEM_ARGS = dict(epsilon=0.0, alpha=0.0, beta=0.0)


@pytest.mark.parametrize("owner,name", [
    *[(SolverConfig, name) for name in ("grad_tol", "theta", "kappa", "mu", "nu",
                                        "epie_alpha", "epie_beta")],
    *[(Problem, name) for name in _PROBLEM_ARGS],
    (NoiseModel, "sigma"), (ExperimentConfig, "init_scale")])
def test_real_settings_reject_non_numbers(owner, name):
    # one number rule: the same text for every real setting, tagged with the
    # field by a Problem, and a number stored as a float
    base = synthesize_problem(4, seed=9)

    def build(value):
        if owner is SolverConfig:
            return SolverConfig(**{name: value})
        if owner is NoiseModel:
            return NoiseModel("gaussian", value)
        if owner is ExperimentConfig:
            return ExperimentConfig(problem=base, solvers=[], init_scale=value)
        return Problem(y=base.y, shifts=base.shifts, p=base.p,
                       **{**_PROBLEM_ARGS, name: value})
    for value in ("0.5", None, True, np.True_, [0.5], 1j):
        with pytest.raises(ValueError) as info:
            build(value)
        assert type(info.value) is ValueError
        assert str(info.value) == f"{name} must be a number: {value!r}"
        if owner is Problem:
            assert info.value.field == name
    # an int too large for a float is infinite: the rule's error, not an
    # OverflowError
    with pytest.raises(ValueError) as info:
        build(10**400)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{name} must be finite: inf"
    if owner is Problem:
        assert info.value.field == name
    number = 0.25 if name == "kappa" else 0.5
    kept = getattr(build(np.float32(number)), name)
    assert kept == number and type(kept) is float


def test_solver_config_checked_when_built_and_frozen():
    with pytest.raises(ValueError, match="theta"):
        SolverConfig(theta=0.0)
    cfg = SolverConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.theta = 0.0
    # a derived config is checked again
    with pytest.raises(ValueError, match="mu"):
        replace(cfg, mu=2.0)


_PROB = synthesize_problem(4, seed=9)
_PAIR = np_pair(4, 10)


@pytest.mark.parametrize("call,message", [
    (lambda: SolverConfig(max_iters=-1), "max_iters must be >= 0"),
    (lambda: SolverConfig(grad_tol=-1.0), "grad_tol must be >= 0: -1.0"),
    (lambda: SolverConfig(algorithm="interval", gamma_grid=1), "gamma_grid must be >= 2"),
    (lambda: stochastic_gradient(_PROB, *_PAIR, []),
     "indices must contain at least one offset"),
    (lambda: stochastic_gradient(_PROB, *_PAIR, [99]), "unknown region offset: 99"),
    (lambda: gradient_region(_PROB, *_PAIR, 99), "unknown region offset: 99"),
    (lambda: gradient_region(_PROB, *_PAIR, True), "unknown region offset: True"),
    (lambda: sample_indices(_PROB, -1, Rng(0)), "k must be >= 1: -1"),
    # run checks its starting pair as every public iterate is checked
    (lambda: run(_PROB, _PAIR[0][:3], _PAIR[1], SolverConfig()),
     "z and v must be 1-d arrays of length d"),
    (lambda: run(_PROB, _PAIR[0], np.ones((4, 1)), SolverConfig()),
     "z and v must be 1-d arrays of length d"),
], ids=["max-iters-negative", "grad-tol-negative", "gamma-grid-1",
        "no-indices", "unknown-index", "unknown-region", "bool-region",
        "draws-negative", "run-short-start", "run-2d-start"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_run_records_iterates_on_request():
    cfg = SolverConfig(max_iters=3)
    assert run(_PROB, *_PAIR, cfg).iterates is None
    res = run(_PROB, *_PAIR, cfg, record_iterates=True)
    assert len(res.iterates) == 4
    assert all(np.array_equal(a, b) for a, b in zip(res.iterates[0], _PAIR))
    assert res.iterates[0][0] is not _PAIR[0]      # a copy, not the caller's array
    assert np.array_equal(res.iterates[-1][0], res.z)


@pytest.mark.parametrize("name", sorted(SolverConfig.CHOICES))
def test_config_choices_reject_unknown(name):
    for value in SolverConfig.CHOICES[name]:
        SolverConfig(**{name: value})
    with pytest.raises(ValueError, match=f"unknown {name}: 'bogus'"):
        SolverConfig(**{name: "bogus"})


# ---------------------------------------------------------------------------
# epie

def test_epie_fixed_point_at_truth():
    prob = synthesize_problem(8, seed=27, epsilon=0.0, alpha=0.0, beta=0.0)
    x, w = prob.truth
    res = run(prob, x, w, SolverConfig(algorithm="epie", max_iters=100, seed=1))
    # the kernel's residual at the noiseless truth is exactly zero
    assert np.array_equal(res.z, x) and np.array_equal(res.v, w)


def test_epie_zero_steps_freeze_iterates():
    prob = synthesize_problem(8, seed=28, epsilon=0.0, alpha=0.0, beta=0.0)
    z0, v0 = np_pair(8, 29)
    cfg = SolverConfig(algorithm="epie", max_iters=20, seed=2,
                       epie_alpha=1e-300, epie_beta=1e-300)
    res = run(prob, z0, v0, cfg)
    assert np.allclose(res.z, z0, rtol=0, atol=1e-290)
    assert np.allclose(res.v, v0, rtol=0, atol=1e-290)


@pytest.mark.parametrize("algo", ["epie", "sgd"])
def test_epie_zero_iterate_aborts(algo):
    # sgd with epie_scaled steps divides by the same sup norms
    prob = synthesize_problem(8, seed=30, epsilon=0.0, alpha=0.0, beta=0.0)
    zeros = np.zeros(8, complex)
    with pytest.raises(DivergenceError, match="iteration 0: zero iterate") as excinfo:
        run(prob, zeros, np.ones(8, complex),
            SolverConfig(algorithm=algo, max_iters=5, sgd_step_rule="epie_scaled"))
    partial = excinfo.value.run           # attached by the solver loop
    assert partial.trace == [] and np.array_equal(partial.z, zeros)


def test_epie_matches_sgd_with_mapped_steps():
    # on a circular family with uniform p and a zero-padded one with ramped p
    padded = ShiftSet(tuple(range(-6, 12, 3)), "zero-padded")
    ramp = np.linspace(1.0, 3.0, len(padded))
    problems = [(8, synthesize_problem(8, seed=31, epsilon=0.0, alpha=0.0, beta=0.0)),
                (12, synthesize_problem(12, shifts=padded, seed=33, epsilon=0.0,
                                        alpha=0.0, beta=0.0, p=ramp / ramp.sum()))]
    kwargs = dict(max_iters=300, seed=4, epie_alpha=0.4, epie_beta=0.6)
    for d, prob in problems:
        z0, v0 = np_pair(d, 32)
        res_e = run(prob, z0, v0, SolverConfig(algorithm="epie", **kwargs),
                    record_iterates=True)
        res_s = run(prob, z0, v0, SolverConfig(algorithm="sgd",
                                               sgd_step_rule="epie_scaled",
                                               **kwargs), record_iterates=True)
        assert len(res_e.iterates) == len(res_s.iterates) == 301
        for (za, va), (zb, vb) in zip(res_e.iterates, res_s.iterates):
            assert np.array_equal(za, zb) and np.array_equal(va, vb)
        assert [(r.J, r.mu_t, r.nu_t) for r in res_e.trace] == \
            [(r.J, r.mu_t, r.nu_t) for r in res_s.trace]


def _projection_step(problem, z, v, row, a, b):
    """The textbook engine update on region ``row``: project the exit wave's
    spectrum onto the measured magnitudes and feed the exit-wave difference
    back to object and window."""
    r, mode = problem.offsets[row], problem.shifts.mode
    sv = shift(v, r, mode)
    spectrum = dft(z * sv)
    mag = np.abs(spectrum)
    scale = np.divide(np.sqrt(problem.y[row]), mag, out=np.zeros_like(mag),
                      where=mag > 0)
    delta = np.fft.ifft(scale * spectrum) - z * sv
    return (z + a * np.conj(sv) * delta / np.max(np.abs(v)) ** 2,
            v + b * shift(np.conj(z) * delta, -r, mode) / np.max(np.abs(z)) ** 2)


@pytest.mark.parametrize("schedule", ["iid", "shuffled"])
@pytest.mark.parametrize("shifts", [ShiftSet.all_shifts(8),
                                    ShiftSet(tuple(range(-6, 12, 3)), "zero-padded")],
                         ids=["circular", "zero-padded"])
def test_epie_step_is_the_projection_update(shifts, schedule):
    # smoothing and Tikhonov weights are the loss's, not the engine's
    d = 8 if shifts.mode == "circular" else 12
    prob = synthesize_problem(d, shifts=shifts, seed=40, epsilon=1e-3, alpha=1e-2,
                              beta=1e-2)
    z0, v0 = np_pair(d, 41)
    cfg = SolverConfig(algorithm="epie", max_iters=1, seed=9, epie_alpha=0.7,
                       epie_beta=0.4, epie_schedule=schedule)
    z1, v1 = run(prob, z0, v0, cfg, record_iterates=True).iterates[1]
    if schedule == "iid":
        row = prob.offset_row[sample_indices(prob, 1, Rng(9))[0]]
    else:
        order = list(range(prob.n_regions))
        Rng(9).shuffle(order)
        row = order[-1]
    z_ref, v_ref = _projection_step(prob, z0, v0, row, 0.7, 0.4)
    assert np.linalg.norm(z1 - z_ref) <= 1e-13 * np.linalg.norm(z_ref)
    assert np.linalg.norm(v1 - v_ref) <= 1e-13 * np.linalg.norm(v_ref)


def test_epie_seed_determinism():
    prob = synthesize_problem(8, seed=47, epsilon=0.0, alpha=0.0, beta=0.0)
    z0, v0 = np_pair(8, 48)
    cfg = SolverConfig(algorithm="epie", max_iters=100, seed=6, epie_alpha=0.3,
                       epie_beta=0.3)
    a = run(prob, z0, v0, cfg)
    b = run(prob, z0, v0, cfg)
    assert np.array_equal(a.z, b.z) and np.array_equal(a.v, b.v)
    assert [r.J for r in a.trace] == [r.J for r in b.trace]


def test_epie_shuffled_schedule_covers_all_regions():
    prob = synthesize_problem(8, seed=33, epsilon=0.0, alpha=0.0, beta=0.0)
    z0, v0 = np_pair(8, 34)
    cfg = SolverConfig(algorithm="epie", max_iters=16, seed=5,
                       epie_schedule="shuffled", epie_alpha=0.1, epie_beta=0.1)
    res = run(prob, z0, v0, cfg)
    # one full pass every R iterations: step sizes reflect 16 region visits
    assert len(res.trace) == 17


@pytest.mark.parametrize("base,change", [
    ({"algorithm": "epie"}, {"batch_size": 4}),
    ({"algorithm": "epie"}, {"sgd_step_rule": "epie_scaled", "mu": 0.5, "nu": 0.25,
                             "theta": 0.9, "kappa": 0.3}),
    ({"algorithm": "sgd"}, {"epie_schedule": "shuffled"}),
    ({"algorithm": "sgd", "batch_size": 4}, {"epie_schedule": "shuffled"}),
    ({"algorithm": "sgd", "sgd_step_rule": "epie_scaled"}, {"epie_schedule": "shuffled"}),
], ids=["epie-batch-size", "epie-sgd-settings", "sgd-schedule", "sgd-k4-schedule",
        "sgd-epie-scaled-schedule"])
def test_sampled_algorithms_ignore_what_they_do_not_read(base, change):
    # epie is sgd's factory at K = 1 with its own steps and schedule; what it
    # does not read (and the schedule, for sgd) leaves every bit in place
    padded = ShiftSet(tuple(range(-6, 12, 3)), "zero-padded")
    ramp = np.linspace(1.0, 3.0, len(padded))
    prob = synthesize_problem(12, shifts=padded, seed=50, noise=NoiseModel("gaussian", 0.5),
                              epsilon=1e-3, alpha=1e-2, beta=1e-2, p=ramp / ramp.sum())
    z0, v0 = np_pair(12, 51)

    def outcome(options):
        options = {"max_iters": 60, "seed": 3, **options}
        problem = replace(prob, batch_size=options.pop("batch_size", 1))
        res = run(problem, z0, v0, SolverConfig(**options))
        return [(r.J, r.mu_t, r.nu_t) for r in res.trace], res.z.tobytes(), res.v.tobytes()
    assert outcome(base) == outcome({**base, **change})


# ---------------------------------------------------------------------------
# interval descent

def test_interval_requires_positive_weights():
    prob = synthesize_problem(8, seed=35, alpha=0.0, beta=0.0)
    z0, v0 = np_pair(8, 36)
    with pytest.raises(ValueError, match="Tikhonov"):
        run(prob, z0, v0, SolverConfig(algorithm="interval", max_iters=1))


def test_interval_endpoint_selection():
    prob = synthesize_problem(8, seed=37)
    z0, v0 = np_pair(8, 38)
    cfg = SolverConfig(algorithm="interval", max_iters=100, gamma_grid=2)
    res = run(prob, z0, v0, cfg)
    for step in res.interval_steps:
        assert step.gamma in (0.0, 1.0)
        assert step.loss_selected == min(step.loss_object_endpoint,
                                         step.loss_window_endpoint)


def test_interval_tie_selects_first_gamma():
    # at (0, 0) the gradient vanishes, so every trial is the starting point
    # and the first minimum (gamma = 0) is selected, as np.argmin does
    prob = synthesize_problem(8, seed=37)
    zeros = np.zeros(8, complex)
    res = run(prob, zeros, zeros, SolverConfig(algorithm="interval", max_iters=2,
                                               gamma_grid=5))
    assert [s.gamma for s in res.interval_steps] == [0.0, 0.0]
    assert [r.mu_t for r in res.trace] == [0.0, 0.0, 0.0]


def test_interval_decrease_bounds():
    prob = synthesize_problem(16, seed=39)
    z0, v0 = np_pair(16, 40)
    cfg = SolverConfig(algorithm="interval", max_iters=200, gamma_grid=5)
    res = run(prob, z0, v0, cfg, record_iterates=True)
    for rec, nxt, step, (z, v) in zip(res.trace, res.trace[1:],
                                      res.interval_steps, res.iterates):
        tol = 1e-9 * (1 + rec.J)
        object_curv, window_curv = partial_lipschitz(prob, z, v)
        # each endpoint decreases by at least ||g||^2 over its own curvature
        assert rec.J - step.loss_object_endpoint >= \
            rec.grad_z_norm ** 2 / object_curv - tol
        assert rec.J - step.loss_window_endpoint >= \
            rec.grad_v_norm ** 2 / window_curv - tol
        assert step.loss_selected <= min(step.loss_object_endpoint,
                                         step.loss_window_endpoint)
        assert step.decrease >= step.bound_matched - tol
        # gd's certificate J_{t+1} <= J_t - mu_t ||g_z||^2 - nu_t ||g_v||^2,
        # from trace columns only.  (1) Each endpoint decreases J by at least
        # a = ||g_z||^2 / L_obj (object) or b = ||g_v||^2 / L_win (window), as
        # asserted above.  (2) The selected trial is no worse than either
        # endpoint, so J_t - J_{t+1} >= max(a, b).  (3) With mu_t = gamma / L_obj
        # and nu_t = (1 - gamma) / L_win, mu_t ||g_z||^2 + nu_t ||g_v||^2 =
        # gamma a + (1 - gamma) b <= max(a, b).
        assert nxt.J <= rec.J - rec.mu_t * rec.grad_z_norm ** 2 \
            - rec.nu_t * rec.grad_v_norm ** 2 + tol


def test_interval_steps_match_partial_lipschitz():
    # mu_t = gamma / L_z and nu_t = (1 - gamma) / L_v with the public
    # curvature constants at the recorded iterate, bit for bit, also where
    # the step carried one of them over from the step before (an endpoint
    # was selected: at gamma_grid 2, every step)
    for (mode, d), epsilon, gamma_grid in itertools.product(
            (("circular", 8), ("zero-padded", 12)), (1e-8, 0.0), (2, 5)):
        prob = synthesize_problem(d, shifts=ShiftSet.all_shifts(d, mode),
                                  seed=45, epsilon=epsilon)
        z0, v0 = np_pair(d, 46)
        res = run(prob, z0, v0, SolverConfig(algorithm="interval", max_iters=20,
                                             gamma_grid=gamma_grid),
                  record_iterates=True)
        for rec, step, (z, v), (z_next, v_next) in zip(
                res.trace, res.interval_steps, res.iterates, res.iterates[1:]):
            object_curv, window_curv = partial_lipschitz(prob, z, v)
            assert type(step.gamma) is float
            assert rec.mu_t == step.gamma / object_curv
            assert rec.nu_t == (1.0 - step.gamma) / window_curv
            # the recorded step is the step taken
            g = gradient(prob, z, v)
            assert np.array_equal(z_next, z - rec.mu_t * g.z)
            assert np.array_equal(v_next, v - rec.nu_t * g.v)
        # both sides were carried: each endpoint was selected at least once
        assert {0.0, 1.0} <= {s.gamma for s in res.interval_steps}


@pytest.mark.parametrize("mode,d", [("circular", 8), ("zero-padded", 12)])
def test_interval_endpoint_steps_compute_one_curvature(monkeypatch, mode, d):
    # At gamma_grid 2 every step leaves z or v where it was, so each step
    # after the first computes one curvature energy and is handed the other.
    # The side whose energy is handed over is replaced by None, which a
    # computed energy would fail on, and both constants are still those of
    # partial_lipschitz at the iterate, bit for bit.
    prob = synthesize_problem(d, shifts=ShiftSet.all_shifts(d, mode), seed=49)
    z0, v0 = np_pair(d, 50)
    computed = []
    helper = solvers._partial_lipschitz

    def one_side(problem, z, v, object_step=None, window_step=None):
        computed.append((object_step is None) + (window_step is None))
        curvatures = helper(problem, z if window_step is None else None,
                            v if object_step is None else None,
                            object_step, window_step)
        assert curvatures == partial_lipschitz(problem, z, v)
        return curvatures

    monkeypatch.setattr(solvers, "_partial_lipschitz", one_side)
    cfg = SolverConfig(algorithm="interval", max_iters=30, gamma_grid=2)
    res = run(prob, z0, v0, cfg)
    assert computed == [2] + [1] * (cfg.max_iters - 1)
    assert {0.0, 1.0} <= {s.gamma for s in res.interval_steps}


@pytest.mark.parametrize("mode,d", [("circular", 8), ("zero-padded", 12)])
@pytest.mark.parametrize("epsilon", [1e-8, 0.0])
def test_trace_rows_are_fresh_evaluations(mode, d, epsilon):
    # Each row is loss_and_gradient at its iterate, bit for bit, also where
    # the monitor ran on a forward pass the step handed over (interval's
    # selected trial, whose J is loss_selected).
    prob = synthesize_problem(d, shifts=ShiftSet.all_shifts(d, mode), seed=47,
                              epsilon=epsilon)
    z0, v0 = np_pair(d, 48)
    configs = [SolverConfig(algorithm=algo, max_iters=12)
               for algo in ("gd", "sgd", "epie")]
    configs += [SolverConfig(algorithm="interval", max_iters=12, gamma_grid=g)
                for g in (2, 5)]
    for cfg in configs:
        res = run(prob, z0, v0, cfg, record_iterates=True)
        assert len(res.iterates) == len(res.trace) == 13
        for row, (z, v) in zip(res.trace, res.iterates):
            J, L_eps, g = loss_and_gradient(prob, z, v)
            assert (row.J, row.L_eps, row.grad_z_norm, row.grad_v_norm) == \
                (J, L_eps, *g.norms())
        if cfg.algorithm == "interval":
            steps = res.interval_steps
            assert [s.loss_selected for s in steps] == [r.J for r in res.trace[1:]]
            # a wrong hand-over shows only where the selection moves: more
            # than one gamma is selected, an inner one on the finer grid
            gammas = {s.gamma for s in steps}
            assert len(gammas) > 1
            assert cfg.gamma_grid == 2 or gammas - {0.0, 1.0}


@pytest.mark.parametrize("shifts", [ShiftSet.all_shifts(8, "circular"),
                                    ShiftSet(tuple(range(-6, 12, 3)), "zero-padded")],
                         ids=["circular-8", "zero-padded-12"])
def test_monitor_record_dies_with_its_iteration(monkeypatch, shifts):
    # The loop is the only holder of a monitor record (its _evaluate calls):
    # when iteration t+1's monitor call starts, every (R, d) array of
    # iteration t's record is dead, interval's handed-over forward pass
    # included.
    d = 8 if shifts.mode == "circular" else 12
    prob = synthesize_problem(d, shifts=shifts, seed=51)
    z0, v0 = np_pair(d, 52)
    kernel = solvers._evaluate
    held = []   # weakrefs to each monitor record's (R, d) arrays

    def monitor(problem, z, v, forward=None):
        alive = [i for i, ref in enumerate(held) if ref() is not None]
        assert not alive, f"monitor {len(held) // 4}: arrays {alive} of a past record"
        ev = kernel(problem, z, v, forward)
        held.extend(weakref.ref(a) for a in (ev.windows, ev.spectrum, *ev.parts))
        return ev

    monkeypatch.setattr(solvers, "_evaluate", monitor)
    for algorithm in ALGORITHMS:
        held.clear()
        run(prob, z0, v0, SolverConfig(algorithm=algorithm, max_iters=6))
        assert len(held) == 4 * 7, algorithm


def test_trace_norms_are_the_one_norm_at_d100():
    # Every norm is sqrt(_sq_norm): the trace's gradient norms of every
    # solver, and the bounded sgd step is the public sgd_max_step, bit for
    # bit, on a zero-padded d = 100 instance where np.linalg.norm differs.
    p = np.linspace(1.0, 3.0, 40)
    prob = synthesize_problem(100, shifts=ShiftSet(tuple(range(-60, 100, 4)),
                                                   "zero-padded"),
                              seed=0, noise=NoiseModel("gaussian", 1.0),
                              p=p / p.sum(), batch_size=4)
    z0, v0 = np_pair(100, 51)
    linalg_differs = False
    for algo in ALGORITHMS:
        cfg = SolverConfig(algorithm=algo, max_iters=10)
        res = run(prob, z0, v0, cfg, record_iterates=True)
        for t, (row, (z, v)) in enumerate(zip(res.trace, res.iterates)):
            g = loss_and_gradient(prob, z, v)[2]
            assert (row.grad_z_norm, row.grad_v_norm) == \
                (math.sqrt(_sq_norm(g.z)), math.sqrt(_sq_norm(g.v)))
            linalg_differs |= row.grad_z_norm != np.linalg.norm(g.z) \
                or row.grad_v_norm != np.linalg.norm(g.v)
            if algo == "sgd" and t < cfg.max_iters:
                m = sgd_max_step(prob, z, v, t, cfg.theta, cfg.kappa)
                assert (row.mu_t, row.nu_t) == (cfg.mu * m, cfg.nu * m)
    assert linalg_differs


def test_interval_finer_grid_never_worse():
    prob = synthesize_problem(8, seed=41)
    z0, v0 = np_pair(8, 42)
    coarse = run(prob, z0, v0,
                 SolverConfig(algorithm="interval", max_iters=1,
                              gamma_grid=2))
    fine = run(prob, z0, v0,
               SolverConfig(algorithm="interval", max_iters=1,
                            gamma_grid=9))
    assert fine.interval_steps[0].loss_selected <= \
        coarse.interval_steps[0].loss_selected + 1e-12


# ---------------------------------------------------------------------------
# dispatch and trace format

def test_run_dispatch():
    prob = synthesize_problem(8, seed=43)
    z0, v0 = np_pair(8, 44)
    for algo in ("gd", "sgd", "epie", "interval"):
        res = run(prob, z0, v0, SolverConfig(algorithm=algo, max_iters=3))
        assert len(res.trace) == 4


def test_trace_csv_format():
    prob = synthesize_problem(8, seed=45)
    z0, v0 = np_pair(8, 46)
    res = run(prob, z0, v0, SolverConfig(algorithm="gd", max_iters=3))
    text = trace_to_csv(res.trace)
    lines = text.strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == res.trace[0].J


def test_trace_file_round_trip(tmp_path):
    prob = synthesize_problem(8, seed=47)
    z0, v0 = np_pair(8, 48)
    res = run(prob, z0, v0, SolverConfig(algorithm="interval", max_iters=5))
    path = tmp_path / "trace.csv"
    write_trace(path, res.trace)
    assert read_trace(path) == res.trace
    path.write_text(path.read_text().replace("grad_z_norm", "gz", 1))
    with pytest.raises(ValueError, match="unexpected trace header"):
        read_trace(path)
    # a row of the wrong width or with a non-numeric cell names its line
    path.write_text(f"{TRACE_HEADER}\n0,1,2,3\n")
    with pytest.raises(ValueError, match="line 2: malformed trace row '0,1,2,3'"):
        read_trace(path)
    lines = trace_to_csv(res.trace).splitlines()
    lines[3] = lines[3].replace(",", ",J", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 4: malformed trace row"):
        read_trace(path)
