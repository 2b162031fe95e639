import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blindptycho import (ShiftSet, gradient, gradient_region, loss,
                         loss_and_gradient, partial_lipschitz,
                         q_apply, shift, step_curvature_bound,
                         stochastic_gradient, stochastic_gradient_bounds,
                         synthesize_problem)
from blindptycho.fourier import MODES, shift_stack, unshift_sum
from blindptycho.objective import (_evaluate, _forward, _parts, _region,
                                   _residual_back, _tikhonov, _weighted_sum)
from blindptycho.verify import fd_wirtinger_gradient

from conftest import np_pair


def _region_misfit(prob, z, v, r):
    """Data misfit of the single region with offset r (no Tikhonov part)."""
    return loss(_region(prob, r), z, v)[1]


def test_loss_zero_at_truth_any_eps():
    for eps in (0.0, 1e-3, 1.0):
        prob = synthesize_problem(8, seed=2, epsilon=eps)
        total, data = loss(prob, *prob.truth)
        assert data == 0.0
        x, w = prob.truth
        expected = prob.alpha * np.vdot(x, x).real + prob.beta * np.vdot(w, w).real
        assert total == pytest.approx(expected, rel=1e-12)


def test_loss_zero_estimate_collapses_to_measurement_mass():
    prob = synthesize_problem(8, seed=4, epsilon=0.0, alpha=0.0, beta=0.0)
    zeros = np.zeros(8, complex)
    total, data = loss(prob, zeros, zeros)
    assert total == pytest.approx(prob.y_total, rel=1e-12)
    for r in prob.offsets:
        row = prob.offset_row[r]
        assert _region_misfit(prob, zeros, zeros, r) == pytest.approx(
            float(np.sum(prob.y[row])), rel=1e-12)


def test_loss_region_matches_bilinear_path():
    prob = synthesize_problem(8, seed=5, epsilon=1e-3)
    z, v = np_pair(8, 21)
    for r in (0, 3, 7):
        row = prob.offset_row[r]
        direct = sum(
            (np.sqrt(abs(q_apply(z, v, r, k)) ** 2 + prob.epsilon)
             - np.sqrt(prob.y[row, k] + prob.epsilon)) ** 2
            for k in range(8))
        assert _region_misfit(prob, z, v, r) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("call", [
    lambda prob, z, v: loss(prob, z[:3], v),
    lambda prob, z, v: gradient(prob, z, np.ones((8, 1))),
    lambda prob, z, v: step_curvature_bound(prob, z, v[:7]),
    lambda prob, z, v: partial_lipschitz(prob, z[:1], v[:1]),
], ids=["loss", "gradient", "curvature", "partial-lipschitz"])
def test_iterate_shape_checked(call):
    prob = synthesize_problem(8, seed=5)
    with pytest.raises(ValueError, match="z and v must be 1-d arrays of length d"):
        call(prob, *np_pair(8, 6))


def test_loss_upper_bound():
    prob = synthesize_problem(8, seed=6, epsilon=1e-2, alpha=0.0, beta=0.0)
    for i in range(100):
        z, v = np_pair(8, 100 + i)
        _, data = loss(prob, z, v)
        bound = 8 * np.vdot(z, z).real * np.vdot(v, v).real + prob.y_total
        assert data <= bound * (1 + 1e-9)


def test_loss_decomposition_exact_order():
    prob = synthesize_problem(8, seed=7, epsilon=1e-4, alpha=0.2, beta=0.3)
    z, v = np_pair(8, 3)
    total, data = loss(prob, z, v)
    regions = sum(_region_misfit(prob, z, v, r) for r in prob.offsets)
    tik = prob.alpha * np.vdot(z, z).real + prob.beta * np.vdot(v, v).real
    assert total == pytest.approx(regions + tik, rel=1e-12)
    assert data == pytest.approx(regions, rel=1e-12)


def test_loss_ambiguity_invariance():
    prob = synthesize_problem(8, seed=8, epsilon=1e-3, alpha=0.0, beta=0.0)
    z, v = np_pair(8, 9)
    base = loss(prob, z, v)[0]
    assert loss(prob, np.exp(0.9j) * z, np.exp(-0.4j) * v)[0] == pytest.approx(base, rel=1e-10)
    gamma = 2.3 - 1.1j
    assert loss(prob, gamma * z, v / gamma)[0] == pytest.approx(base, rel=1e-10)


@pytest.mark.parametrize("eps", [1e-3, 1.0])
@pytest.mark.parametrize("mode", ["circular", "zero-padded"])
def test_gradient_matches_finite_differences(eps, mode):
    shifts = ShiftSet.all_shifts(8, mode)
    prob = synthesize_problem(8, shifts=shifts, seed=13, epsilon=eps,
                              alpha=1e-3, beta=2e-3)
    z, v = np_pair(8, 31)
    exact = gradient(prob, z, v)
    approx = fd_wirtinger_gradient(prob, z, v)
    scale = max(np.max(np.abs(exact.z)), np.max(np.abs(exact.v)))
    err = max(np.max(np.abs(exact.z - approx.z)),
              np.max(np.abs(exact.v - approx.v))) / scale
    assert err < 1e-6


def test_gradient_zero_at_noiseless_truth():
    for eps in (0.0, 1e-3, 1.0):
        prob = synthesize_problem(8, seed=14, epsilon=eps, alpha=0.0, beta=0.0)
        g = gradient(prob, *prob.truth)
        assert np.all(g.z == 0) and np.all(g.v == 0)


def test_gradient_pure_quartic_case_fd():
    # all-zero measurements with eps = 0 leave only the quartic data term;
    # compare against finite differences of a smoothed copy as eps -> 0
    prob0 = synthesize_problem(8, seed=15, epsilon=0.0, alpha=0.0, beta=0.0)
    zeroed = np.zeros_like(prob0.y)
    from blindptycho import Problem
    prob = Problem(y=zeroed, shifts=prob0.shifts, epsilon=0.0, alpha=0.0,
                   beta=0.0, p=prob0.p, batch_size=1)
    smooth = Problem(y=zeroed, shifts=prob0.shifts, epsilon=1e-12, alpha=0.0,
                     beta=0.0, p=prob0.p, batch_size=1)
    z, v = np_pair(8, 16)
    g = gradient(prob, z, v)
    fd = fd_wirtinger_gradient(smooth, z, v)
    scale = max(np.max(np.abs(g.z)), np.max(np.abs(g.v)))
    assert np.max(np.abs(g.z - fd.z)) / scale < 1e-6
    assert np.max(np.abs(g.v - fd.v)) / scale < 1e-6


def test_eps_zero_vanishing_coefficient_convention():
    # z with a zero spectral coefficient: the ratio term must stay finite
    prob = synthesize_problem(4, seed=17, epsilon=0.0, alpha=0.0, beta=0.0)
    z = np.zeros(4, complex)
    v = np.ones(4, complex)
    g = gradient(prob, z, v)
    assert np.all(np.isfinite(g.z)) and np.all(np.isfinite(g.v))


def test_gradient_region_sums_to_gradient(small_problem):
    z, v = np_pair(8, 18)
    acc_z = np.zeros(8, complex)
    acc_v = np.zeros(8, complex)
    for r in small_problem.offsets:
        g = gradient_region(small_problem, z, v, r)
        acc_z += g.z
        acc_v += g.v
    full = gradient(small_problem, z, v)
    norm = 1 + max(np.max(np.abs(full.z)), np.max(np.abs(full.v)))
    assert np.max(np.abs(acc_z - full.z)) / norm < 1e-12
    assert np.max(np.abs(acc_v - full.v)) / norm < 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(1, 32), mode=st.sampled_from(MODES),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gradient_region_sum_property(data, d, mode, seed):
    # any offset set and sampling distribution: the region gradients, each
    # with its p_r share of the Tikhonov terms, sum to the full gradient
    pool = range(d) if mode == "circular" else range(1 - d, d)
    offsets = sorted(data.draw(st.sets(st.sampled_from(pool), min_size=1,
                                       max_size=2 * d)))
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.5, 2.0, len(offsets))
    prob = synthesize_problem(d, shifts=ShiftSet(tuple(offsets), mode),
                              seed=seed, epsilon=1e-3, alpha=0.1, beta=0.2,
                              p=p / p.sum())
    z, v = np_pair(d, seed)
    parts = [gradient_region(prob, z, v, r) for r in offsets]
    full = gradient(prob, z, v)
    for name in ("z", "v"):
        terms = np.array([getattr(g, name) for g in parts])
        scale = np.max(np.abs(terms).sum(axis=0))
        assert np.max(np.abs(terms.sum(axis=0) - getattr(full, name))) \
            <= 1e-12 * scale


@st.composite
def _shift_sets(draw):
    """(d, mode, offsets): d <= 32 and any nonempty offset set of the mode."""
    d = draw(st.integers(1, 32))
    mode = draw(st.sampled_from(MODES))
    pool = range(d) if mode == "circular" else range(1 - d, d)
    return d, mode, tuple(sorted(draw(st.sets(st.sampled_from(pool), min_size=1))))


@settings(max_examples=60, deadline=None)
@given(shape=_shift_sets(), seed=st.integers(0, 2 ** 32 - 1))
@example(shape=(1, "circular", (0,)), seed=74)
def test_zero_loss_and_gradient_at_noiseless_truth_property(shape, seed):
    # the measurements and the kernel form the exit waves alike, so the
    # truth fits noiseless data exactly, for every d (d = 1 included)
    d, mode, offsets = shape
    prob = synthesize_problem(d, shifts=ShiftSet(offsets, mode), seed=seed,
                              epsilon=0.0, alpha=0.0, beta=0.0)
    assert loss(prob, *prob.truth) == (0.0, 0.0)
    g = gradient(prob, *prob.truth)
    assert not np.any(g.z) and not np.any(g.v)


def test_single_region_problem_gradient_region_equals_gradient():
    prob = synthesize_problem(8, shifts=ShiftSet((0,)), seed=19, epsilon=1e-3)
    z, v = np_pair(8, 20)
    g_full = gradient(prob, z, v)
    g_one = gradient_region(prob, z, v, 0)
    assert np.allclose(g_one.z, g_full.z, rtol=1e-12, atol=1e-14)
    assert np.allclose(g_one.v, g_full.v, rtol=1e-12, atol=1e-14)


def test_loss_and_gradient_consistent(small_problem):
    z, v = np_pair(8, 22)
    total, data, g = loss_and_gradient(small_problem, z, v)
    total2, data2 = loss(small_problem, z, v)
    g2 = gradient(small_problem, z, v)
    assert total == total2 and data == data2
    assert np.array_equal(g.z, g2.z) and np.array_equal(g.v, g2.v)


@pytest.mark.parametrize("eps", [1e-8, 0.0])
@pytest.mark.parametrize("mode", MODES)
def test_evaluate_on_handed_over_forward_pass(eps, mode):
    # the back half run on an earlier _forward pass equals the full kernel,
    # and a full record keeps its forward half, amp included
    prob = synthesize_problem(8, shifts=ShiftSet.all_shifts(8, mode), seed=24,
                              epsilon=eps)
    z, v = np_pair(8, 25)
    full = _evaluate(prob, z, v)
    resumed = _evaluate(prob, z, v, forward=_forward(prob, z, v))
    assert (resumed.J, resumed.L_eps, resumed.z_sq, resumed.v_sq) == \
        (full.J, full.L_eps, full.z_sq, full.v_sq)
    for a, b in [(resumed.grad.z, full.grad.z), (resumed.grad.v, full.grad.v),
                 (resumed.windows, full.windows), (resumed.spectrum, full.spectrum),
                 (resumed.amp, full.amp),
                 *zip(resumed.parts, full.parts), *zip(resumed.tik, full.tik)]:
        assert np.array_equal(a, b)
    assert np.array_equal(full.amp, np.sqrt(np.abs(full.spectrum) ** 2 + eps))


@pytest.mark.parametrize("eps", [1e-8, 0.0])
@pytest.mark.parametrize("mode", MODES)
def test_forward_is_the_value_pass_that_evaluate_completes(eps, mode):
    # _forward is loss's pass, bit for bit, with no back-half field; the back
    # half fills in the record it is handed and returns that record
    prob = synthesize_problem(8, shifts=ShiftSet.all_shifts(8, mode), seed=30,
                              epsilon=eps, alpha=0.1, beta=0.2)
    z, v = np_pair(8, 31)
    forward = _forward(prob, z, v)
    assert (forward.J, forward.L_eps) == loss(prob, z, v)
    assert forward.grad is None and forward.parts is None and forward.tik is None
    full = _evaluate(prob, z, v)
    assert _evaluate(prob, z, v, forward) is forward
    assert (forward.J, forward.L_eps, forward.z_sq, forward.v_sq) == \
        (full.J, full.L_eps, full.z_sq, full.v_sq)
    for a, b in [(forward.grad.z, full.grad.z), (forward.grad.v, full.grad.v),
                 (forward.windows, full.windows), (forward.spectrum, full.spectrum),
                 (forward.amp, full.amp),
                 *zip(forward.parts, full.parts), *zip(forward.tik, full.tik)]:
        assert np.array_equal(a, b)


@pytest.mark.parametrize("eps", [1e-8, 0.0])
@pytest.mark.parametrize("mode", MODES)
def test_monitor_parts_sum_to_the_gradient(eps, mode):
    # the kept row gradients are conj(S_r v) B_r and S_{-r}(conj(z) B_r);
    # summed in row order, plus the Tikhonov terms, they are ev.grad exactly
    prob = synthesize_problem(8, shifts=ShiftSet.all_shifts(8, mode), seed=28,
                              epsilon=eps, alpha=0.1, beta=0.2)
    z, v = np_pair(8, 29)
    ev = _evaluate(prob, z, v)
    back = _residual_back(prob.y_amplitude, np.sqrt(np.abs(ev.spectrum) ** 2 + eps),
                          ev.spectrum, eps)
    parts_z, parts_v = ev.parts
    assert np.array_equal(parts_z, np.conj(ev.windows) * back)
    for r, offset in enumerate(prob.offsets):
        assert np.array_equal(parts_v[r], shift(np.conj(z) * back[r], -offset, mode))
    tik_z, tik_v = ev.tik
    assert np.array_equal(tik_z, prob.alpha * z) and np.array_equal(tik_v, prob.beta * v)
    assert np.array_equal(np.add.reduce(parts_z, 0) + tik_z, ev.grad.z)
    assert np.array_equal(np.add.reduce(parts_v, 0) + tik_v, ev.grad.v)


@pytest.mark.parametrize("shifts", [ShiftSet.all_shifts(8),
                                    ShiftSet(tuple(range(-6, 12, 3)), "zero-padded")],
                         ids=["circular-8", "zero-padded-12"])
def test_one_row_gradient_equals_the_stack_row(shifts):
    # an int row with 1-d windows and back (the engine's step) reduces to the
    # values of rows [r:r+1] of the full stack of parts; equal nonzero floats
    # have equal bits, and only the sign of an exact zero may differ (an
    # axis-0 sum gives +0)
    d = 8 if shifts.mode == "circular" else 12
    prob = synthesize_problem(d, shifts=shifts, seed=26, epsilon=1e-3, alpha=0.1,
                              beta=0.2)
    z, v = np_pair(d, 27)
    ev = _forward(prob, z, v)
    back = _residual_back(prob.y_amplitude, ev.amp, ev.spectrum, prob.epsilon)
    part_z, part_v = _parts(prob, z, ev.windows, back)
    for r in range(prob.n_regions):
        for weight in (None, 1.0 / float(prob.p[r])):
            stacked = None if weight is None else np.array([weight])
            # the engine adds no Tikhonov terms, the monitor adds them whole
            for tik in (None, _tikhonov(prob, z, v)):
                one = _weighted_sum(_parts(prob, z, ev.windows[r], back[r], r),
                                    weight, tik)
                stack = _weighted_sum((part_z[r:r + 1], part_v[r:r + 1]),
                                      stacked, tik)
                assert one.z.shape == one.v.shape == (d,)
                assert np.array_equal(one.z, stack.z)
                assert np.array_equal(one.v, stack.v)


# ---------------------------------------------------------------------------
# bound constants

def test_step_curvature_bound_values():
    prob = synthesize_problem(4, seed=23, alpha=0.5, beta=0.25)
    zeros = np.zeros(4, complex)
    expected = 3 * 4 * np.sqrt(prob.y_total / 4) + 3 * 0.5
    assert step_curvature_bound(prob, zeros, zeros) == pytest.approx(expected, rel=1e-12)
    # a Python float, not a numpy scalar: the step rules run on it each
    # iteration, and numpy scalar arithmetic costs several times more
    assert type(step_curvature_bound(prob, zeros, zeros)) is float

    # unit-norm pair with zeroed measurements: 20 d plus the Tikhonov term
    from blindptycho import Problem
    clean = Problem(y=np.zeros_like(prob.y), shifts=prob.shifts, epsilon=0.0,
                    alpha=0.0, beta=0.0, p=prob.p, batch_size=1)
    e = np.zeros(4, complex)
    e[0] = 1.0
    assert step_curvature_bound(clean, e, e) == pytest.approx(80.0, rel=1e-12)

    # monotone in the iterate norms
    assert step_curvature_bound(clean, 2 * e, e) > step_curvature_bound(clean, e, e)


def test_step_curvature_bound_floor():
    prob = synthesize_problem(8, seed=24, alpha=0.3, beta=0.7)
    for i in range(20):
        z, v = np_pair(8, 300 + i)
        assert step_curvature_bound(prob, z, v) >= 3 * max(prob.alpha, prob.beta)


def test_stochastic_gradient_bounds_values():
    prob = synthesize_problem(8, seed=25, alpha=0.0, beta=0.0)
    zeros = np.zeros(8, complex)
    assert stochastic_gradient_bounds(prob, zeros, zeros) == (0.0, 0.0)

    # sqrt(15d/4) d ||v|| (||z|| ||v|| + sqrt(||y||_1 / d)) / min p at alpha 0
    z, v = np_pair(8, 26)
    nz, nv = np.linalg.norm(z), np.linalg.norm(v)
    b_z, b_v = stochastic_gradient_bounds(prob, z, v)
    shared = (nz * nv + np.sqrt(prob.y_total / 8)) / (1 / 8)
    assert b_z == pytest.approx(np.sqrt(30) * 8 * nv * shared, rel=1e-12)
    assert b_v == pytest.approx(np.sqrt(30) * 8 * nz * shared, rel=1e-12)
    assert all(type(b) is float for b in (b_z, b_v))

    # the envelope of one draw bounds every batch, so it does not depend on K
    import dataclasses
    for k in (2, 4, 8):
        batch = dataclasses.replace(prob, batch_size=k)
        assert stochastic_gradient_bounds(batch, z, v) == (b_z, b_v)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stochastic_gradient_bounds_hold_for_a_repeated_row(k):
    # At z = v = 10^3 e_0 a draw at offset 0 nearly attains the envelope.  A
    # batch that draws it K times has that draw's gradient, so the envelope
    # may not shrink with K.
    prob = synthesize_problem(8, seed=0, epsilon=1e-3, batch_size=k)
    e = np.zeros(8, complex)
    e[0] = 1e3
    g = stochastic_gradient(prob, e, e, [0] * k)
    for part, b in zip((g.z, g.v), stochastic_gradient_bounds(prob, e, e)):
        ratio = (15 * 8 / 4) * np.vdot(part, part).real / b ** 2
        assert 0.999 < ratio <= 1.0


def test_partial_lipschitz_values():
    d = 8
    z, v = np_pair(d, 27)
    single = synthesize_problem(d, shifts=ShiftSet((0,)), seed=28, alpha=0.4, beta=0.6)
    obj_curv, win_curv = partial_lipschitz(single, z, v)
    assert obj_curv == pytest.approx(d * np.max(np.abs(v)) ** 2 + 0.4, rel=1e-12)
    assert win_curv == pytest.approx(d * np.max(np.abs(z)) ** 2 + 0.6, rel=1e-12)

    full = synthesize_problem(d, seed=29, alpha=0.4, beta=0.6)
    obj_curv, win_curv = partial_lipschitz(full, z, v)
    assert obj_curv == pytest.approx(d * np.vdot(v, v).real + 0.4, rel=1e-12)
    assert win_curv == pytest.approx(d * np.vdot(z, z).real + 0.6, rel=1e-12)


@pytest.mark.parametrize("mode", ["circular", "zero-padded"])
def test_partial_lipschitz_gathers_one_row(mode):
    # the window energy gathered from the single |z|^2 row equals, bit for
    # bit, the sum over one |z|^2 row per offset
    offsets = tuple(range(-60, 100, 4)) if mode == "zero-padded" else tuple(range(100))
    prob = synthesize_problem(100, shifts=ShiftSet(offsets, mode), seed=31,
                              alpha=0.1, beta=0.2)
    for i in range(5):
        z, v = np_pair(100, 500 + i)
        z_rows = np.repeat(np.abs(z)[np.newaxis] ** 2, len(offsets), axis=0)
        win_energy = np.sum(shift_stack(np.abs(v) ** 2, prob.shifts), axis=0)
        obj_energy = unshift_sum(z_rows, prob.shifts)
        assert partial_lipschitz(prob, z, v) == (
            100 * float(np.max(win_energy)) + 0.1,
            100 * float(np.max(obj_energy)) + 0.2)


@pytest.mark.parametrize("mode", ["circular", "zero-padded"])
def test_partial_lipschitz_brute_force_and_cap(mode):
    d = 8
    shifts = ShiftSet((0, 2, 3), mode)
    prob = synthesize_problem(d, shifts=shifts, seed=30, alpha=0.1, beta=0.2)
    for i in range(25):
        z, v = np_pair(d, 400 + i)
        obj_curv, win_curv = partial_lipschitz(prob, z, v)
        brute_obj = d * max(
            sum(abs(shift(v, r, mode)[j]) ** 2 for r in shifts.offsets)
            for j in range(d)) + 0.1
        brute_win = d * max(
            sum(abs(shift(z, -r, mode)[j]) ** 2 for r in shifts.offsets)
            for j in range(d)) + 0.2
        assert obj_curv == pytest.approx(brute_obj, rel=1e-12)
        assert win_curv == pytest.approx(brute_win, rel=1e-12)
        assert obj_curv <= d * np.vdot(v, v).real + 0.1 + 1e-12
        assert win_curv <= d * np.vdot(z, z).real + 0.2 + 1e-12
