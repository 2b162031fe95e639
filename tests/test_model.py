import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindptycho import (MeasurementSet, NoiseModel, Problem, Rng, ShiftSet,
                         add_noise, forward_intensities, loss, q_apply,
                         synthesize_problem)
from blindptycho.cli import main
from blindptycho.fourier import MODES
from blindptycho.model import problem_from_json, problem_to_json

from conftest import np_pair


def test_forward_constant_vectors():
    ones = np.ones(2, complex)
    m = forward_intensities(ones, ones, ShiftSet((0,)))
    assert np.allclose(m.values, [[4.0, 0.0]])


def test_forward_zero_object():
    w = np.ones(4, complex)
    m = forward_intensities(np.zeros(4, complex), w, ShiftSet.all_shifts(4))
    assert np.all(m.values == 0)


def test_forward_matches_bilinear_form_per_entry():
    x, w = np_pair(8, 0)
    shifts = ShiftSet.all_shifts(8)
    m = forward_intensities(x, w, shifts)
    for i, r in enumerate(shifts.offsets):
        for k in range(8):
            expected = abs(q_apply(x, w, r, k)) ** 2
            assert m.values[i, k] == pytest.approx(expected, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("mode", ["circular", "zero-padded"])
def test_measurement_ambiguities(mode):
    # the three transforms of the pair that leave intensities unchanged
    d = 8
    x, w = np_pair(d, 1)
    shifts = ShiftSet.all_shifts(d, mode)
    base = forward_intensities(x, w, shifts).values

    a, b = np.exp(0.7j), np.exp(-1.3j)
    phase = forward_intensities(a * x, b * w, shifts).values
    assert np.allclose(phase, base, rtol=1e-10)

    gamma = 1.7 - 0.4j
    scaled = forward_intensities(gamma * x, w / gamma, shifts).values
    assert np.allclose(scaled, base, rtol=1e-10)

    # linear phase: circular wrap-around forces rho onto the 2 pi / d grid,
    # zero-padded shifts admit any rho
    rhos = [2 * np.pi * 3 / d] if mode == "circular" else [2 * np.pi * 3 / d, 0.7]
    k = np.arange(d)
    for rho in rhos:
        lin = forward_intensities(np.exp(-1j * rho * k) * x,
                                  np.exp(1j * rho * k) * w, shifts).values
        assert np.allclose(lin, base, rtol=1e-10)


def test_measurement_validation():
    shifts = ShiftSet((0, 1))
    with pytest.raises(ValueError):
        MeasurementSet(np.ones((3, 4)), shifts)      # row count
    with pytest.raises(ValueError):
        MeasurementSet(-np.ones((2, 4)), shifts)     # negative
    with pytest.raises(ValueError):
        MeasurementSet(np.full((2, 4), np.nan), shifts)


def test_add_noise_none_is_bit_exact(small_problem):
    clean = forward_intensities(*small_problem.truth, small_problem.shifts)
    out = add_noise(clean, NoiseModel("none"), Rng(0))
    assert np.array_equal(out.values, small_problem.y)


def test_add_noise_gaussian_zero_sigma(small_problem):
    clean = forward_intensities(*small_problem.truth, small_problem.shifts)
    out = add_noise(clean, NoiseModel("gaussian", 0.0), Rng(0))
    assert np.array_equal(out.values, small_problem.y)


def test_add_noise_gaussian_clamps():
    m = MeasurementSet(np.zeros((1, 4)), ShiftSet((0,)))
    out = add_noise(m, NoiseModel("gaussian", 5.0), Rng(3))
    assert np.all(out.values >= 0)


def _add_noise_loop(values, sigma, rng):
    # scalar reference: one normal per entry in row-major order, clamped at 0
    return np.array([max(0.0, y + sigma * rng.normal()) for y in values.flat]
                    ).reshape(values.shape)


@pytest.mark.parametrize("sigma", [1e-3, 1.0, 50.0])
def test_add_noise_gaussian_matches_scalar_loop(sigma):
    # 40 zero-padded shifts at d=100; sigma = 50 clamps many entries to 0
    x, w = np_pair(100, 4)
    measured = forward_intensities(x, w, ShiftSet(tuple(range(-60, 100, 4)), "zero-padded"))
    ref, rng = Rng(17), Rng(17)
    expected = _add_noise_loop(measured.values, sigma, ref)
    out = add_noise(measured, NoiseModel("gaussian", sigma), rng)
    assert out.values.tobytes() == expected.tobytes()
    assert rng.next_u64() == ref.next_u64()
    if sigma == 50.0:
        assert 0 < np.count_nonzero(expected == 0.0) < expected.size


def test_add_noise_poisson_preserves_shape_and_sign(small_problem):
    clean = forward_intensities(*small_problem.truth, small_problem.shifts)
    out = add_noise(clean, NoiseModel("poisson"), Rng(5))
    assert out.values.shape == small_problem.y.shape
    assert np.all(out.values >= 0)


def test_synthesize_deterministic():
    a = synthesize_problem(16, seed=42)
    b = synthesize_problem(16, seed=42)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.truth[0], b.truth[0])
    assert a.y.shape == (16, 16)
    assert np.all(a.y >= 0)
    # an integral float d is the same instance
    assert problem_to_json(synthesize_problem(16.0, seed=42)) == problem_to_json(a)


def test_noiseless_loss_at_truth_is_zero():
    for eps in (0.0, 1e-8, 1.0):
        prob = synthesize_problem(8, seed=3, epsilon=eps, alpha=0.0, beta=0.0)
        total, data = loss(prob, *prob.truth)
        assert abs(total) <= 1e-20
        assert abs(data) <= 1e-20


_PROB = synthesize_problem(4, seed=0)
_P = np.full(4, 0.25)
_DOC = json.loads(problem_to_json(_PROB))


@pytest.mark.parametrize("call,message", [
    (lambda: NoiseModel("bogus"), "unknown noise kind: 'bogus'"),
    (lambda: NoiseModel("gaussian", -1.0), "sigma must be >= 0: -1.0"),
    (lambda: NoiseModel("gaussian", np.nan), "sigma must be finite: nan"),
    (lambda: MeasurementSet(np.ones(4), ShiftSet((0,))),
     "values must be a 2-d array (regions x frequencies)"),
    (lambda: forward_intensities(np.ones(4), np.ones(3), ShiftSet((0,))),
     "x and w must be 1-d arrays of equal length"),
    (lambda: Problem(y=np.zeros((4, 0)), shifts=_PROB.shifts, epsilon=0.0, alpha=0.0,
                     beta=0.0, p=_P), "d must be >= 1: 0"),
    (lambda: problem_from_json(json.dumps({**_DOC, "d": 5})),
     "problem field 'd': d must equal the column count of y (4): 5"),
    (lambda: Problem(y=_PROB.y, shifts=_PROB.shifts, epsilon=-1.0, alpha=0.0,
                     beta=0.0, p=_P), "epsilon must be >= 0: -1.0"),
    (lambda: Problem(y=_PROB.y, shifts=_PROB.shifts, epsilon=np.nan, alpha=0.0,
                     beta=0.0, p=_P), "epsilon must be finite: nan"),
    (lambda: Problem(y=_PROB.y, shifts=ShiftSet((3, 2, 1, 0)),
                     epsilon=0.0, alpha=0.0, beta=0.0, p=_P),
     "offsets must be strictly ascending"),
    (lambda: Problem(y=_PROB.y, shifts=_PROB.shifts, epsilon=0.0, alpha=0.0,
                     beta=0.0, p=_P, truth=(np.ones(3), np.ones(4))),
     "truth vectors must have length d"),
    (lambda: problem_from_json("[1, 2]"), "problem document must be a JSON object"),
    (lambda: synthesize_problem(0, shifts=ShiftSet((0,))), "d must be >= 1: 0"),
    (lambda: synthesize_problem(-3), "d must be >= 1: -3"),
    (lambda: synthesize_problem(2.5), "d must be an integer: 2.5"),
    (lambda: synthesize_problem(True), "d must be an integer: True"),
    (lambda: problem_from_json(json.dumps({**_DOC, "K": 1.5})),
     "problem field 'K': batch_size must be an integer: 1.5"),
    # sigma is read for every noise kind
    (lambda: NoiseModel("poisson", "x"), "sigma must be a number: 'x'"),
], ids=["noise-kind", "sigma-negative", "sigma-nan", "values-1d", "forward-lengths",
        "d-zero", "columns", "epsilon-negative", "epsilon-nan", "offsets-descending",
        "truth-length", "json-not-object", "synth-d-zero", "synth-d-negative",
        "synth-d-fraction", "synth-d-bool", "json-K-fraction", "poisson-sigma-string"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_problem_validation_messages():
    prob = synthesize_problem(4, seed=0)
    bad_p = np.array([0.5, 0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="p entries"):
        Problem(y=prob.y, shifts=prob.shifts, epsilon=0.0, alpha=0.0,
                beta=0.0, p=bad_p, batch_size=1)
    with pytest.raises(ValueError, match="sum to 1"):
        Problem(y=prob.y, shifts=prob.shifts, epsilon=0.0, alpha=0.0,
                beta=0.0, p=np.full(4, 0.3), batch_size=1)
    with pytest.raises(ValueError, match="batch_size"):
        Problem(y=prob.y, shifts=prob.shifts, epsilon=0.0, alpha=0.0,
                beta=0.0, p=np.full(4, 0.25), batch_size=0)
    with pytest.raises(ValueError, match="one entry per shift"):
        synthesize_problem(4, seed=0, p=np.array([1.0]))
    with pytest.raises(ValueError, match="batch_size must be an integer"):
        synthesize_problem(8, batch_size=2.5)
    # d is read from y, never passed
    with pytest.raises(TypeError, match="'d'"):
        Problem(d=4, y=prob.y, shifts=prob.shifts, epsilon=0.0, alpha=0.0,
                beta=0.0, p=np.full(4, 0.25))
    # integral floats load as ints
    whole = Problem(y=prob.y, shifts=prob.shifts, epsilon=0.0,
                    alpha=0.0, beta=0.0, p=np.full(4, 0.25), batch_size=2.0)
    assert (type(whole.d), type(whole.batch_size)) == (int, int)
    with pytest.raises(ValueError, match="p entries"):
        Problem(y=prob.y, shifts=prob.shifts, epsilon=0.0, alpha=0.0,
                beta=0.0, p=[np.nan, 0.5, 0.25, 0.25], batch_size=1)
    for name, value in (("alpha", np.inf), ("beta", np.inf), ("alpha", np.nan),
                        ("beta", np.nan)):
        weights = {"alpha": 0.0, "beta": 0.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite: {value}$"):
            Problem(y=prob.y, shifts=prob.shifts, epsilon=0.0, p=np.full(4, 0.25),
                    batch_size=1, **weights)
    x, w = prob.truth
    for bad in ((np.where(np.arange(4) == 1, np.nan, x), w),
                (x, np.where(np.arange(4) == 2, np.inf, w))):
        with pytest.raises(ValueError, match="truth vectors must be finite"):
            Problem(y=prob.y, shifts=prob.shifts, epsilon=0.0, alpha=0.0,
                    beta=0.0, p=np.full(4, 0.25), batch_size=1, truth=bad)


@pytest.mark.parametrize("field,change,message", [
    ("y", {"y": -_PROB.y}, "values must be nonnegative"),
    ("y", {"y": np.zeros((4, 0))}, "d must be >= 1: 0"),
    ("batch_size", {"batch_size": 0}, "batch_size must be >= 1: 0"),
    # these rows read the real rule's text; each keeps an id that states
    # its requirement, so its test name stays stable
    pytest.param("epsilon", {"epsilon": -1.0}, "epsilon must be >= 0: -1.0",
                 id="epsilon-change3-epsilon must be finite and >= 0"),
    pytest.param("alpha", {"alpha": -1.0}, "alpha must be >= 0: -1.0",
                 id="alpha-change4-alpha and beta must be finite and >= 0"),
    pytest.param("beta", {"beta": np.nan}, "beta must be finite: nan",
                 id="beta-change5-alpha and beta must be finite and >= 0"),
    ("shifts", {"shifts": ShiftSet((3, 2, 1, 0))}, "offsets must be strictly ascending"),
    ("p", {"p": np.full(4, 0.5)}, "p must sum to 1 within 1e-12"),
    ("x", {"truth": (np.ones(3), np.ones(4))}, "truth vectors must have length d"),
    ("w", {"truth": (np.ones(4), np.full(4, np.inf))}, "truth vectors must be finite"),
    # a truth that is not a pair would write a file the reader rejects, or
    # be cut to two vectors
    ("truth", {"truth": (np.ones(4),)}, "truth must be an (object, window) pair"),
    ("truth", {"truth": (np.ones(4),) * 3}, "truth must be an (object, window) pair"),
    # an int too large for a float is infinite, not an OverflowError
    ("epsilon", {"epsilon": 10**400}, "epsilon must be finite: inf"),
    ("alpha", {"alpha": -10**400}, "alpha must be finite: -inf"),
    # a batch is drawn from the regions, so it holds at most one per shift
    ("batch_size", {"batch_size": 5}, "batch_size must be <= the number of shifts (4): 5"),
    ("batch_size", {"batch_size": 10**30},
     f"batch_size must be <= the number of shifts (4): {10**30}"),
])
def test_problem_tags_the_field_it_rejects(field, change, message):
    # a plain ValueError with the check's own text, tagged with the field read
    args = dict(y=_PROB.y, shifts=_PROB.shifts, epsilon=0.0, alpha=0.0, beta=0.0, p=_P)
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        Problem(**{**args, **change})
    assert type(info.value) is ValueError
    assert str(info.value) == message and info.value.field == field


def test_problem_reads_d_from_y():
    prob = synthesize_problem(4, seed=0)
    assert prob.d == prob.y.shape[1] == 4
    # replace rebuilds the instance: d is read again and y checked again
    bare = replace(prob, truth=None)
    assert (bare.d, bare.truth, bare.y.tobytes()) == (4, None, prob.y.tobytes())
    with pytest.raises(ValueError, match="values must be nonnegative"):
        replace(prob, y=-prob.y)


def test_json_round_trip_bitwise():
    prob = synthesize_problem(6, seed=9, epsilon=1e-3, alpha=0.1, beta=0.2)
    text = problem_to_json(prob)
    back = problem_from_json(text)
    assert back.d == prob.d
    assert back.offsets == prob.offsets
    assert np.array_equal(back.y, prob.y)
    assert np.array_equal(back.p, prob.p)
    assert np.array_equal(back.truth[0], prob.truth[0])
    assert np.array_equal(back.truth[1], prob.truth[1])
    # a second serialization is byte-identical
    assert problem_to_json(back) == text


def test_json_missing_field():
    with pytest.raises(ValueError, match="offsets"):
        problem_from_json('{"d": 2, "mode": "circular"}')


def test_json_integer_fields_not_truncated():
    doc = json.loads(problem_to_json(synthesize_problem(4, seed=2)))
    for key, value in (("d", 4.7), ("K", 2.9), ("offsets", [0, 1.6, 2, 3]),
                       ("K", float("inf"))):
        with pytest.raises(ValueError, match=f"'{key}'"):
            problem_from_json(json.dumps({**doc, key: value}))
    # integral floats still load
    back = problem_from_json(json.dumps({**doc, "d": 4.0, "K": 2.0,
                                         "offsets": [0.0, 1.0, 2.0, 3.0]}))
    assert (back.d, back.batch_size, back.offsets) == (4, 2, (0, 1, 2, 3))


@pytest.mark.parametrize("key,value,message", [
    # Problem reads K, epsilon, alpha_T and beta_T by its own rules, under its
    # field names; each such row keeps an id that states its requirement
    pytest.param("K", True, "batch_size must be an integer: True",
                 id="K-True-K must be an integer: True"),
    ("d", True, "d must be an integer: True"),
    pytest.param("alpha_T", True, "alpha must be a number: True",
                 id="alpha_T-True-True is not a number"),
    pytest.param("epsilon", "1e-8", "epsilon must be a number: '1e-8'",
                 id="epsilon-1e-8-'1e-8' is not a number"),
    pytest.param("epsilon", None, "epsilon must be a number: None",
                 id="epsilon-None-None is not a number"),
    ("p", ["0.25"] * 4, "'0.25' is not a number"),
    ("p", [0.25, 0.25, 0.25, True], "True is not a number"),
    ("y", [["1"] * 4] * 4, "'1' is not a number"),
    ("y", [[1.0] * 4] * 3 + [[1.0, 1.0, 1.0, False]], "False is not a number"),
    ("offsets", [False, True, 2, 3], "offsets must be an integer: False"),
    ("mode", 1, "1 is not a string"),
    ("x", [[True, 0.0]] * 4, "True is not a number"),
    ("y", [], "expected a 2-d array of numbers"),
    ("y", 5, "expected a 2-d array of numbers"),
    ("y", [[1, 2], 3], "expected a 2-d array of numbers"),
    ("y", [[1.0] * 4] * 3 + [[1.0] * 3], "expected a 2-d array of numbers"),
    ("p", [[0.25] * 4], "expected a 1-d array of numbers"),
    ("p", 0.5, "expected a 1-d array of numbers"),
    ("d", 0, "d must be >= 1: 0"),
    pytest.param("K", 0, "batch_size must be >= 1: 0", id="K-0-K must be >= 1: 0"),
    ("offsets", 5, "5 is not an array"),
    ("mode", "bogus", "unknown shift mode: 'bogus'"),
    ("offsets", [0, 0, 1, 2], "offsets must be distinct"),
    ("offsets", [], "offsets must contain at least one shift"),
    ("offsets", [0, 1, 2, 4], "circular offsets must be distinct modulo d"),
    ("y", [[1.0] * 4] * 3, "row count of values must equal the number of shifts"),
    ("p", [0.5, 0.5], "p must have one entry per shift"),
    pytest.param("epsilon", -1.0, "epsilon must be >= 0: -1.0",
                 id="epsilon--1.0-epsilon must be finite and >= 0"),
    ("x", [[1.0, 0.0]] * 3, "truth vectors must have length d"),
    ("offsets", [3, 2, 1, 0], "offsets must be strictly ascending"),
    pytest.param("alpha_T", -1.0, "alpha must be >= 0: -1.0",
                 id="alpha_T--1.0-alpha and beta must be finite and >= 0"),
    pytest.param("beta_T", float("inf"), "beta must be finite: inf",
                 id="beta_T-inf-alpha and beta must be finite and >= 0"),
    ("y", [[1.0] * 4] * 3 + [[1.0, 1.0, 1.0, -1.0]], "values must be nonnegative"),
    ("p", [0.5] * 4, "p must sum to 1 within 1e-12"),
    ("w", [[1.0, 0.0]] * 3, "truth vectors must have length d"),
    ("w", [[1.0, 0.0]] * 3 + [[float("nan"), 0.0]], "truth vectors must be finite"),
    ("x", [[1.0, 0.0, 0.0]] * 4, "expected a list of [re, im] pairs"),
    ("epsilon", 10**400, "epsilon must be finite: inf"),
    ("K", 5, "batch_size must be <= the number of shifts (4): 5"),
    ("K", 10**30, f"batch_size must be <= the number of shifts (4): {10**30}"),
    # above 2**53 consecutive integers are not all floats: not a count
    ("K", 1e300, "batch_size must be an integer: 1e+300"),
    ("d", 1e300, "d must be an integer: 1e+300"),
])
def test_json_number_fields_take_json_numbers_only(key, value, message):
    # json booleans and numeric strings are not numbers, inside arrays too,
    # and an array field of the wrong shape is named as well; the scalars
    # are read by Problem's own rules, under the file's key
    doc = json.loads(problem_to_json(synthesize_problem(4, seed=2)))
    with pytest.raises(ValueError) as info:
        problem_from_json(json.dumps({**doc, key: value}))
    assert str(info.value) == f"problem field '{key}': {message}"


@pytest.mark.parametrize("key", ["K", "d"])
def test_huge_float_count_is_one_error_line(tmp_path, capsys, key):
    # a float count far past 2**53 is named in one short line, not printed
    # as a 301-digit int, and the run writes nothing
    doc = json.loads(problem_to_json(synthesize_problem(4, seed=2)))
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**doc, key: 1e300}))
    out_dir = tmp_path / "out"
    capsys.readouterr()
    assert main(["run", "--problem", str(path), "--algo", "gd", "--iters", "2",
                 "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: problem field '{key}': "
        f"{'batch_size' if key == 'K' else 'd'} must be an integer: 1e+300"]
    assert not out_dir.exists()


SPECIALS = (-0.0, 5e-324, 1.7976931348623157e308)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 32), mode=st.sampled_from(MODES),
       with_truth=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_json_round_trip_property(d, mode, with_truth, seed):
    # magnitudes over the whole double range, with signed zeros, the
    # smallest subnormal and the largest double planted in y, x and w
    rng = np.random.default_rng(seed)

    def planted(shape, signed):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        a = a if signed else np.abs(a)
        for value in SPECIALS:
            a.flat[rng.integers(a.size)] = value
            if signed:
                a.flat[rng.integers(a.size)] = -value
        return a

    shifts = ShiftSet.all_shifts(d, mode)
    truth = None
    if with_truth:
        truth = tuple(planted((d, 2), True).view(np.complex128)[:, 0]
                      for _ in range(2))
    prob = Problem(y=planted((d, d), False), shifts=shifts, epsilon=-0.0,
                   alpha=5e-324, beta=1.7976931348623157e308,
                   p=np.full(d, 1.0 / d), batch_size=1, truth=truth)
    text = problem_to_json(prob)
    back = problem_from_json(text)
    assert (back.d, back.shifts) == (d, shifts)
    for a, b in ((back.y, prob.y), (back.p, prob.p),
                 (np.array([back.epsilon, back.alpha, back.beta]),
                  np.array([prob.epsilon, prob.alpha, prob.beta]))):
        assert a.tobytes() == b.tobytes()
    if with_truth:
        assert back.truth[0].tobytes() == prob.truth[0].tobytes()
        assert back.truth[1].tobytes() == prob.truth[1].tobytes()
    else:
        assert back.truth is None
    assert problem_to_json(back) == text


# written by the 17-significant-digit serializer that preceded json.dumps
LEGACY_DOC = """{
  "d": 2,
  "mode": "circular",
  "offsets": [0, 1],
  "epsilon": 1e-08,
  "alpha_T": 0.001,
  "beta_T": 0.001,
  "p": [0.5, 0.5],
  "K": 1,
  "y": [[0.38338009576913712, 0.5462720300336259], [0.17624805415314765, 0.020191417888039298]],
  "x": [[-0.01997558703117705, -0.75350546534583218], [-0.16116344018450687, 0.058756450003255696]],
  "w": [[0.072896311015961307, -0.89778663890613852], [-0.35794033375121365, -0.052244547285762645]]
}
"""


def test_json_legacy_17_digit_document_loads():
    back = problem_from_json(LEGACY_DOC)
    prob = synthesize_problem(2, seed=1)
    assert back.y.tobytes() == prob.y.tobytes()
    assert back.p.tobytes() == prob.p.tobytes()
    assert back.truth[0].tobytes() == prob.truth[0].tobytes()
    assert back.truth[1].tobytes() == prob.truth[1].tobytes()
    assert problem_to_json(back) == problem_to_json(prob)
    # the shortest form keeps the key order of the old one
    assert list(json.loads(problem_to_json(back))) == list(json.loads(LEGACY_DOC))
