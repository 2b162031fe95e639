import math
import re

import numpy as np
import pytest

from blindptycho import Rng, initial_guess, synthesize_problem

# seeds at both ends of the 64-bit range: -1 and 2**64 - 1 are the same state
STREAM_SEEDS = [0, 1, -1, 2**64 - 1]
# each stream: its scalar reference, its block method and the dtype of a block
STREAMS = {
    "next_u64": (Rng.next_u64, Rng.next_u64_block, np.uint64),
    "normal": (Rng.normal, Rng.normal_vector, np.float64),
    "complex_normal": (Rng.complex_normal, Rng.complex_normal_vector, np.complex128),
}


def test_equal_seeds_equal_streams():
    a, b = Rng(123456789), Rng(123456789)
    assert [a.uniform() for _ in range(10_000)] == [b.uniform() for _ in range(10_000)]


def test_different_seeds_differ():
    a, b = Rng(1), Rng(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_uniform_range_and_moments():
    rng = Rng(7)
    draws = np.array([rng.uniform() for _ in range(50_000)])
    assert draws.min() >= 0.0 and draws.max() < 1.0
    assert abs(draws.mean() - 0.5) < 0.01
    assert abs(draws.var() - 1.0 / 12.0) < 0.005


def test_normal_moments():
    rng = Rng(21)
    draws = rng.normal_vector(50_000)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.03


def test_complex_normal_unit_variance():
    rng = Rng(5)
    draws = rng.complex_normal_vector(50_000)
    # standard complex normal: E|z|^2 = 1, split evenly over re/im
    assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.02
    assert abs(draws.real.var() - 0.5) < 0.02
    assert abs(draws.imag.var() - 0.5) < 0.02


@pytest.mark.parametrize("mean", [0.5, 3.5, 9.0, 40.0, 300.0])
def test_poisson_moments(mean):
    rng = Rng(int(mean * 1000) + 3)
    n = 20_000
    draws = np.array([rng.poisson(mean) for _ in range(n)])
    tol = 6 * math.sqrt(mean / n)
    assert abs(draws.mean() - mean) < tol
    assert abs(draws.var() - mean) < 0.1 * mean + tol


def test_poisson_large_mean_law_of_large_numbers():
    rng = Rng(99)
    draws = [rng.poisson(1e6) for _ in range(1000)]
    assert abs(np.mean(draws) - 1e6) < 0.01 * 1e6


def test_poisson_zero_and_validation():
    rng = Rng(1)
    assert rng.poisson(0.0) == 0
    with pytest.raises(ValueError):
        rng.poisson(-1.0)


def test_integer_below_and_shuffle_determinism():
    rng = Rng(3)
    vals = [rng.integer_below(10) for _ in range(1000)]
    assert min(vals) >= 0 and max(vals) < 10
    a = list(range(12))
    b = list(range(12))
    Rng(8).shuffle(a)
    Rng(8).shuffle(b)
    assert a == b and sorted(a) == list(range(12))


def test_seed_must_be_integral():
    assert Rng(2.0).next_u64() == Rng(2).next_u64() == Rng(np.int64(2)).next_u64()
    assert Rng(np.uint64(2**64 - 1)).next_u64() == Rng(-1).next_u64()
    for seed in (2.5, math.nan, math.inf, np.float64(2.5), True, False):
        with pytest.raises(ValueError, match="seed must be an integer"):
            Rng(seed)
    # synthesis and starting pairs no longer reuse a truncated seed
    with pytest.raises(ValueError, match="seed must be an integer"):
        synthesize_problem(8, seed=2.5)
    with pytest.raises(ValueError, match="seed must be an integer"):
        initial_guess(8, 2.5)


@pytest.mark.parametrize("call,message", [
    (lambda: Rng(0).normal_vector(2.5), "n must be an integer: 2.5"),
    (lambda: Rng(0).complex_normal_vector(True), "n must be an integer: True"),
    (lambda: Rng(0).next_u64_block(2.5), "block length must be an integer: 2.5"),
    (lambda: Rng(0).next_u64_block(False), "block length must be an integer: False"),
    (lambda: initial_guess(8.5, 0), "d must be an integer: 8.5"),
], ids=["vector-fraction", "vector-bool", "block-fraction",
        "block-bool", "initial-guess-fraction"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_integral_float_lengths():
    # 2.0 means 2: the same draws and the same state afterwards
    for seed in STREAM_SEEDS:
        for by_float, by_int in zip(initial_guess(8.0, seed, 2.0), initial_guess(8, seed, 2.0)):
            assert by_float.tobytes() == by_int.tobytes()
        for _, block, _ in STREAMS.values():
            a, b = Rng(seed), Rng(seed)
            assert block(a, 3.0).tobytes() == block(b, np.int64(3)).tobytes()
            assert a.next_u64() == b.next_u64()


@pytest.mark.filterwarnings("error")
def test_published_splitmix64_vector():
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                0x06C45D188009454F, 0xF88BB8A8724C81EC]
    rng = Rng(0)
    assert [rng.next_u64() for _ in range(4)] == expected
    assert Rng(0).next_u64_block(4).tolist() == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("stream", STREAMS)
def test_block_stream_matches_scalar_stream(stream, seed):
    # bit for bit, signed zeros included, and the state after the block
    scalar, block, dtype = STREAMS[stream]
    n = 100_000
    ref, rng = Rng(seed), Rng(seed)
    expected = np.array([scalar(ref) for _ in range(n)], dtype=dtype)
    assert block(rng, n).tobytes() == expected.tobytes()
    assert rng.next_u64() == ref.next_u64()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_blocks_interleave_with_scalar_calls(seed):
    ref, rng = Rng(seed), Rng(seed)
    for n in (0, 1, 2, 7, 0, 1, 33):
        for scalar, block, dtype in STREAMS.values():
            expected = np.array([scalar(ref) for _ in range(n)], dtype=dtype)
            got = block(rng, n)
            assert got.dtype == dtype and got.shape == (n,)
            assert got.tobytes() == expected.tobytes()
            assert rng.uniform() == ref.uniform()
    # a negative length is rejected and leaves the state as it was
    with pytest.raises(ValueError, match="block length must be >= 0: -1$"):
        rng.normal_vector(-1)
    assert rng.next_u64() == ref.next_u64()


@pytest.mark.filterwarnings("error")
def test_block_keeps_signed_zeros():
    # a seed whose first uniform in (0, 1] is exactly 1 (found by inverting the
    # finalizer): the Box-Muller radius is sqrt(-0.0) = -0.0, so the draws are
    # signed zeros, here -0.0 and -0.0 + 0.0j
    seed = 0x8FF53ED1A44305A4
    assert Rng(seed).next_u64() >> 11 == 2**53 - 1
    expected = np.array([Rng(seed).normal(), Rng(seed).complex_normal()])
    assert np.signbit(expected.real).all() and not np.signbit(expected.imag).any()
    got = np.array([Rng(seed).normal_vector(1)[0], Rng(seed).complex_normal_vector(1)[0]])
    assert got.tobytes() == expected.tobytes()
