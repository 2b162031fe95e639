"""Deterministic random numbers with a fully documented algorithm.

The core generator is SplitMix64: a 64-bit counter advanced by the
golden-ratio increment 0x9E3779B97F4A7C15 whose output is finalized by two
xorshift-multiply rounds.  It is tiny and trivially portable, so a seed
reproduces the identical stream on any platform or language, which the
trace-level regression tests rely on.  Everything else is derived from that
single stream:

* ``uniform``        53-bit mantissa in [0, 1)
* normal draws       Box-Muller on two uniforms, no cached spare
* ``poisson``        product-of-uniforms inversion below mean 10,
                     Hormann's PTRS transformed rejection above

Output i of the stream is the finalizer applied to seed + i * increment
(mod 2**64), so ``next_u64_block`` computes n outputs at once in wrapping
uint64 arithmetic and returns exactly what n ``next_u64`` calls would.
``uniform_vector`` (entry j from output j), ``normal_vector`` and
``complex_normal_vector`` are built on it and keep the scalar draw order;
a normal's entry j consumes outputs 2j (the uniform in (0, 1] under
the logarithm) and 2j + 1 (the angle).  Their logarithms, cosines and sines
go through ``math`` element by element, because numpy's SIMD versions may
differ from ``math`` in the last bit (``np.log`` does on some CPUs); the
square root and the products stay in numpy, which rounds them correctly.
The scalar methods, ``shuffle`` and Poisson draws (which consume a variable
number of outputs) are the reference the block path is tested against.

An ``Rng`` is single-owner mutable state.  Solvers and synthesis routines
each own their instance exclusively; never share one between concurrent
callers.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# the same constants as numpy scalars, for the block path
_GOLDEN_U64, _MIX1_U64, _MIX2_U64 = (np.uint64(c) for c in (_GOLDEN, _MIX1, _MIX2))


def _integral(value) -> bool:
    """An int, or a float with no fraction (2.0 yes; 2.9, nan, inf and the
    bools True and False no).  A plain int skips the slower ABC check."""
    return (type(value) is int
            or isinstance(value, Integral) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer())


def _count(value, name: str, least: int | None = None) -> int:
    """``value`` as an int, the one check of every integer count: a value
    that is not ``_integral``, or a float of magnitude above 2**53 (where
    consecutive integers are no longer all floats), raises
    ``"{name} must be an integer: {value!r}"`` and one below ``least`` (if
    given) ``"{name} must be >= {least}: {value}"``."""
    if not _integral(value) or isinstance(value, float) and abs(value) > 2.0**53:
        raise ValueError(f"{name} must be an integer: {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}: {value}")
    return value


def _real(value, name: str, least: float | None = None) -> float:
    """``value`` as a float, the one check of every real setting and the twin of
    ``_count``: a value that is not a real number (a bool is not one) raises
    ``"{name} must be a number: {value!r}"``, one that is not finite (an int
    too large for a float is infinite) ``"{name} must be finite: {value}"`` and
    one below ``least`` (if given) ``"{name} must be >= {least}: {value}"``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number: {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite: {value}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}: {value}")
    return value


class Rng:
    """SplitMix64 stream seeded by a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = _count(seed, "seed") & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_u64_block(self, n: int) -> np.ndarray:
        """The next n outputs of ``next_u64`` as a uint64 array."""
        n = _count(n, "block length", 0)
        # Array arithmetic in uint64 wraps mod 2**64 without a warning; the
        # state itself advances in Python ints.
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _GOLDEN_U64
        z += np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        z ^= z >> 30
        z *= _MIX1_U64
        z ^= z >> 27
        z *= _MIX2_U64
        z ^= z >> 31
        return z

    def uniform(self) -> float:
        """Uniform draw in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_vector(self, n: int) -> np.ndarray:
        """n ``uniform`` draws, the same bits in the same order."""
        f = (self.next_u64_block(n) >> 11).astype(np.float64)
        f *= 2.0**-53
        return f

    def _uniform_pos(self) -> float:
        # (0, 1]; keeps the logarithm in Box-Muller finite.
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def normal(self) -> float:
        """Standard real normal draw (consumes two uniforms)."""
        r = math.sqrt(-2.0 * math.log(self._uniform_pos()))
        return r * math.cos(2.0 * math.pi * self.uniform())

    def complex_normal(self) -> complex:
        """Standard complex normal: real and imaginary parts are N(0, 1/2)."""
        r = math.sqrt(-math.log(self._uniform_pos()))
        phi = 2.0 * math.pi * self.uniform()
        return complex(r * math.cos(phi), r * math.sin(phi))

    def _polar_block(self, n: int) -> tuple[int, np.ndarray, np.ndarray]:
        # n as an int, the log of the (0, 1] uniforms and the angles of n
        # Box-Muller draws; k * 2**-53 + 2**-53 is (k + 1) * 2**-53 exactly,
        # as k < 2**53
        n = _count(n, "n", 0)
        f = self.uniform_vector(2 * n)
        log_u = np.fromiter(map(math.log, (f[0::2] + 2.0**-53).tolist()), np.float64, n)
        return n, log_u, 2.0 * math.pi * f[1::2]

    def normal_vector(self, n: int) -> np.ndarray:
        """n ``normal`` draws, the same bits in the same order."""
        n, log_u, phi = self._polar_block(n)
        return np.sqrt(-2.0 * log_u) * np.fromiter(map(math.cos, phi.tolist()), np.float64, n)

    def complex_normal_vector(self, n: int) -> np.ndarray:
        """n ``complex_normal`` draws, the same bits in the same order."""
        n, log_u, phi = self._polar_block(n)
        r = np.sqrt(-log_u)
        angles = phi.tolist()
        out = np.empty(n, dtype=np.complex128)
        # set the parts separately: re + 1j * im would turn a -0.0 real part into +0.0
        out.real = r * np.fromiter(map(math.cos, angles), np.float64, n)
        out.imag = r * np.fromiter(map(math.sin, angles), np.float64, n)
        return out

    def integer_below(self, n: int) -> int:
        """Integer in [0, n) by Lemire's multiply-shift (bias < n / 2**64)."""
        return (self.next_u64() * n) >> 64

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.integer_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def poisson(self, mean: float) -> int:
        if mean < 0 or not math.isfinite(mean):
            raise ValueError("poisson mean must be finite and nonnegative")
        if mean == 0.0:
            return 0
        if mean < 10.0:
            return self._poisson_mult(mean)
        return self._poisson_ptrs(mean)

    def _poisson_mult(self, mean: float) -> int:
        # Knuth's product method: count uniforms until the product drops
        # below exp(-mean).
        limit = math.exp(-mean)
        k = 0
        prod = self.uniform()
        while prod > limit:
            k += 1
            prod *= self.uniform()
        return k

    def _poisson_ptrs(self, mean: float) -> int:
        # Hormann (1993), transformed rejection with squeeze; valid mean >= 10.
        slam = math.sqrt(mean)
        loglam = math.log(mean)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2.0)
        while True:
            u = self.uniform() - 0.5
            v = self.uniform()
            us = 0.5 - abs(u)
            k = int(math.floor((2.0 * a / us + b) * u + mean + 0.43))
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            if (math.log(v) + math.log(invalpha) - math.log(a / (us * us) + b)
                    <= k * loglam - mean - math.lgamma(k + 1.0)):
                return k
