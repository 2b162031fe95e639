"""1-D discrete Fourier transform, shift operators and the bilinear form.

Conventions used throughout the package:

* forward transform, unnormalized:  X_j = sum_k exp(-2 pi i j k / d) x_k,
  so Parseval reads ||X||^2 = d ||x||^2;
* inverse transform: conjugate-transpose transform divided by d;
* circular shift:    (S_r v)_j = v_{(j - r) mod d};
* zero-padded shift: (S_r v)_j = v_{j - r} when the index stays in [0, d),
  otherwise 0.

In both shift flavours the transpose of S_r is S_{-r}, which the gradient
code relies on.  A zero-padded family gathers from its input widened by a
zero column at index d, which every emptied entry reads.  ``shift_stack``
takes one vector; its adjoint gather ``unshift_stack`` and that gather's
row sum ``unshift_sum`` take one row per offset, or a single 1-d row that
stands for the same row under every offset.  They gather every offset;
only ``unshift_stack`` takes an int ``select``, one offset for a 1-d row.

The transforms are numpy's FFT along the last axis, for any d.  ``dft``
and ``dft_adjoint`` call the pocketfft gufuncs behind ``np.fft.fft`` and
``np.fft.ifft`` (``numpy.fft._pocketfft_umath``, numpy >= 2.0) with the
factor ``np.fft`` would pass (1; 1 for ``norm="forward"``), as the
float the gufunc takes, so they give ``np.fft``'s bits without its Python
layer or a cast of the factor per call, a fixed cost per call as large
as the transform itself at d = 8.  They keep the one check the kernels lack:
a missing or empty last axis raises ``ValueError``.  Each writes into a
fresh buffer of the input's shape, so the result never aliases the input.
``dft_direct`` is the O(d^2) summation kept as an independent oracle.  Row
i of a batched transform equals the transform of row i alone, bit for bit,
which the solvers rely on when they reuse rows of the objective's stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .rng import _count

# np.empty_like's own C function, without its array-function dispatch
_empty_like = np.empty_like._implementation

CIRCULAR = "circular"
ZERO_PADDED = "zero-padded"
MODES = (CIRCULAR, ZERO_PADDED)


# ---------------------------------------------------------------------------
# transforms

def _as_rows(x) -> np.ndarray:
    """``x`` as complex128, with a last axis of length at least 1."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError(f"a transform needs a nonempty last axis: shape {x.shape}")
    return x


def dft(x: np.ndarray) -> np.ndarray:
    """Forward transform along the last axis, into a new array."""
    x = _as_rows(x)
    return _pocketfft.fft(x, 1.0, out=_empty_like(x))


def dft_direct(x: np.ndarray) -> np.ndarray:
    """O(d^2) transform straight from the definition; the testing oracle."""
    x = np.asarray(x, dtype=np.complex128)
    # the matrix is symmetric, so row j of the product sums
    # exp(-2 pi i j k / d) x_k over k.
    return x @ _direct_matrix(x.shape[-1])


@lru_cache(maxsize=None)
def _direct_matrix(d: int) -> np.ndarray:
    """The d x d matrix exp(-2 pi i j k / d), read-only."""
    jk = np.outer(np.arange(d), np.arange(d))
    w = np.exp(-2j * np.pi * jk / d)
    w.setflags(write=False)
    return w


def dft_adjoint(X: np.ndarray) -> np.ndarray:
    """Conjugate-transpose transform F^* X along the last axis, d times the
    inverse transform, into a new array."""
    X = _as_rows(X)
    return _pocketfft.ifft(X, 1.0, out=_empty_like(X))


# ---------------------------------------------------------------------------
# shifts

def shift(v: np.ndarray, r: int, mode: str = CIRCULAR) -> np.ndarray:
    """Apply the shift operator S_r to a vector."""
    v = np.asarray(v)
    d = v.shape[-1]
    if mode == CIRCULAR:
        return np.roll(v, r, axis=-1)
    if mode != ZERO_PADDED:
        raise ValueError(f"unknown shift mode: {mode!r}")
    out = np.zeros_like(v)
    if r >= d or r <= -d:
        return out
    if r >= 0:
        out[..., r:] = v[..., : d - r]
    else:
        out[..., : d + r] = v[..., -r:]
    return out


@dataclass(frozen=True)
class ShiftSet:
    """A finite family of shifts, all circular or all zero-padded."""

    offsets: tuple[int, ...]
    mode: str = CIRCULAR

    def __post_init__(self):
        object.__setattr__(self, "offsets",
                           tuple(_count(o, "offsets") for o in self.offsets))
        if len(self.offsets) == 0:
            raise ValueError("offsets must contain at least one shift")
        if len(set(self.offsets)) != len(self.offsets):
            raise ValueError("offsets must be distinct")
        if self.mode not in MODES:
            raise ValueError(f"unknown shift mode: {self.mode!r}")

    def __len__(self) -> int:
        return len(self.offsets)

    def validate_for_dim(self, d: int) -> None:
        d = _count(d, "d", 1)
        if self.mode == CIRCULAR:
            reduced = {o % d for o in self.offsets}
            if len(reduced) != len(self.offsets):
                raise ValueError("circular offsets must be distinct modulo d")

    @staticmethod
    def all_shifts(d: int, mode: str = CIRCULAR) -> "ShiftSet":
        return ShiftSet(tuple(range(_count(d, "d", 1))), mode)


@lru_cache(maxsize=None)
def _gather_plan(offsets: tuple[int, ...], d: int, mode: str, sign: int):
    """Row width, index matrix and flat index such that row i of
    ``_widen(v, width)[idx]`` is S_{sign*offsets[i]} v, and row i of
    ``_widen(rows, width).reshape(-1)[flat]`` is that shift of row i of
    ``rows``; zero-padded rows are d + 1 wide, and every emptied entry
    reads their zero column d."""
    offs = np.asarray(offsets, dtype=np.intp).reshape(-1, 1)
    pos = np.arange(d, dtype=np.intp).reshape(1, -1)
    src = pos - sign * offs
    if mode == CIRCULAR:
        width, idx = d, np.mod(src, d)
    else:
        width, idx = d + 1, np.where((src >= 0) & (src < d), src, d)
    flat = idx + np.arange(0, width * len(idx), width)[:, np.newaxis]
    for a in (idx, flat):
        a.setflags(write=False)
    return width, idx, flat


def _widen(a: np.ndarray, width: int) -> np.ndarray:
    """``a`` with a zero column appended, unless its rows are ``width`` wide."""
    if a.shape[-1] == width:
        return a
    out = np.zeros(a.shape[:-1] + (width,), dtype=a.dtype)
    out[..., :-1] = a
    return out


def shift_stack(v: np.ndarray, shifts: ShiftSet) -> np.ndarray:
    """Stack whose rows are S_r v for each offset, in listed order."""
    v = np.asarray(v)
    width, idx, _ = _gather_plan(shifts.offsets, v.shape[-1], shifts.mode, 1)
    return _widen(v, width)[idx]


def unshift_stack(rows: np.ndarray, shifts: ShiftSet,
                  select: int | None = None) -> np.ndarray:
    """Stack whose row i is S_{-r} applied to row i of ``rows``, r offset i:
    the adjoint gather of ``shift_stack``, with no sum.

    Entry j of row i reads rows[i, j + r] subject to the mode's boundary
    rule.  A 1-d ``rows`` is the same row for every offset.  An int
    ``select`` takes a 1-d row and returns S_{-r} of it for that one
    offset: a single gather of the cached plan row.
    """
    rows = np.asarray(rows)
    width, idx, flat = _gather_plan(shifts.offsets, rows.shape[-1], shifts.mode, -1)
    if select is not None:
        if rows.ndim != 1:
            raise ValueError("an int select takes one 1-d row")
        return _widen(rows, width)[idx[select]]
    if rows.ndim == 1:
        return _widen(rows, width)[idx]
    if len(rows) != len(idx):
        raise ValueError("rows must hold one row per offset")
    # one flat gather: row i of the result reads row i of ``rows``
    return _widen(rows, width).reshape(-1)[flat]


def unshift_sum(rows: np.ndarray, shifts: ShiftSet) -> np.ndarray:
    """Sum of S_{-r} applied to the matching row of ``rows``: the row sum of
    ``unshift_stack(rows, shifts)``, in row order, and the adjoint
    reduction of the window gradient."""
    return np.add.reduce(unshift_stack(rows, shifts), 0)


# ---------------------------------------------------------------------------
# bilinear form

def q_apply(z: np.ndarray, v: np.ndarray, r: int, k: int,
            mode: str = CIRCULAR) -> complex:
    """Entrywise evaluation of sum_j z_j exp(-2 pi i k j / d) (S_r v)_j.

    Equals dft(z * shift(v, r))[k] but never runs a transform, so it serves
    as an independent check of the transform path.
    """
    z, v = (np.asarray(a, dtype=np.complex128) for a in (z, v))
    if z.shape != v.shape:
        raise ValueError("z and v must have the same length")
    d = z.shape[-1]
    if not 0 <= k < d:
        raise ValueError("frequency index k must lie in [0, d)")
    phase = np.exp(-2j * np.pi * k * np.arange(d) / d)
    return complex(np.sum(z * phase * shift(v, r, mode)))
