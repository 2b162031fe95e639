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
takes one vector and ``unshift_sum`` one row per offset, or a single 1-d
row that stands for the same row under every offset (or, with an int
``select``, under that one offset).

The transforms are numpy's FFT along the last axis, for any d.  ``dft``,
``dft_adjoint`` and ``idft`` call the pocketfft gufuncs behind ``np.fft.fft``
and ``np.fft.ifft`` (``numpy.fft._pocketfft_umath``, numpy >= 2.0) with the
factor ``np.fft`` would pass (1; 1 for ``norm="forward"``; 1/d), so they give
``np.fft``'s bits without its Python layer, a fixed cost per call as large
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
    return _pocketfft.fft(x, 1, out=np.empty_like(x))


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


def idft(X: np.ndarray) -> np.ndarray:
    """Inverse transform: (1/d) times the conjugate-transpose transform."""
    X = _as_rows(X)
    return _pocketfft.ifft(X, 1.0 / X.shape[-1], out=np.empty_like(X))


def dft_adjoint(X: np.ndarray) -> np.ndarray:
    """Conjugate-transpose transform F^* X along the last axis: d idft(X),
    into a new array."""
    X = _as_rows(X)
    return _pocketfft.ifft(X, 1, out=np.empty_like(X))


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
def _row_base(n: int, width: int) -> np.ndarray:
    """The column of row starts 0, width, ..., (n - 1) width, read-only:
    with ``flat = idx + _row_base(len(idx), width)``, row i of
    ``stack.reshape(-1)[flat]`` is row i of an n x width stack gathered by
    row i of ``idx``."""
    base = np.arange(0, width * n, width)[:, np.newaxis]
    base.setflags(write=False)
    return base


@lru_cache(maxsize=None)
def _gather_plan(offsets: tuple[int, ...], d: int, mode: str, sign: int):
    """Row width, index matrix and full flat index such that row i of
    ``_widen(v, width)[idx]`` is S_{sign*offsets[i]} v; zero-padded rows
    are d + 1 wide, and every emptied entry reads their zero column d."""
    offs = np.asarray(offsets, dtype=np.intp).reshape(-1, 1)
    pos = np.arange(d, dtype=np.intp).reshape(1, -1)
    src = pos - sign * offs
    if mode == CIRCULAR:
        width, idx = d, np.mod(src, d)
    else:
        width, idx = d + 1, np.where((src >= 0) & (src < d), src, d)
    flat = idx + _row_base(len(idx), width)
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


def shift_stack(v: np.ndarray, shifts: ShiftSet, select=None) -> np.ndarray:
    """Stack whose rows are S_r v for each offset, in listed order.

    ``select`` lists row indices into the offsets (repeats allowed) and
    keeps only those rows, in that order.
    """
    v = np.asarray(v)
    width, idx, _ = _gather_plan(shifts.offsets, v.shape[-1], shifts.mode, 1)
    if select is not None:
        idx = idx.take(select, 0)
    return _widen(v, width)[idx]


def unshift_sum(rows: np.ndarray, shifts: ShiftSet, select=None) -> np.ndarray:
    """Sum of S_{-r} applied to the matching row of ``rows``.

    This is the adjoint reduction used by the window gradient: entry j of
    the result collects rows[i, j + r_i] subject to the mode's boundary
    rule.  With ``select``, row i of ``rows`` belongs to the offset with
    index ``select[i]``, as for ``shift_stack(v, shifts, select)``.  A 1-d
    ``rows`` is the same row for every (selected) offset.  An int
    ``select`` takes a 1-d row and returns S_{-r} of it for that one
    offset: a single gather of the cached plan row, with no sum.
    """
    rows = np.asarray(rows)
    width, idx, flat = _gather_plan(shifts.offsets, rows.shape[-1], shifts.mode, -1)
    if isinstance(select, (int, np.integer)):
        if rows.ndim != 1:
            raise ValueError("an int select takes one 1-d row")
        return _widen(rows, width)[idx[select]]
    if select is not None:
        idx = idx.take(select, 0)
        flat = idx + _row_base(len(idx), width)
    if rows.ndim == 1:
        return np.add.reduce(_widen(rows, width)[idx], 0)
    if len(rows) != len(idx):
        raise ValueError("rows must hold one row per selected offset")
    # one flat gather: row i of the result reads row i of ``rows``
    return np.add.reduce(_widen(rows, width).reshape(-1)[flat], 0)


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
