"""1-D discrete Fourier transform, shift operators and the bilinear form.

Conventions used throughout the package:

* forward transform, unnormalized:  X_j = sum_k exp(-2 pi i j k / d) x_k,
  so Parseval reads ||X||^2 = d ||x||^2;
* inverse transform: conjugate-transpose transform divided by d;
* circular shift:    (S_r v)_j = v_{(j - r) mod d};
* zero-padded shift: (S_r v)_j = v_{j - r} when the index stays in [0, d),
  otherwise 0.

In both shift flavours the transpose of S_r is S_{-r}, which the gradient
code relies on.

The transforms are numpy's FFT (``np.fft``) along the last axis, for any d;
``dft_direct`` is the O(d^2) summation kept as an independent oracle.  Row i
of a batched transform equals the transform of row i alone, bit for bit,
which the solvers rely on when they reuse rows of the objective's stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

CIRCULAR = "circular"
ZERO_PADDED = "zero-padded"
MODES = (CIRCULAR, ZERO_PADDED)


# ---------------------------------------------------------------------------
# transforms

_direct_matrices: dict[int, np.ndarray] = {}


def dft(x: np.ndarray) -> np.ndarray:
    """Forward transform along the last axis."""
    return np.fft.fft(np.asarray(x, dtype=np.complex128))


def dft_direct(x: np.ndarray) -> np.ndarray:
    """O(d^2) transform straight from the definition; the testing oracle."""
    x = np.asarray(x, dtype=np.complex128)
    d = x.shape[-1]
    w = _direct_matrices.get(d)
    if w is None:
        jk = np.outer(np.arange(d), np.arange(d))
        w = np.exp(-2j * np.pi * jk / d)
        w.setflags(write=False)
        _direct_matrices[d] = w
    # w is symmetric, so x @ w sums exp(-2 pi i j k / d) x_k over k.
    return x @ w


def idft(X: np.ndarray) -> np.ndarray:
    """Inverse transform: (1/d) times the conjugate-transpose transform."""
    return np.fft.ifft(np.asarray(X, dtype=np.complex128))


def dft_adjoint(X: np.ndarray) -> np.ndarray:
    """Conjugate-transpose transform F^* X along the last axis: d idft(X)."""
    return np.fft.ifft(np.asarray(X, dtype=np.complex128), norm="forward")


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
        offsets = tuple(int(o) for o in self.offsets)
        if offsets != tuple(self.offsets):
            raise ValueError(f"offsets must be integers: {tuple(self.offsets)!r}")
        object.__setattr__(self, "offsets", offsets)
        if len(offsets) == 0:
            raise ValueError("offsets must contain at least one shift")
        if len(set(offsets)) != len(offsets):
            raise ValueError("offsets must be distinct")
        if self.mode not in MODES:
            raise ValueError(f"unknown shift mode: {self.mode!r}")

    def __len__(self) -> int:
        return len(self.offsets)

    def validate_for_dim(self, d: int) -> None:
        if self.mode == CIRCULAR:
            reduced = {o % d for o in self.offsets}
            if len(reduced) != len(self.offsets):
                raise ValueError("circular offsets must be distinct modulo d")

    @staticmethod
    def all_shifts(d: int, mode: str = CIRCULAR) -> "ShiftSet":
        return ShiftSet(tuple(range(d)), mode)


def _flat_index(idx: np.ndarray, d: int) -> np.ndarray:
    """Index into the flat view of an n x d stack such that row i of
    ``stack.reshape(-1)[flat]`` is row i of the stack gathered by row i of
    ``idx``."""
    return idx + np.arange(0, d * len(idx), d)[:, np.newaxis]


@lru_cache(maxsize=None)
def _gather_plan(offsets: tuple[int, ...], d: int, mode: str, sign: int):
    """Index matrix such that row i of v[idx] is S_{sign*offsets[i]} v, the
    boundary mask (None when circular) and the full stack's flat index."""
    offs = np.asarray(offsets, dtype=np.intp).reshape(-1, 1)
    pos = np.arange(d, dtype=np.intp).reshape(1, -1)
    src = pos - sign * offs
    if mode == CIRCULAR:
        idx, valid = np.mod(src, d), None
    else:
        valid = (src >= 0) & (src < d)
        idx = np.clip(src, 0, d - 1)
    flat = _flat_index(idx, d)
    for a in (idx, valid, flat):
        if a is not None:
            a.setflags(write=False)
    return idx, valid, flat


def _plan(shifts: ShiftSet, d: int, sign: int, select):
    """Gather plan restricted to the rows ``select`` (all rows when None);
    the flat index is None when restricted."""
    idx, valid, flat = _gather_plan(shifts.offsets, d, shifts.mode, sign)
    if select is None:
        return idx, valid, flat
    return idx.take(select, 0), None if valid is None else valid.take(select, 0), None


def _stack(v, shifts: ShiftSet, sign: int, select):
    v = np.asarray(v)
    idx, valid, _ = _plan(shifts, v.shape[-1], sign, select)
    rows = v[idx]
    return rows if valid is None else np.where(valid, rows, 0)


def shift_stack(v: np.ndarray, shifts: ShiftSet, select=None) -> np.ndarray:
    """Stack whose rows are S_r v for each offset, in listed order.

    ``select`` lists row indices into the offsets (repeats allowed) and
    keeps only those rows, in that order.
    """
    return _stack(v, shifts, 1, select)


def neg_shift_stack(v: np.ndarray, shifts: ShiftSet) -> np.ndarray:
    """Stack whose rows are S_{-r} v for each offset, in listed order."""
    return _stack(v, shifts, -1, None)


def unshift_sum(rows: np.ndarray, shifts: ShiftSet, select=None) -> np.ndarray:
    """Sum of S_{-r} applied to the matching row of ``rows``.

    This is the adjoint reduction used by the window gradient: entry j of
    the result collects rows[i, j + r_i] subject to the mode's boundary
    rule.  With ``select``, row i of ``rows`` belongs to the offset with
    index ``select[i]``, as for ``shift_stack(v, shifts, select)``.
    """
    rows = np.asarray(rows)
    d = rows.shape[1]
    idx, valid, flat = _plan(shifts, d, -1, select)
    if flat is None:
        flat = _flat_index(idx, d)
    if len(rows) != len(flat):
        raise ValueError("rows must hold one row per selected offset")
    # one flat gather: row i of the result reads row i of ``rows``
    gathered = rows.reshape(-1)[flat]
    if valid is not None:
        gathered = np.where(valid, gathered, 0)
    return gathered.sum(axis=0)


# ---------------------------------------------------------------------------
# bilinear form

def q_apply(z: np.ndarray, v: np.ndarray, r: int, k: int,
            mode: str = CIRCULAR) -> complex:
    """Entrywise evaluation of sum_j z_j exp(-2 pi i k j / d) (S_r v)_j.

    Equals dft(z * shift(v, r))[k] but never runs a transform, so it serves
    as an independent check of the transform path.
    """
    z = np.asarray(z, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if z.shape != v.shape:
        raise ValueError("z and v must have the same length")
    d = z.shape[-1]
    if not 0 <= k < d:
        raise ValueError("frequency index k must lie in [0, d)")
    phase = np.exp(-2j * np.pi * k * np.arange(d) / d)
    return complex(np.sum(z * phase * shift(v, r, mode)))
