import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindptycho import (ShiftSet, dft, dft_direct, idft, q_apply, shift,
                         shift_stack)
from blindptycho.fourier import MODES, _pocketfft, dft_adjoint, unshift_sum

from conftest import np_pair


def test_dft_delta_and_constant():
    assert np.allclose(dft(np.array([1, 0, 0, 0], complex)), np.ones(4))
    assert np.allclose(dft(np.ones(4)), np.array([4, 0, 0, 0]))


def test_idft_hand_values():
    assert np.allclose(idft(np.array([4, 0, 0, 0], complex)), np.ones(4))
    assert np.allclose(idft(np.array([2, 0], complex)), np.ones(2))


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8, 12, 16, 31, 32, 48, 64])
def test_parseval_roundtrip_and_oracle(d):
    rng = np.random.default_rng(d)
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    X = dft(x)
    assert np.allclose(np.vdot(X, X).real, d * np.vdot(x, x).real, rtol=1e-12)
    assert np.allclose(idft(X), x, rtol=1e-12, atol=1e-12)
    # fast path against the direct-summation oracle
    assert np.allclose(X, dft_direct(x), rtol=1e-12, atol=1e-12)


def test_dft_batched_rows_match_single():
    # bit for bit: the solvers take single-region spectra and residuals
    # from rows of the objective's batched transforms, and a (G, R, d)
    # stack of G members' rows transforms member by member alike
    rng = np.random.default_rng(0)
    for d in (8, 16, 100, 256):
        for n in (1, 4, 40):
            block = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
            stack = rng.normal(size=(3, n, d)) + 1j * rng.normal(size=(3, n, d))
            for transform in (dft, idft, dft_adjoint):
                batched = transform(block)
                for i in range(n):
                    assert np.array_equal(batched[i], transform(block[i]))
                if n == 40:               # a gather with a repeated row
                    pick = [2, 2, 5]
                    assert np.array_equal(transform(block[pick]), batched[pick])
                members = transform(stack)
                for g in range(len(stack)):
                    assert np.array_equal(members[g], transform(stack[g]))
                    assert np.array_equal(members[g, -1], transform(stack[g, -1]))


# np.fft's public functions, each with the norm its kernel call stands for
_NP_FFT = {dft: np.fft.fft,
           dft_adjoint: lambda x: np.fft.ifft(x, norm="forward"),
           idft: np.fft.ifft}


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 16, 97, 100, 128, 256, 1024])
def test_transforms_equal_np_fft_bytes(d):
    # the kernels are np.fft's own, called with np.fft's factors, so every
    # shape and memory layout gives np.fft's bytes
    rng = np.random.default_rng(d)
    wide = rng.normal(size=(5, 2 * d)) + 1j * rng.normal(size=(5, 2 * d))
    block = wide[:, :d].copy()
    inputs = [block[0], block, np.stack([block, 2 * block]),
              wide[:, ::2], np.asfortranarray(block), block.real]
    for transform, reference in _NP_FFT.items():
        for x in inputs:
            out = transform(x)
            assert out.shape == x.shape
            assert out.tobytes() == reference(x).tobytes()


def test_transforms_reject_a_missing_or_empty_last_axis():
    # np.fft raises ValueError here; numpy's kernel alone would raise
    # RuntimeError on (0,) and return an empty array for (3, 0)
    for transform in _NP_FFT:
        for shape in [(), (0,), (3, 0), (2, 3, 0)]:
            with pytest.raises(ValueError, match="nonempty last axis"):
                transform(np.zeros(shape, complex))


def test_pocketfft_kernel_signatures():
    # the transforms call numpy's private pocketfft gufuncs; a numpy release
    # that changes them fails here, by name
    assert _pocketfft.fft.signature == "(n),()->(m)"
    assert _pocketfft.ifft.signature == "(m),()->(n)"


@pytest.mark.parametrize("transform", [dft, dft_adjoint, idft])
def test_transforms_return_fresh_arrays(transform):
    # the output buffer is new: writable, and never the input itself
    rng = np.random.default_rng(3)
    block = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    frozen = block.copy()
    frozen.setflags(write=False)
    for x in (block, block[1], block[:, ::2], frozen, block.real):
        before = np.array(x)
        out = transform(x)
        assert out.dtype == np.complex128 and out.shape == np.shape(x)
        assert out.flags.writeable and not np.shares_memory(out, x)
        assert np.array_equal(x, before)
        out[...] = 0
        assert np.array_equal(x, before)


def test_dft_adjoint_is_unnormalized_inverse():
    x = np_pair(12, 7)[0]
    assert np.allclose(dft_adjoint(x), 12 * idft(x), rtol=1e-13, atol=1e-13)
    assert np.allclose(dft_adjoint(x), np.conj(dft_direct(np.conj(x))),
                       rtol=1e-12, atol=1e-12)


def test_shift_definition():
    v = np.array([1, 2, 3, 4.0])
    assert np.array_equal(shift(v, 1), [4, 1, 2, 3])
    assert np.array_equal(shift(v, 0), v)
    assert np.array_equal(shift(v, 4), v)            # full period
    assert np.array_equal(shift(v, 1, "zero-padded"), [0, 1, 2, 3])
    assert np.array_equal(shift(v, -1, "zero-padded"), [2, 3, 4, 0])
    assert np.array_equal(shift(v, 5, "zero-padded"), [0, 0, 0, 0])


@pytest.mark.parametrize("a,b", [(1, 2), (3, 3), (-2, 5), (0, 7)])
def test_circular_shift_group_law(a, b):
    rng = np.random.default_rng(abs(a) + b)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert np.array_equal(shift(shift(v, a), b), shift(v, a + b))


def test_shift_transpose_is_negative_shift():
    # <S_r u, w> == <u, S_{-r} w> in both modes
    rng = np.random.default_rng(9)
    u = rng.normal(size=8) + 1j * rng.normal(size=8)
    w = rng.normal(size=8) + 1j * rng.normal(size=8)
    for mode in ("circular", "zero-padded"):
        for r in (0, 1, 3, -2, 7):
            lhs = np.vdot(shift(u, r, mode), w)
            rhs = np.vdot(u, shift(w, -r, mode))
            assert abs(lhs - rhs) < 1e-12


def test_shift_set_validation():
    with pytest.raises(ValueError):
        ShiftSet(())
    with pytest.raises(ValueError):
        ShiftSet((0, 1, 1))
    with pytest.raises(ValueError):
        ShiftSet((0, 1), mode="bogus")
    ShiftSet((0, 4)).validate_for_dim(8)
    with pytest.raises(ValueError):
        ShiftSet((0, 8)).validate_for_dim(8)  # 8 == 0 (mod 8)
    ShiftSet((0, 8), mode="zero-padded").validate_for_dim(8)
    with pytest.raises(ValueError, match="offsets must be an integer: 0.6$"):
        ShiftSet((0.6, 1.6, 2.2))                     # not truncated to (0, 1, 2)
    with pytest.raises(ValueError, match="offsets must be an integer: False$"):
        ShiftSet((False, True))                      # a bool is not an integer
    assert ShiftSet((0.0, np.int64(2))).offsets == (0, 2)
    assert ShiftSet.all_shifts(4.0, "zero-padded") == ShiftSet((0, 1, 2, 3), "zero-padded")
    ShiftSet((0, 4)).validate_for_dim(8.0)


_ONES = np.ones(4, complex)


@pytest.mark.parametrize("call,message", [
    (lambda: shift(_ONES, 1, "bogus"), "unknown shift mode: 'bogus'"),
    (lambda: q_apply(_ONES, _ONES[:3], 0, 0), "z and v must have the same length"),
    (lambda: q_apply(_ONES, _ONES, 0, 4), "frequency index k must lie in [0, d)"),
    (lambda: q_apply(_ONES, _ONES, 0, -1), "frequency index k must lie in [0, d)"),
    (lambda: ShiftSet((0,)).validate_for_dim(0), "d must be >= 1: 0"),
    (lambda: ShiftSet((0,), "zero-padded").validate_for_dim(-1), "d must be >= 1: -1"),
    (lambda: ShiftSet((0, 1)).validate_for_dim(2.5), "d must be an integer: 2.5"),
    (lambda: ShiftSet((0,)).validate_for_dim(True), "d must be an integer: True"),
    (lambda: ShiftSet.all_shifts(2.5), "d must be an integer: 2.5"),
    (lambda: ShiftSet.all_shifts(True), "d must be an integer: True"),
    (lambda: ShiftSet.all_shifts(0), "d must be >= 1: 0"),
], ids=["shift-mode", "q-lengths", "q-k-high", "q-k-negative", "dim-zero",
        "dim-negative", "dim-fraction", "dim-bool", "all-shifts-fraction",
        "all-shifts-bool", "all-shifts-zero"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("mode", ["circular", "zero-padded"])
def test_shift_stack_rows(mode):
    rng = np.random.default_rng(4)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    shifts = ShiftSet((0, 2, 5), mode)
    rows = shift_stack(v, shifts)
    for i, r in enumerate(shifts.offsets):
        assert np.array_equal(rows[i], shift(v, r, mode))


@pytest.mark.parametrize("mode", ["circular", "zero-padded"])
def test_selected_rows_repeat_and_reorder(mode):
    rng = np.random.default_rng(8)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    shifts = ShiftSet((-3, 0, 2, 4), mode)
    shifts.validate_for_dim(8)  # distinct modulo 8, so a problem can hold it
    select = [3, 1, 3, 0]
    assert np.array_equal(shift_stack(v, shifts, select),
                          shift_stack(v, shifts)[select])
    # the selected-row adjoint is the row-order sum of single shifts, bit
    # for bit, up to K = 40 rows with repeats
    wide = ShiftSet(tuple(range(-40, 40, 2)), mode)
    cases = [(shifts, select, 8)] + [
        (wide, rng.integers(0, 40, size=k).tolist(), 100) for k in (1, 13, 40)]
    for family, chosen, d in cases:
        rows = rng.normal(size=(len(chosen), d)) + 1j * rng.normal(size=(len(chosen), d))
        expected = sum(shift(rows[i], -family.offsets[j], mode)
                       for i, j in enumerate(chosen))
        assert np.array_equal(unshift_sum(rows, family, chosen), expected)


@pytest.mark.parametrize("mode", ["circular", "zero-padded"])
def test_unshift_sum_of_one_row(mode):
    # a 1-d row stands for that row under every (selected) offset
    rng = np.random.default_rng(4)
    row = rng.normal(size=8) + 1j * rng.normal(size=8)
    shifts = ShiftSet((-3, 0, 2, 6, 9), mode)
    stacked = np.repeat(row[np.newaxis], len(shifts), axis=0)
    assert np.array_equal(unshift_sum(row, shifts), unshift_sum(stacked, shifts))
    select = [4, 1, 4]
    assert np.array_equal(unshift_sum(row, shifts, select),
                          unshift_sum(stacked[:3], shifts, select))


@pytest.mark.parametrize("mode", ["circular", "zero-padded"])
def test_unshift_sum_of_one_offset(mode):
    # an int select gathers S_{-r} of one 1-d row: the one-row selection
    # [i] and the single-offset shift, for offsets within and beyond d
    rng = np.random.default_rng(6)
    row = rng.normal(size=8) + 1j * rng.normal(size=8)
    shifts = ShiftSet((-11, -3, 0, 2, 6, 10), mode)
    for i, r in enumerate(shifts.offsets):
        one = unshift_sum(row, shifts, i)
        assert np.array_equal(one, unshift_sum(row, shifts, [i]))
        assert np.array_equal(one, unshift_sum(row[np.newaxis], shifts, [i]))
        assert np.array_equal(one, shift(row, -r, mode))
    with pytest.raises(ValueError, match="one 1-d row"):
        unshift_sum(row[np.newaxis], shifts, 0)


@pytest.mark.parametrize("mode", ["circular", "zero-padded"])
def test_unshift_sum_is_rowwise_adjoint(mode):
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    shifts = ShiftSet((0, 3, 6), mode)
    expected = sum(shift(rows[i], -r, mode)
                   for i, r in enumerate(shifts.offsets))
    assert np.allclose(unshift_sum(rows, shifts), expected, rtol=1e-15, atol=0)
    # one row per offset (or per selected offset), no more and no fewer
    for bad, select in [(rows[:2], None), (np.vstack([rows, rows]), None),
                        (rows[:1], [0, 2])]:
        with pytest.raises(ValueError, match="one row per selected offset"):
            unshift_sum(bad, shifts, select)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 32), mode=st.sampled_from(MODES),
       seed=st.integers(0, 2 ** 32 - 1))
def test_shift_stack_unshift_sum_adjoint_property(data, d, mode, seed):
    # <shift_stack(u), W> = <u, unshift_sum(W)> for any distinct offsets
    # (beyond +-d too) and any row selection, repeats allowed; each gathered
    # row is the single-offset shift bit for bit
    offsets = data.draw(st.lists(st.integers(-2 * d, 2 * d), min_size=1,
                                 max_size=12, unique=True))
    select = data.draw(st.none() | st.lists(st.integers(0, len(offsets) - 1),
                                            min_size=1, max_size=12))
    shifts = ShiftSet(tuple(offsets), mode)
    n = len(offsets) if select is None else len(select)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=d) + 1j * rng.normal(size=d)
    w = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    lhs = np.vdot(shift_stack(u, shifts, select), w)
    rhs = np.vdot(u, unshift_sum(w, shifts, select))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(w)
    picked = [offsets[i] for i in (range(n) if select is None else select)]
    assert np.array_equal(shift_stack(u, shifts, select),
                          np.stack([shift(u, r, mode) for r in picked]))
    # numpy's sum over the stacked rows, not Python's left-to-right sum: at
    # d = 1 numpy reduces an (n, 1) stack pairwise
    unshifted = np.stack([shift(w[i], -r, mode) for i, r in enumerate(picked)])
    assert np.array_equal(unshift_sum(w, shifts, select), unshifted.sum(axis=0))
    # the output dtype follows the input
    for a, b in ((u, w), (u.real, w.real)):
        assert shift_stack(a, shifts, select).dtype == a.dtype
        assert unshift_sum(b, shifts, select).dtype == b.dtype


def test_q_apply_hand_values():
    ones = np.ones(2, complex)
    assert q_apply(ones, ones, 0, 0) == pytest.approx(2.0)
    z, v = np_pair(6, 1)
    assert q_apply(np.zeros(6, complex), v, 2, 3) == 0.0


@pytest.mark.parametrize("mode", ["circular", "zero-padded"])
def test_q_apply_matches_transform_path(mode):
    z, v = np_pair(8, 2)
    for r in (0, 1, 5):
        for k in range(8):
            via_transform = dft(z * shift(v, r, mode))[k]
            assert abs(q_apply(z, v, r, k, mode) - via_transform) < 1e-12


@pytest.mark.parametrize("mode", ["circular", "zero-padded"])
def test_bilinear_norm_bound(mode):
    # sum over the full offset family of |q|^2 never exceeds d |z|^2 |v|^2;
    # the circular full orbit attains it exactly
    d = 8
    z, v = np_pair(d, 3)
    total = sum(abs(q_apply(z, v, r, k, mode)) ** 2
                for r in range(d) for k in range(d))
    bound = d * np.vdot(z, z).real * np.vdot(v, v).real
    assert total <= bound * (1 + 1e-12)
    if mode == "circular":
        assert total == pytest.approx(bound, rel=1e-12)


def test_single_shift_bilinear_strict():
    d = 8
    z, v = np_pair(d, 6)
    total = sum(abs(q_apply(z, v, 3, k)) ** 2 for k in range(d))
    assert total < 0.999 * d * np.vdot(z, z).real * np.vdot(v, v).real
