"""Output checks that do not reuse the library's own numerics.

Intensities, the objective and its gradients are recomputed here with
``np.fft`` and index-arithmetic shifts straight from the formulas in the
``blindptycho.objective`` docstring; method properties are checked on every
trace row.  Nothing is compared with stored output.  Each function returns a
list of failure messages, empty when every check holds.
"""

from __future__ import annotations

import csv
import json

import numpy as np

TRACE_COLUMNS = ["t", "J", "L_eps", "grad_z_norm", "grad_v_norm", "mu_t",
                 "nu_t", "wall_ns"]
REL_TOL = 1e-9
ABS_TOL = 1e-12


def shifted(v, r, mode):
    """(S_r v)_j = v_{j-r}; circular wraps, zero-padded fills with 0."""
    d = len(v)
    src = np.arange(d) - r
    if mode == "circular":
        return v[src % d]
    out = np.zeros(d, dtype=v.dtype)
    keep = (src >= 0) & (src < d)
    out[keep] = v[src[keep]]
    return out


def intensities(x, w, offsets, mode):
    rows = np.array([x * shifted(w, r, mode) for r in offsets])
    return np.abs(np.fft.fft(rows, axis=-1)) ** 2


def objective(problem, z, v):
    """J, L_eps, ||grad_z J|| and ||grad_v J|| from the documented formulas,
    each with the size of the terms its sums cancel, which bounds rounding."""
    mode, offsets = problem.shifts.mode, problem.offsets
    y, eps = np.asarray(problem.y), problem.epsilon
    windows = np.array([shifted(v, r, mode) for r in offsets])
    spectrum = np.fft.fft(z * windows, axis=-1)
    amp = np.sqrt(np.abs(spectrum) ** 2 + eps)
    data = float(np.sum((amp - np.sqrt(y + eps)) ** 2))
    total = data + problem.alpha * float(np.sum(np.abs(z) ** 2)) \
        + problem.beta * float(np.sum(np.abs(v) ** 2))
    ratio = np.zeros_like(amp)
    np.divide(np.sqrt(y + eps), amp, out=ratio, where=amp > 1e-300)
    back = np.conj(np.fft.fft(np.conj((1.0 - ratio) * spectrum), axis=-1))
    g_z = np.sum(np.conj(windows) * back, axis=0) + problem.alpha * z
    g_v = sum(shifted(np.conj(z) * row, -r, mode)
              for r, row in zip(offsets, back)) + problem.beta * v
    # |back[r, j]| <= size[r]: the residual spectrum is at most |spectrum|
    # + sqrt(y + eps) entrywise.
    size = np.sum(np.abs(spectrum) + np.sqrt(y + eps), axis=1)
    size_z = np.linalg.norm(np.abs(windows).T @ size) + problem.alpha * np.linalg.norm(z)
    size_v = np.linalg.norm(sum(shifted(np.abs(z), -r, mode) * s
                                for r, s in zip(offsets, size))) \
        + problem.beta * np.linalg.norm(v)
    size_j = float(np.sum(amp ** 2 + y + eps)) + total
    return [("J", total, size_j), ("L_eps", data, size_j),
            ("grad_z_norm", float(np.linalg.norm(g_z)), size_z),
            ("grad_v_norm", float(np.linalg.norm(g_v)), size_v)]


def _close(a, b, size):
    """Relative tolerance REL_TOL, with a floor of ABS_TOL times the size of
    the cancelling terms for values near zero (a near-stationary gradient)."""
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL * size


def check_problem(problem, reloaded, forward, noise):
    """Synthesis and JSON round trip of one instance.

    ``forward`` is the library's noiseless ``forward_intensities`` of the
    truth; ``noise`` is ("none",) or ("gaussian", sigma).
    """
    fails = []
    x, w = problem.truth
    ref = intensities(x, w, problem.offsets, problem.shifts.mode)
    if np.max(np.abs(ref - forward)) > REL_TOL * np.max(ref):
        fails.append("forward_intensities differs from the np.fft reference")
    y = np.asarray(problem.y)
    if noise[0] == "none":
        if not np.array_equal(y, forward):
            fails.append("noiseless measurements differ from the forward model")
    else:
        sigma = noise[1]
        if np.any(y < 0):
            fails.append("gaussian measurements are negative")
        # Entries far above zero are never clamped, so their residuals are
        # plain N(0, sigma^2) draws.
        resid = (y - ref)[ref > 6.0 * sigma]
        if resid.size < 100 or abs(resid.std() / sigma - 1.0) > 0.1 \
                or abs(resid.mean()) > 5.0 * sigma / np.sqrt(resid.size):
            fails.append("unclamped gaussian residuals do not match sigma")
    same = (reloaded.d == problem.d and reloaded.offsets == problem.offsets
            and reloaded.shifts.mode == problem.shifts.mode
            and reloaded.epsilon == problem.epsilon
            and reloaded.alpha == problem.alpha and reloaded.beta == problem.beta
            and reloaded.batch_size == problem.batch_size
            and np.array_equal(reloaded.p, problem.p)
            and np.array_equal(reloaded.y, problem.y)
            and reloaded.truth is not None
            and all(np.array_equal(a, b)
                    for a, b in zip(reloaded.truth, problem.truth)))
    if not same:
        fails.append("problem JSON does not read back to the same instance")
    return fails


def read_trace_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != TRACE_COLUMNS:
        raise ValueError(f"{path}: unexpected trace header")
    return [(int(r[0]), *map(float, r[1:7]), int(r[7])) for r in rows[1:]]


def trace_rows(trace):
    return [(r.t, r.J, r.L_eps, r.grad_z_norm, r.grad_v_norm, r.mu_t, r.nu_t,
             r.wall_ns) for r in trace]


def check_run(problem, algorithm, result, trace_path, summary_path, target):
    """One solver run: final-iterate recomputation, method properties on
    every row, target reached, written files equal to memory."""
    fails = []
    trace = result.trace
    last = trace[-1]
    for name, mine, size in objective(problem, result.z, result.v):
        theirs = getattr(last, name)
        if not _close(mine, theirs, size):
            fails.append(f"final {name} {theirs!r} differs from reference {mine!r}")
    if algorithm == "gd":
        for a, b in zip(trace, trace[1:]):
            rhs = a.J - a.mu_t * a.grad_z_norm ** 2 - a.nu_t * a.grad_v_norm ** 2
            if b.J > rhs + 1e-10 * (1.0 + a.J):
                fails.append(f"gd descent inequality fails at t={a.t}")
                break
    if algorithm == "interval":
        for rec, step in zip(trace, result.interval_steps):
            if step.decrease < step.bound_matched - 1e-9 * (1.0 + rec.J):
                fails.append(f"interval decrease below bound_matched at t={rec.t}")
                break
            if step.loss_selected > min(step.loss_object_endpoint,
                                        step.loss_window_endpoint):
                fails.append(f"interval selection above an endpoint at t={rec.t}")
                break
    if target is not None and not any(r.J <= target * trace[0].J for r in trace):
        fails.append(f"{algorithm} does not reach J <= {target} J0")
    if read_trace_csv(trace_path) != trace_rows(trace):
        fails.append("written trace differs from the in-memory trace")
    with open(summary_path) as fh:
        summary = json.load(fh)
    if summary["final_J"] != last.J or summary["config"]["algorithm"] != algorithm:
        fails.append("summary file disagrees with the trace")
    return fails
