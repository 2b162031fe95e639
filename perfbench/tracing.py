"""Per-layer tracing from outside the library.

Library functions are replaced, for the length of one traced round, at the
names their callers bind (``blindptycho.objective.dft`` is the transform
the objective calls, ``blindptycho.solvers.loss`` the loss the interval
solver calls).  Each wrapper records a span in memory: its phase, its layer
name, its duration and the time covered by the spans it caused; self time
is the difference.  Call, row, byte and draw counts are taken at the same
boundaries.  Metric names are ``<phase>.<module>.<function>.<kind>``.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from blindptycho import fourier, harness, model, objective, rng, solvers

# (module, attribute the caller binds, layer name, size counter)
SPANS = [
    (fourier, "dft", "fourier.dft", "fourier.dft.rows"),   # idft's transform
    (objective, "dft", "fourier.dft", "fourier.dft.rows"),
    (solvers, "dft", "fourier.dft", "fourier.dft.rows"),   # epie's projection
    (model, "dft", "fourier.dft", "fourier.dft.rows"),
    (objective, "shift", "fourier.shift", None),
    (solvers, "shift", "fourier.shift", None),
    (objective, "shift_stack", "fourier.shift_stack", None),
    (model, "shift_stack", "fourier.shift_stack", None),
    (objective, "unshift_sum", "fourier.unshift_sum", None),
    (solvers, "loss_and_gradient", "objective.loss_and_gradient", None),
    (solvers, "loss", "objective.loss", None),
    (solvers, "gradient_region", "objective.gradient_region", None),
    (solvers, "step_curvature_bound", "objective.bounds", None),
    (solvers, "stochastic_gradient_bounds", "objective.bounds", None),
    (solvers, "partial_lipschitz", "objective.bounds", None),
    (solvers, "gd_step_sizes", "solvers.step_rule", None),
    (solvers, "sgd_max_step", "solvers.step_rule", None),
    (solvers, "sample_indices", "solvers.sample_indices", None),
    (solvers, "stochastic_gradient", "solvers.stochastic_gradient", None),
    (harness, "run", "solvers.self", None),           # the solver loop itself
    (model, "synthesize_problem", "model.synthesize_problem", None),
    (model, "forward_intensities", "model.forward_intensities", None),
    (model, "add_noise", "model.add_noise", None),
    (model, "problem_to_json", "model.problem_to_json",
     "model.problem_json.bytes"),
    (model, "problem_from_json", "model.problem_from_json", None),
    (harness, "initial_guess", "harness.initial_guess", None),
    (harness, "summarize", "harness.summarize", None),
    (solvers, "trace_to_csv", "harness.trace_to_csv", "harness.trace.bytes"),
]
# Counted only; their time stays in the caller's self time.
COUNTS = [
    (fourier, "dft_direct", "fourier.dft_direct.calls"),
    (rng.Rng, "next_u64", "rng.draws"),
]


def _size(name, args, out):
    """Rows transformed (the input's leading dimensions) or bytes returned."""
    if name.endswith(".rows"):
        return int(np.prod(np.shape(args[0])[:-1], dtype=np.int64))
    return len(out)


class Tracer:
    """Install with ``with tracer:``; ``phase`` names where work is charged."""

    def __init__(self):
        self.phase = None          # None: calls pass through unrecorded
        self._open = []            # child time of each open span, innermost last
        self._spans = []           # (phase, layer, duration_ns, child_ns)
        self._counts = defaultdict(int)
        self._saved = []

    def _span(self, fn, layer, size):
        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            self._open.append(0)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter_ns() - start
                child = self._open.pop()
                if self._open:
                    self._open[-1] += duration
                self._spans.append((phase, layer, duration, child))
            self._counts[f"{phase}.{layer}.calls"] += 1
            if size is not None:
                self._counts[f"{phase}.{size}"] += _size(size, args, out)
            return out
        return wrapper

    def _count(self, fn, name):
        def wrapper(*args, **kwargs):
            if self.phase is not None:
                self._counts[f"{self.phase}.{name}"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def __enter__(self):
        for owner, attr, layer, size in SPANS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span(fn, layer, size))
        for owner, attr, name in COUNTS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._count(fn, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        self.phase = None

    def take(self) -> dict[str, float]:
        """Self µs and counts recorded since the last call, then clear them."""
        out = defaultdict(float)
        for phase, layer, duration, child in self._spans:
            out[f"{phase}.{layer}.us"] += (duration - child) / 1000.0
        out.update(self._counts)
        self._spans.clear()
        self._counts.clear()
        return dict(out)
