"""Print a work ledger of each solver on the benchmark's two problem shapes:
exact counts of the work a run does, which do not depend on the host's speed.

    python tools/ledger.py <tree> > ledger.json

imports ``blindptycho`` from ``<tree>/src`` and prints one JSON object with
sorted keys.  For gd, sgd, epie and interval (their default settings,
``gamma_grid`` 2) on perfbench's ``small-d8`` and ``sparse-d100-padded``
shapes (seed 0, the shapes and starting pairs of ``same_bits.py``), it
runs ``run`` for ``iters`` iterations three times and reports, under
``<shape>/<solver>/``:

* from a run under ``cProfile``:
  * ``calls_per_iter``: the profile's ``total_calls`` over ``iters``;
  * ``dft``, ``dft_adjoint``, ``shift_stack``, ``unshift_stack`` and
    ``unshift_sum``: how often each of those ``fourier`` functions was
    called (0 where a tree lacks one; ``unshift_sum`` calls
    ``unshift_stack``, so a call of it counts under both);
* from a run under a ``sys.setprofile`` hook, so a tree's names need no
  patching (a vector is one row, an (R, d) stack R):
  * ``dft_rows`` and ``dft_adjoint_rows``, the rows each transform was
    handed, read from the first argument of each call;
  * ``shift_stack_rows`` and ``unshift_stack_rows``, the rows each gather
    returned, read from the result of each return (``unshift_sum``'s
    gather counts under ``unshift_stack_rows``);
* from a run under ``tracemalloc``: ``peak_bytes``, the peak of the memory
  traced while it ran, and ``peak_rd_arrays``, that peak in complex (R, d)
  arrays, ``peak_bytes / (16 R d)`` to two decimals.

The counts repeat exactly run to run; ``calls_per_iter`` depends on the
Python and numpy versions, and ``peak_bytes`` differs by a few hundred
bytes between repeats, so compare two trees on one interpreter, e.g.
``diff <(python tools/ledger.py old) <(python tools/ledger.py .)``.
"""

from __future__ import annotations

import cProfile
import json
import math
import pstats
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np

from same_bits import INIT_SEED_OFFSET, synthesize

ITERS = 200
SHAPE_NAMES = ("small-d8", "sparse-d100-padded")
ALGORITHMS = ("gd", "sgd", "epie", "interval")
COUNTED = ("dft", "dft_adjoint", "shift_stack", "unshift_stack", "unshift_sum")
TRANSFORMS = ("dft", "dft_adjoint")
GATHERS = ("shift_stack", "unshift_stack")


def row_counts(bp, run) -> dict[str, int]:
    """The rows each of ``TRANSFORMS`` is handed and each of ``GATHERS``
    returns while ``run()`` runs (0 where a tree lacks one), read from the
    first argument of each transform call and the result of each gather."""
    codes = {getattr(bp.fourier, fn).__code__: fn
             for fn in TRANSFORMS + GATHERS if hasattr(bp.fourier, fn)}
    counts = dict.fromkeys(TRANSFORMS + GATHERS, 0)

    def hook(frame, event, arg):
        fn = codes.get(frame.f_code)
        if event == "call" and fn in TRANSFORMS:
            shape = np.shape(frame.f_locals[frame.f_code.co_varnames[0]])
            counts[fn] += math.prod(shape[:-1])
        elif event == "return" and fn in GATHERS and arg is not None:
            counts[fn] += math.prod(np.shape(arg)[:-1])

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def peak_bytes(run) -> int:
    """The ``tracemalloc`` peak while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ledger(bp) -> dict[str, float]:
    out: dict[str, float] = {"iters": ITERS}
    fourier_file = Path(bp.fourier.__file__).resolve()
    for name in SHAPE_NAMES:
        problem, (z0, v0) = synthesize(bp, name, 0)
        for algorithm in ALGORITHMS:
            config = bp.SolverConfig(algorithm=algorithm, max_iters=ITERS,
                                     seed=INIT_SEED_OFFSET)
            run = partial(bp.run, problem, z0, v0, config)
            profile = cProfile.Profile()
            profile.enable()
            run()
            profile.disable()
            stats = pstats.Stats(profile)
            calls = dict.fromkeys(COUNTED, 0)
            for (path, _, fn), (_, ncalls, *_) in stats.stats.items():
                if fn in calls and Path(path).resolve() == fourier_file:
                    calls[fn] += ncalls
            key = f"{name}/{algorithm}"
            out[f"{key}/calls_per_iter"] = stats.total_calls / ITERS
            for fn, count in calls.items():
                out[f"{key}/{fn}"] = count
            for fn, count in row_counts(bp, run).items():
                out[f"{key}/{fn}_rows"] = count
            peak = out[f"{key}/peak_bytes"] = peak_bytes(run)
            out[f"{key}/peak_rd_arrays"] = round(peak / (16 * problem.n_regions
                                                         * problem.d), 2)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/ledger.py <tree>", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[1]).resolve() / "src"))
    import blindptycho as bp

    print(json.dumps(ledger(bp), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
