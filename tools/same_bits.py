"""Print SHA-256 digests of everything the library computes on the benchmark's
two problem shapes, so that two source trees can be shown to give the same bits.

    python tools/same_bits.py <tree> > digests.json

imports ``blindptycho`` from ``<tree>/src`` and prints one JSON object with
sorted keys.  Two trees compute the same numbers when their outputs are
equal, e.g. ``diff <(python tools/same_bits.py old) <(python tools/same_bits.py .)``.

Shapes are perfbench's ``small-d8`` and ``sparse-d100-padded``, and
``sparse-d100-padded-k1``, the sparse shape at batch size 1 (so sgd's one-row
path and ``epie_scaled`` steps run on a zero-padded family), at seeds 0-2,
with perfbench's starting pairs ``initial_guess(d, 1_000_000 + s, init_scale)``
and solver seeds.  Per shape and seed it hashes the problem-JSON bytes and,
for gd, sgd, sgd with ``epie_scaled`` steps, epie with the iid and the
shuffled schedule and interval at ``gamma_grid`` 2 and 5 (200 iterations
each), the trace rows without ``wall_ns``, the final pair, the
``IntervalStep`` records and the summary JSON with ``wall_ns`` set to 0; a
run the solver rejects (``epie_scaled`` at K > 1) gets one ``error`` digest
of its message instead.  It also hashes the ``verify`` JSON of every suite,
and as ``errors/problem_json`` the error texts ``problem_from_json`` gives
for a fixed list of malformed problem documents.
Only public names that have been stable across releases are used, so older
trees run it too.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

SEEDS = (0, 1, 2)
ITERS = 200
INIT_SEED_OFFSET = 1_000_000
# name -> (d, mode, offsets or None for all d, noise, ramped p, K, init scale)
SHAPES = {
    "small-d8": (8, "circular", None, ("none",), False, 1, 4.0),
    "sparse-d100-padded": (100, "zero-padded", tuple(range(-60, 100, 4)),
                           ("gaussian", 1.0), True, 4, 2.0),
    "sparse-d100-padded-k1": (100, "zero-padded", tuple(range(-60, 100, 4)),
                              ("gaussian", 1.0), True, 1, 2.0),
}
# label -> SolverConfig keywords
SOLVERS = {"gd": {"algorithm": "gd"}, "sgd": {"algorithm": "sgd"},
           "sgd-epie": {"algorithm": "sgd", "sgd_step_rule": "epie_scaled"},
           "epie": {"algorithm": "epie"},
           "epie-shuffled": {"algorithm": "epie", "epie_schedule": "shuffled"},
           "interval-g2": {"algorithm": "interval", "gamma_grid": 2},
           "interval-g5": {"algorithm": "interval", "gamma_grid": 5}}

NAN, INF = float("nan"), float("inf")
# (key, value) put into a valid d = 4 problem document, one fault each
BAD_FIELDS = [
    ("d", True), ("d", 0), ("d", 4.7), ("d", 5),
    ("mode", 1), ("mode", "bogus"),
    ("offsets", 5), ("offsets", []), ("offsets", [False, True, 2, 3]),
    ("offsets", [0, 1.6, 2, 3]), ("offsets", [0, 0, 1, 2]), ("offsets", [0, 1, 2, 4]),
    ("offsets", [3, 2, 1, 0]),
    ("epsilon", "1e-8"), ("epsilon", None), ("epsilon", -1.0), ("epsilon", NAN),
    ("alpha_T", True), ("alpha_T", -1.0), ("beta_T", INF),
    ("p", ["0.25"] * 4), ("p", [0.25, 0.25, 0.25, True]), ("p", [[0.25] * 4]),
    ("p", 0.5), ("p", [0.5, 0.5]), ("p", [0.5] * 4), ("p", [0.5, 0.5, 0.0, 0.0]),
    ("K", True), ("K", 0), ("K", 1.5), ("K", INF),
    ("y", [["1"] * 4] * 4), ("y", [[1.0] * 4] * 3 + [[1.0, 1.0, 1.0, False]]),
    ("y", []), ("y", 5), ("y", [[1, 2], 3]), ("y", [[1.0] * 4] * 3 + [[1.0] * 3]),
    ("y", [[1.0] * 4] * 3), ("y", [[1.0] * 4] * 3 + [[1.0, 1.0, 1.0, -1.0]]),
    ("y", [[1.0] * 4] * 3 + [[1.0, 1.0, 1.0, INF]]),
    ("x", [[True, 0.0]] * 4), ("x", [[1.0, 0.0]] * 3), ("x", [[1.0, 0.0, 0.0]] * 4),
    ("w", [[1.0, 0.0]] * 3), ("w", [[1.0, 0.0]] * 3 + [[NAN, 0.0]]),
    ("epsilon", 10**400), ("K", 5),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _floats(rows) -> bytes:
    return np.asarray(rows, dtype=np.float64).tobytes()


def problem_json_errors(bp) -> list[str]:
    """The error text of each malformed document, or ``accepted``."""
    doc = json.loads(bp.problem_to_json(bp.synthesize_problem(4, seed=2)))
    texts = [json.dumps({**doc, key: value}) for key, value in BAD_FIELDS]
    texts += ["[1, 2]", json.dumps({k: v for k, v in doc.items() if k != "w"})]
    out = []
    for text in texts:
        try:
            bp.problem_from_json(text)
        except ValueError as exc:
            out.append(str(exc))
        else:
            out.append("accepted")
    return out


def synthesize(bp, name: str, seed: int):
    """The problem of shape ``name`` at ``seed`` and perfbench's starting pair."""
    d, mode, offsets, noise, ramp, k, scale = SHAPES[name]
    shifts = (bp.ShiftSet.all_shifts(d, mode) if offsets is None
              else bp.ShiftSet(offsets, mode))
    p = None
    if ramp:
        p = np.linspace(1.0, 3.0, len(shifts))
        p = p / p.sum()
    problem = bp.synthesize_problem(d, shifts=shifts, seed=seed,
                                    noise=bp.NoiseModel(*noise), p=p, batch_size=k)
    return problem, bp.initial_guess(d, INIT_SEED_OFFSET + seed, scale)


def digests(bp) -> dict[str, str]:
    out = {}
    for name in SHAPES:
        for seed in SEEDS:
            key = f"{name}/seed{seed}"
            synthesized, (z0, v0) = synthesize(bp, name, seed)
            text = bp.problem_to_json(synthesized)
            out[f"{key}/problem_json"] = _sha(text.encode())
            problem = bp.problem_from_json(text)
            for label, options in SOLVERS.items():
                config = bp.SolverConfig(max_iters=ITERS,
                                         seed=INIT_SEED_OFFSET + seed, **options)
                try:
                    result = bp.run(problem, z0, v0, config)
                except ValueError as exc:
                    out[f"{key}/{label}/error"] = _sha(str(exc).encode())
                    continue
                rows = [astuple(r)[:-1] for r in result.trace]
                out[f"{key}/{label}/trace"] = _sha(_floats(rows))
                out[f"{key}/{label}/pair"] = _sha(result.z.tobytes() + result.v.tobytes())
                out[f"{key}/{label}/interval_steps"] = _sha(
                    _floats([astuple(s) for s in result.interval_steps or []]))
                summary = replace(bp.summarize(problem, result), wall_ns=0)
                out[f"{key}/{label}/summary_json"] = _sha(
                    bp.summary_to_json(summary, config, problem).encode())
    for seed in SEEDS:
        reports = bp.run_suite(bp.verify.SUITES, seed=seed, samples=10)
        out[f"verify/seed{seed}"] = _sha(bp.reports_to_json(reports).encode())
    out["errors/problem_json"] = _sha("\n".join(problem_json_errors(bp)).encode())
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/same_bits.py <tree>", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[1]).resolve() / "src"))
    import blindptycho as bp

    print(json.dumps(digests(bp), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
