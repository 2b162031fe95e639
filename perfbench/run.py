#!/usr/bin/env python3
"""Solver benchmark for blindptycho.

    python3 perfbench/run.py --workload small-d8 --seed 0 --seconds 50 --trace 0

Run from anywhere inside a source tree; it imports the package from the
tree's ``src``.  One run repeats whole rounds until ``--seconds`` have
passed.  A round runs gd, sgd, epie and interval, each through
``harness.run_experiment`` (the path ``blindptycho run`` takes) on an
instance set up just before it: synthesized and round-tripped through the
problem JSON.  Every output is checked on every round (``reference.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Metric names and
units are those listed in ``BENCHMARK.json``.  README.md describes the
workloads and what each metric should move.
"""

import os

# One BLAS thread: with OpenBLAS's default threads the O(d^2) matmul
# transform gives gd iterations at d=100 a 10x tail on a 2-core machine.
# Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ALGORITHMS = ("gd", "sgd", "epie", "interval")
TARGET_ALGORITHMS = ("gd", "interval")


@dataclass(frozen=True)
class Workload:
    d: int
    mode: str
    offsets: tuple | None      # None: all d shifts
    noise: tuple               # ("none",) or ("gaussian", sigma)
    ramp_p: bool               # p proportional to a ramp from 1 to 3
    batch_size: int
    init_scale: float          # starting pair: init_scale * complex normals
    target: float              # to_target_s: first row with J <= target * J0
    iters: int                 # per solver and round
    cli_divergence: bool       # also run the known-failing CLI operation


WORKLOADS = {
    "small-d8": Workload(8, "circular", None, ("none",), False, 1,
                         4.0, 0.1, 400, True),
    "sparse-d100-padded": Workload(100, "zero-padded", tuple(range(-60, 100, 4)),
                                   ("gaussian", 1.0), True, 4, 2.0, 0.5, 300,
                                   False),
}
# The starting pair and solver stream take their own seed: synthesis and
# initial_guess draw the same complex normals from equal seeds, so an equal
# seed would start every solver at the ground truth.
INIT_SEED_OFFSET = 1_000_000
# cli-divergence runs on one fixed instance, whatever --seed, so that it
# fails or passes alike in every run.
CLI_PROBLEM_SEED = 0


class Bench:
    """State of one benchmark run: operation counts and per-round samples."""

    def __init__(self, name, seed, workdir):
        from blindptycho import fourier, harness, model, solvers

        self.fourier, self.harness = fourier, harness
        self.model, self.solvers = model, solvers
        self.name, self.wl, self.seed = name, WORKLOADS[name], seed
        self.workdir = workdir
        self.attempted = self.failed = self.unexpected = 0
        self.reported = set()
        self.first_y = None
        self.first_runs = {}       # algorithm -> trace rows without wall_ns, z, v
        self.captured = []
        # run_experiment returns file paths only; keep the in-memory run that
        # it summarizes, to check it against the files.
        summarize = harness.summarize

        def capture(problem, result):
            self.captured.append(result)
            return summarize(problem, result)

        harness.summarize = capture

    def synthesize(self, seed):
        wl, fourier = self.wl, self.fourier
        if wl.offsets is None:
            shifts = fourier.ShiftSet.all_shifts(wl.d, wl.mode)
        else:
            shifts = fourier.ShiftSet(wl.offsets, wl.mode)
        p = None
        if wl.ramp_p:
            p = np.linspace(1.0, 3.0, len(shifts))
            p = p / p.sum()
        return self.model.synthesize_problem(
            wl.d, shifts=shifts, seed=seed,
            noise=self.model.NoiseModel(*wl.noise), p=p,
            batch_size=wl.batch_size)

    def attempt(self, op, fn, expected_failure=False):
        """Run one operation; a failed check or an exception fails it."""
        self.attempted += 1
        try:
            fails = fn()
        except Exception as exc:  # the program failing is a failed operation
            fails = [f"{type(exc).__name__}: {exc}"]
        if fails:
            self.failed += 1
            self.unexpected += not expected_failure
            for msg in fails:
                if (op, msg) not in self.reported:
                    self.reported.add((op, msg))
                    print(f"[{self.name}] {op} failed: {msg}", file=sys.stderr)

    # -- operations -------------------------------------------------------
    def setup(self, tracer, sample):
        path = self.workdir / "problem.json"
        tracer.phase = "setup"
        start = time.perf_counter()
        problem = self.synthesize(self.seed)
        path.write_text(self.model.problem_to_json(problem))
        reloaded = self.model.problem_from_json(path.read_text())
        sample["setup_s"].append(time.perf_counter() - start)
        tracer.phase = None
        self.problem = reloaded
        forward = self.model.forward_intensities(*problem.truth,
                                                 problem.shifts).values
        fails = reference.check_problem(problem, reloaded, forward,
                                        self.wl.noise)
        if self.first_y is None:
            self.first_y = problem.y
        elif not np.array_equal(self.first_y, problem.y):
            fails.append("repeated synthesis gives other measurements")
        return fails

    def solve(self, algorithm, tracer, sample):
        wl = self.wl
        experiment = self.harness.ExperimentConfig(
            problem=self.problem,
            solvers=[self.solvers.SolverConfig(algorithm=algorithm,
                                               max_iters=wl.iters)],
            base_seed=INIT_SEED_OFFSET + self.seed, init_scale=wl.init_scale,
            out_dir=self.workdir)
        self.captured.clear()
        tracer.phase = algorithm
        start = time.perf_counter()
        [(trace_path, summary_path, _)] = self.harness.run_experiment(experiment)
        run_s = time.perf_counter() - start
        tracer.phase = None
        [result] = self.captured
        trace = result.trace

        sample[f"{algorithm}.run_s"].append(run_s)
        # Row t is stamped after iterate t is evaluated and its step chosen;
        # the closing row has no step, so its gap is left out.
        wall = np.array([r.wall_ns for r in trace[:-1]], dtype=np.int64)
        sample[f"{algorithm}.iter_us"].extend(np.diff(wall) / 1000.0)
        target = wl.target if algorithm in TARGET_ALGORITHMS else None
        if target is not None:
            hit = next((r for r in trace if r.J <= target * trace[0].J), None)
            if hit is not None:
                sample[f"{algorithm}.to_target_s"].append(hit.wall_ns / 1e9)
                sample[f"{algorithm}.solvers.iters_to_target"].append(hit.t)

        fails = reference.check_run(self.problem, algorithm, result,
                                    trace_path, summary_path, target)
        rows = [row[:-1] for row in reference.trace_rows(trace)]
        first = self.first_runs.setdefault(algorithm, (rows, result.z, result.v))
        if (rows != first[0] or not np.array_equal(result.z, first[1])
                or not np.array_equal(result.v, first[2])):
            fails.append("repeat run differs from the first apart from wall_ns")
        return fails

    def cli_divergence(self):
        """``blindptycho run --init-scale 1e200`` must fail cleanly: a one-line
        error, an exit code outside {0, 1, 2} and a trace file with its
        header."""
        out_dir = self.workdir / "cli"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "blindptycho", "run",
             "--problem", str(self.workdir / "cli_problem.json"),
             "--algo", "gd", "--iters", "5", "--init-scale", "1e200",
             "--out-dir", str(out_dir)],
            env=env, capture_output=True, text=True, timeout=60)
        fails = []
        if proc.returncode in (0, 1, 2):
            fails.append(f"exit code {proc.returncode} is one of 0/1/2")
        lines = proc.stderr.strip().splitlines()
        if len(lines) != 1:
            fails.append(f"stderr has {len(lines)} lines, not one")
        trace_path = out_dir / "gd_run000_trace.csv"
        if not trace_path.is_file():
            fails.append("no trace file written")
        else:
            header = trace_path.read_text().split("\n", 1)[0]
            if header != ",".join(reference.TRACE_COLUMNS):
                fails.append("trace file lacks its header")
        return fails

    # -- rounds -----------------------------------------------------------
    def warm_up(self):
        """Fill the transform and shift-plan caches before any timing."""
        problem = self.synthesize(self.seed)
        z0, v0 = self.harness.initial_guess(problem.d, 1, self.wl.init_scale)
        for algorithm in ALGORITHMS:
            self.solvers.run(problem, z0, v0,
                             self.solvers.SolverConfig(algorithm=algorithm,
                                                       max_iters=3))
        if self.wl.cli_divergence:
            cli_problem = self.synthesize(CLI_PROBLEM_SEED)
            (self.workdir / "cli_problem.json").write_text(
                self.model.problem_to_json(cli_problem))

    def round(self, tracer):
        sample = defaultdict(list)
        # A set-up before each solver run spreads the set-up samples over
        # the round; each solver runs on the instance set up just before it.
        for algorithm in ALGORITHMS:
            self.attempt("setup", lambda: self.setup(tracer, sample))
            self.attempt(algorithm, lambda: self.solve(algorithm, tracer, sample))
        if self.wl.cli_divergence:
            self.attempt("cli-divergence", self.cli_divergence,
                         expected_failure=True)
        return sample


def _median(values):
    return statistics.median(values) if values else None


def _p90(values):
    return float(np.percentile(values, 90)) if values else None


def end_to_end(rounds):
    """Per-iteration samples are pooled over rounds; per-round times are
    taken at their 90th percentile.  The host's speed flips between a fast
    and a 1.5-2x slower state for seconds to minutes at a time; a median
    flips with it, a high percentile stays in the slow state (README.md)."""
    pooled = {}
    for sample in rounds:
        for key, values in sample.items():
            pooled.setdefault(key, []).extend(values)
    out = {"setup_s": (_median(pooled["setup_s"]), "s")}
    for algorithm in ALGORITHMS:
        iters = np.asarray(pooled[f"{algorithm}.iter_us"])
        out[f"{algorithm}.iter_us"] = (float(np.median(iters)), "us")
        out[f"{algorithm}.iter_us_p95"] = (float(np.percentile(iters, 95)), "us")
        out[f"{algorithm}.run_s"] = (_p90(pooled[f"{algorithm}.run_s"]), "s")
    for algorithm in TARGET_ALGORITHMS:
        out[f"{algorithm}.to_target_s"] = (
            _p90(pooled.get(f"{algorithm}.to_target_s", [])), "s")
    return out


def per_layer(layers):
    """Per-round medians of self µs and counts from the traced rounds."""
    keys = set().union(*layers)
    out = {}
    for key in keys:
        value = _median([layer.get(key, 0) for layer in layers])
        unit = "us" if key.endswith(".us") else (
            "bytes" if key.endswith(".bytes") else "count")
        out[key] = (value, unit)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "blindptycho" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/blindptycho or BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    from tracing import Tracer

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=ROOT / ".perfbench_out"))
    try:
        bench = Bench(args.workload, args.seed, workdir)
        bench.warm_up()
        tracer = Tracer()
        rounds, traced, layers = [], [], []
        deadline = time.perf_counter() + args.seconds
        # With --trace 1, traced and untraced rounds alternate so that the
        # tracing overhead is measured in the same run.
        while (not rounds or (args.trace and not traced)
               or time.perf_counter() < deadline):
            if args.trace and len(traced) <= len(rounds):
                with tracer:
                    traced.append(bench.round(tracer))
                layer = tracer.take()
                for key in layer:
                    if key.startswith("setup."):   # per set-up, not per round
                        layer[key] /= len(ALGORITHMS)
                for algorithm in TARGET_ALGORITHMS:
                    key = f"{algorithm}.solvers.iters_to_target"
                    layer[key] = traced[-1][key][0] if traced[-1][key] else None
                layers.append(layer)
            else:
                rounds.append(bench.round(tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        measured = per_layer(layers)
        wanted = spec["per_layer"]
        plain, slow = end_to_end(rounds), end_to_end(traced)
        for algorithm in ALGORITHMS:
            key = f"{algorithm}.iter_us"
            print(f"tracing overhead {key}: {plain[key][0]:.1f} -> "
                  f"{slow[key][0]:.1f} us ({slow[key][0] / plain[key][0] - 1:+.1%})")
    else:
        measured = end_to_end(rounds)
        wanted = spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        # A layer a workload never enters records nothing: zero.
        default = (0, entry["unit"]) if args.trace else None
        value, unit = measured.get(entry["name"], default)
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit} is not {entry['unit']}")
        if unit in ("count", "bytes") and value is not None \
                and float(value).is_integer():
            value = int(value)
        metrics[entry["name"]] = {"value": value, "unit": unit}
    print(f"{args.workload} seed {args.seed}: {len(rounds) + len(traced)} rounds, "
          f"{bench.attempted} operations, {bench.failed} failed")
    print(json.dumps({"correct": bench.unexpected == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
