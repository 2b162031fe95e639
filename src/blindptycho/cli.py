"""Command-line entry points.

Subcommands:

* ``synth``   write a problem instance as JSON
* ``run``     solve a problem, writing trace CSVs and summary JSONs
* ``verify``  run checker suites; nonzero exit when any check fails
* ``report``  aggregate summary files into one CSV table

Exit status: 0 on success, 1 when a verification check fails, 2 on usage or
configuration errors, 3 when a solver run diverges (its trace up to the
failing iteration is written).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .fourier import CIRCULAR, MODES, ShiftSet
from .harness import ExperimentConfig, aggregate_summaries, run_experiment
from .model import NoiseModel, load_problem, save_problem, synthesize_problem
from .rng import _count
from .solvers import ALGORITHMS, DivergenceError, SolverConfig
from .verify import SUITES, reports_to_json, run_suite


def _parse(convert, token: str, flag: str):
    try:
        return convert(token)
    except ValueError:
        raise ValueError(f"{flag}: cannot read {token!r}") from None


def _parse_noise(text: str) -> NoiseModel:
    if text == "none" or text == "poisson":
        return NoiseModel(text)
    if text.startswith("gaussian:"):
        sigma = _parse(float, text.split(":", 1)[1], "--noise")
        try:
            return NoiseModel("gaussian", sigma)
        except ValueError as exc:
            raise ValueError(f"--noise: {exc}") from None
    raise ValueError("--noise must be 'none', 'poisson' or 'gaussian:<sigma>'")


def _parse_shifts(text: str, d: int, mode: str) -> ShiftSet:
    if text == "all":
        return ShiftSet.all_shifts(d, mode)
    offsets = tuple(_parse(int, t, "--shifts") for t in text.split(","))
    try:
        shifts = ShiftSet(offsets, mode)
        shifts.validate_for_dim(d)
    except ValueError as exc:
        raise ValueError(f"--shifts: {exc}") from None
    return shifts


# the SolverConfig fields that `run` takes as flags named after them
_RUN_FIELDS = [f for f in fields(SolverConfig)
               if f.name not in ("algorithm", "max_iters")]
_RUN_HELP = {
    "seed": "seed of repetition 0 (repetition i uses seed + i) for its "
            "starting pair and solver stream; a problem synthesized with the "
            "same seed starts at its ground truth at --init-scale 1",
    "grad_tol": "stop at the first iterate whose joint gradient norm is at "
                "most this, with a closing row (0: off)",
    "theta": "exponent in (0, 1) of bounded sgd's step rule; at the default "
             "0.5 (kappa 0.2) its certified steps are tiny: at d = 8, 20 000 "
             "iterations move J by about 0.2 %% (J_T/J_0 0.9977-0.9996 over ten "
             "seeds); --sgd-step-rule epie_scaled is the practical path",
    **dict.fromkeys(("mu", "nu"), "factor in (0, 1] on gd's and bounded sgd's step"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blindptycho")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize a problem instance")
    synth.add_argument("--d", type=int, required=True)
    synth.add_argument("--shifts", default="all",
                       help="'all' or a comma-separated offset list")
    synth.add_argument("--mode", default=CIRCULAR, choices=MODES)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--noise", default="none")
    synth.add_argument("--epsilon", type=float, default=1e-8)
    synth.add_argument("--alpha", type=float, default=1e-3)
    synth.add_argument("--beta", type=float, default=1e-3)
    synth.add_argument("--p", default="uniform",
                       help="'uniform' or a comma-separated probability list")
    synth.add_argument("--batch-size", type=int, default=1)
    synth.add_argument("--drop-truth", action="store_true",
                       help="omit the generating pair from the output")
    synth.add_argument("--out", required=True)

    runp = sub.add_parser("run", help="run a solver on a problem file")
    runp.add_argument("--problem", required=True)
    runp.add_argument("--algo", required=True, choices=ALGORITHMS)
    runp.add_argument("--iters", type=int, default=500)
    for f in _RUN_FIELDS:
        runp.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                          default=f.default, choices=SolverConfig.CHOICES.get(f.name),
                          help=_RUN_HELP.get(f.name))
    runp.add_argument("--reps", type=int, default=1)
    runp.add_argument("--init-scale", type=float, default=1.0)
    runp.add_argument("--out-dir", default=".")

    ver = sub.add_parser("verify", help="run inequality checker suites")
    ver.add_argument("--suite", default="all",
                     help="'all' or comma-separated names: " + ",".join(SUITES))
    ver.add_argument("--problem", default=None,
                     help="optional problem JSON; default is a synthetic instance")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--samples", type=int, default=100)
    ver.add_argument("--out", default=None, help="report JSON path (default stdout)")

    rep = sub.add_parser("report", help="aggregate run summaries into a CSV table")
    rep.add_argument("summaries", nargs="+")
    rep.add_argument("--out", required=True)

    return parser


def _cmd_synth(args) -> int:
    _count(args.d, "--d", 1)
    shifts = _parse_shifts(args.shifts, args.d, args.mode)
    p = None
    if args.p != "uniform":
        p = np.array([_parse(float, tok, "--p") for tok in args.p.split(",")])
    try:
        problem = synthesize_problem(
            d=args.d, shifts=shifts, seed=args.seed, noise=_parse_noise(args.noise),
            epsilon=args.epsilon, alpha=args.alpha, beta=args.beta, p=p,
            batch_size=args.batch_size)
    except ValueError as exc:
        # a rejected Problem field that a flag named after it set
        name = getattr(exc, "field", None)
        if name not in ("shifts", "p", "batch_size", "epsilon", "alpha", "beta"):
            raise
        raise ValueError(f"--{name.replace('_', '-')}: {exc}") from None
    if args.drop_truth:
        problem = replace(problem, truth=None)
    save_problem(args.out, problem)
    return 0


def _cmd_run(args) -> int:
    # the two counts whose flags are not named after the field they set
    iters, reps = _count(args.iters, "--iters", 0), _count(args.reps, "--reps", 1)
    problem = load_problem(args.problem)
    options = {f.name: getattr(args, f.name) for f in _RUN_FIELDS}
    solver = SolverConfig(algorithm=args.algo, max_iters=iters, **options)
    experiment = ExperimentConfig(
        problem=problem, solvers=[solver], repetitions=reps,
        base_seed=args.seed, init_scale=args.init_scale, out_dir=args.out_dir)
    # A divergence is reported as one error line (exit 3), not numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        results = run_experiment(experiment)
    for trace_path, summary_path, _ in results:
        print(f"wrote {trace_path} and {summary_path}")
    return 0


def _cmd_verify(args) -> int:
    names = SUITES if args.suite == "all" else tuple(args.suite.split(","))
    problem = load_problem(args.problem) if args.problem else None
    reports = run_suite(names, problem=problem, seed=args.seed,
                        samples=args.samples)
    text = reports_to_json(reports)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        print(f"{status}  {report.name}  worst_slack={report.worst_slack:.3e}",
              file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_report(args) -> int:
    Path(args.out).write_text(aggregate_summaries(args.summaries))
    return 0


_COMMANDS = {"synth": _cmd_synth, "run": _cmd_run, "verify": _cmd_verify,
             "report": _cmd_report}


def _join_shifts(argv) -> list[str]:
    """``argv`` (default ``sys.argv[1:]``) with each ``--shifts X`` written
    ``--shifts=X``: argparse reads an X that starts with '-', such as
    -4,0,4, as a flag."""
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--shifts":
            argv[i:i + 2] = [f"--shifts={argv[i + 1]}"]
    return argv


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_shifts(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
