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
from pathlib import Path

import numpy as np

from .fourier import CIRCULAR, MODES, ShiftSet
from .harness import ExperimentConfig, aggregate_summaries, run_experiment
from .model import NoiseModel, load_problem, save_problem, synthesize_problem
from .solvers import ALGORITHMS, DivergenceError, SolverConfig
from .verify import SUITES, reports_to_json, run_suite


def _parse_noise(text: str) -> NoiseModel:
    if text == "none" or text == "poisson":
        return NoiseModel(text)
    if text.startswith("gaussian:"):
        return NoiseModel("gaussian", float(text.split(":", 1)[1]))
    raise ValueError("noise must be 'none', 'poisson' or 'gaussian:<sigma>'")


def _parse_shifts(text: str, d: int, mode: str) -> ShiftSet:
    if text == "all":
        return ShiftSet.all_shifts(d, mode)
    return ShiftSet(tuple(int(tok) for tok in text.split(",")), mode)


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
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--reps", type=int, default=1)
    runp.add_argument("--init-scale", type=float, default=1.0)
    runp.add_argument("--grad-tol", type=float, default=0.0)
    runp.add_argument("--step-mode", default="rate", choices=("rate", "cap"))
    runp.add_argument("--theta", type=float, default=0.5)
    runp.add_argument("--kappa", type=float, default=0.2)
    runp.add_argument("--mu", type=float, default=1.0)
    runp.add_argument("--nu", type=float, default=1.0)
    runp.add_argument("--sgd-step-rule", default="bounded",
                      choices=("bounded", "epie_scaled"))
    runp.add_argument("--epie-alpha", type=float, default=1.0)
    runp.add_argument("--epie-beta", type=float, default=1.0)
    runp.add_argument("--epie-schedule", default="iid",
                      choices=("iid", "shuffled"))
    runp.add_argument("--gamma-grid", type=int, default=2)
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
    shifts = _parse_shifts(args.shifts, args.d, args.mode)
    p = None
    if args.p != "uniform":
        p = np.array([float(tok) for tok in args.p.split(",")])
    problem = synthesize_problem(
        d=args.d, shifts=shifts, seed=args.seed, noise=_parse_noise(args.noise),
        epsilon=args.epsilon, alpha=args.alpha, beta=args.beta, p=p,
        batch_size=args.batch_size)
    if args.drop_truth:
        import dataclasses
        problem = dataclasses.replace(problem, truth=None)
    save_problem(args.out, problem)
    return 0


def _cmd_run(args) -> int:
    problem = load_problem(args.problem)
    solver = SolverConfig(
        algorithm=args.algo, max_iters=args.iters, seed=args.seed,
        grad_tol=args.grad_tol, step_mode=args.step_mode, theta=args.theta,
        kappa=args.kappa, mu=args.mu, nu=args.nu,
        sgd_step_rule=args.sgd_step_rule, epie_alpha=args.epie_alpha,
        epie_beta=args.epie_beta, epie_schedule=args.epie_schedule,
        gamma_grid=args.gamma_grid)
    solver.validate()
    experiment = ExperimentConfig(
        problem=problem, solvers=[solver], repetitions=args.reps,
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
