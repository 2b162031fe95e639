import json
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from blindptycho import load_problem
from blindptycho.cli import _build_parser, main
from blindptycho.solvers import TRACE_HEADER, SolverConfig


def _strip_wall(csv_text):
    rows = csv_text.strip().split("\n")
    return [",".join(line.split(",")[:-1]) for line in rows]


def test_synth_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["synth", "--d", "16", "--shifts", "all", "--seed", "42"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    prob = load_problem(out1)
    assert prob.d == 16 and prob.n_regions == 16
    assert np.all(prob.y >= 0)


def test_synth_options(tmp_path):
    out = tmp_path / "p.json"
    code = main(["synth", "--d", "8", "--shifts", "0,2,4", "--mode",
                 "zero-padded", "--noise", "gaussian:0.5", "--seed", "7",
                 "--epsilon", "1e-3", "--alpha", "0.01", "--beta", "0.02",
                 "--drop-truth", "--out", str(out)])
    assert code == 0
    prob = load_problem(out)
    assert prob.offsets == (0, 2, 4)
    assert prob.shifts.mode == "zero-padded"
    assert prob.truth is None


def test_synth_negative_first_offset(tmp_path, capsys):
    # a list that starts with a negative offset is read after "--shifts" as
    # after "--shifts=", to the same bytes; a negative --d is still refused
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    synth = ["synth", "--d", "8", "--mode", "zero-padded"]
    assert main(synth + ["--shifts", "-4,0,4", "--out", str(spaced)]) == 0
    assert main(synth + ["--shifts=-4,0,4", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert load_problem(spaced).offsets == (-4, 0, 4)
    capsys.readouterr()
    assert main(["synth", "--d", "-1", "--shifts", "-4,0,4",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err == "error: --d must be >= 1: -1\n"


def test_run_writes_trace_and_summary(tmp_path):
    problem_path = tmp_path / "p.json"
    main(["synth", "--d", "8", "--seed", "1", "--out", str(problem_path)])
    code = main(["run", "--problem", str(problem_path), "--algo", "gd",
                 "--iters", "25", "--seed", "3", "--out-dir", str(tmp_path)])
    assert code == 0
    trace = (tmp_path / "gd_run000_trace.csv").read_text()
    assert trace.startswith("t,J,L_eps,grad_z_norm,grad_v_norm,mu_t,nu_t,wall_ns")
    assert len(trace.strip().split("\n")) == 27
    summary = json.loads((tmp_path / "gd_run000_summary.json").read_text())
    assert summary["config"]["algorithm"] == "gd"


def test_run_trace_deterministic_modulo_wall(tmp_path):
    problem_path = tmp_path / "p.json"
    main(["synth", "--d", "8", "--seed", "2", "--out", str(problem_path)])
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        code = main(["run", "--problem", str(problem_path), "--algo", "sgd",
                     "--iters", "60", "--seed", "9", "--out-dir", str(d)])
        assert code == 0
    a = _strip_wall((dirs[0] / "sgd_run000_trace.csv").read_text())
    b = _strip_wall((dirs[1] / "sgd_run000_trace.csv").read_text())
    assert a == b


def test_run_epie_equals_mapped_sgd_trace(tmp_path):
    problem_path = tmp_path / "p.json"
    main(["synth", "--d", "8", "--seed", "4", "--epsilon", "0", "--alpha", "0",
          "--beta", "0", "--out", str(problem_path)])
    common = ["--problem", str(problem_path), "--iters", "200", "--seed", "11",
              "--epie-alpha", "0.3", "--epie-beta", "0.3"]
    main(["run", "--algo", "epie", "--out-dir", str(tmp_path / "e")] + common)
    main(["run", "--algo", "sgd", "--sgd-step-rule", "epie_scaled",
          "--out-dir", str(tmp_path / "s")] + common)
    # the same rows, byte for byte, but for wall_ns
    engine, mapped = ([line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
                      for path in (tmp_path / "e" / "epie_run000_trace.csv",
                                   tmp_path / "s" / "sgd_run000_trace.csv"))
    assert len(engine) == 202 and engine == mapped


def test_run_reps_seed_derivation(tmp_path):
    problem_path = tmp_path / "p.json"
    main(["synth", "--d", "8", "--seed", "5", "--out", str(problem_path)])
    code = main(["run", "--problem", str(problem_path), "--algo", "gd",
                 "--iters", "5", "--seed", "20", "--reps", "3",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    seeds = [json.loads((tmp_path / f"gd_run{i:03d}_summary.json").read_text())
             ["config"]["seed"] for i in range(3)]
    assert seeds == [20, 21, 22]


def test_verify_suite_exit_codes(tmp_path):
    report_path = tmp_path / "report.json"
    code = main(["verify", "--suite", "unbiasedness,bilinear", "--samples",
                 "10", "--out", str(report_path)])
    assert code == 0
    reports = json.loads(report_path.read_text())
    assert all(r["passed"] for r in reports)


def test_verify_problem_with_offsets_equal_mod_d(tmp_path):
    problem_path = tmp_path / "p.json"
    report_path = tmp_path / "report.json"
    assert main(["synth", "--d", "8", "--mode", "zero-padded", "--shifts=-4,-2,0,4",
                 "--out", str(problem_path)]) == 0
    assert main(["verify", "--problem", str(problem_path), "--samples", "5",
                 "--out", str(report_path)]) == 0
    reports = json.loads(report_path.read_text())
    assert len(reports) == 9 and all(r["passed"] for r in reports)


def test_verify_without_out_writes_json_to_stdout(capsys):
    assert main(["verify", "--suite", "unbiasedness", "--samples", "1"]) == 0
    captured = capsys.readouterr()
    [report] = json.loads(captured.out)
    assert report["name"] == "unbiasedness" and report["passed"]
    assert captured.err.startswith("pass  unbiasedness")


def test_verify_all_suite(tmp_path):
    code = main(["verify", "--suite", "all", "--samples", "25",
                 "--out", str(tmp_path / "all.json")])
    assert code == 0


def test_report_aggregation(tmp_path):
    problem_path = tmp_path / "p.json"
    main(["synth", "--d", "8", "--seed", "6", "--out", str(problem_path)])
    main(["run", "--problem", str(problem_path), "--algo", "interval",
          "--iters", "10", "--seed", "1", "--out-dir", str(tmp_path)])
    out = tmp_path / "table.csv"
    code = main(["report", str(tmp_path / "interval_run000_summary.json"),
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    assert "interval" in lines[1]


def test_usage_errors_exit_2(tmp_path):
    assert main(["synth", "--d", "8"]) == 2                      # missing --out
    assert main(["bogus"]) == 2
    assert main(["synth", "--d", "8", "--noise", "weird",
                 "--out", str(tmp_path / "x.json")]) == 2
    # malformed p names the field
    assert main(["synth", "--d", "4", "--p", "0.5,0.5",
                 "--out", str(tmp_path / "y.json")]) == 2


def _problem_with(tmp_path, **fields):
    path = tmp_path / "p.json"
    main(["synth", "--d", "8", "--out", str(path)])
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))
    return path


@pytest.mark.parametrize("case", ["x-not-pairs", "offsets-not-a-list",
                                  "report-on-a-problem", "grad-tol-inf",
                                  "grad-tol-nan", "kappa-nan",
                                  "K-not-integral", "offsets-not-integral",
                                  "init-scale-nan", "epie-alpha-negative-sgd",
                                  "interval-no-tikhonov", "epie-scaled-batch",
                                  "truth-half", "verify-unknown-suite",
                                  "epsilon-string", "synth-noise-sigma",
                                  "synth-noise-sigma-negative",
                                  "synth-shifts-token", "synth-p-token",
                                  "synth-shifts-repeated", "synth-shifts-modulo-d",
                                  "synth-d-zero", "synth-d-negative",
                                  "run-iters-negative", "run-reps-zero",
                                  "K-above-regions", "epsilon-overflow",
                                  "synth-shifts-descending", "synth-p-length",
                                  "synth-batch-size-above-regions",
                                  "synth-epsilon-negative", "synth-alpha-nan"])
def test_bad_input_exit_2_one_line(tmp_path, capsys, case):
    bad = {"x-not-pairs": {"x": [1, 2]}, "offsets-not-a-list": {"offsets": 5},
           "K-not-integral": {"K": 2.9},
           "offsets-not-integral": {"offsets": [o + 0.6 for o in range(8)]},
           "interval-no-tikhonov": {"alpha_T": 0}, "epie-scaled-batch": {"K": 2},
           "epsilon-string": {"epsilon": "1e-8"},
           # more rows per batch than the problem has regions; an int too
           # large for a float
           "K-above-regions": {"K": 10**30}, "epsilon-overflow": {"epsilon": 10**400}}
    problem = str(_problem_with(tmp_path, **bad.get(case, {})))
    if case == "truth-half":
        doc = json.loads(Path(problem).read_text())
        del doc["w"]
        Path(problem).write_text(json.dumps(doc))
    out_dir, table = tmp_path / "out", tmp_path / "table.csv"
    run = ["run", "--problem", problem, "--algo", "sgd", "--iters", "2",
           "--out-dir", str(out_dir)]
    synth = ["synth", "--out", str(table), "--d"]
    argv, named = {
        "x-not-pairs": (run, "'x'"),
        "offsets-not-a-list": (run, "'offsets'"),
        "report-on-a-problem": (["report", problem, "--out", str(table)], "'final_J'"),
        "grad-tol-inf": (run + ["--grad-tol", "inf"], "grad_tol"),
        "grad-tol-nan": (run + ["--grad-tol", "nan"], "grad_tol"),
        "kappa-nan": (run + ["--kappa", "nan"], "kappa"),
        "K-not-integral": (run, "'K'"),
        "offsets-not-integral": (run, "'offsets'"),
        "init-scale-nan": (run + ["--init-scale", "nan"], "init_scale"),
        "epie-alpha-negative-sgd": (run + ["--sgd-step-rule", "epie_scaled",
                                           "--epie-alpha", "-1"], "epie_alpha"),
        "interval-no-tikhonov": (run[:4] + ["interval"] + run[5:], "Tikhonov"),
        "epie-scaled-batch": (run + ["--sgd-step-rule", "epie_scaled"], "batch_size 1"),
        "truth-half": (run, "'w'"),
        "verify-unknown-suite": (["verify", "--suite", "unbiasedness,nope",
                                  "--out", str(table)], "'nope'"),
        "epsilon-string": (run, "'epsilon'"),
        "synth-noise-sigma": (synth + ["4", "--noise", "gaussian:abc"], "--noise"),
        "synth-noise-sigma-negative": (synth + ["4", "--noise", "gaussian:-1"],
                                       "--noise: sigma must be >= 0: -1.0"),
        "synth-shifts-token": (synth + ["4", "--shifts", "0,a"], "--shifts"),
        "synth-p-token": (synth + ["4", "--p", "0.5,x,0.25,0.25"], "--p"),
        "synth-shifts-repeated": (synth + ["8", "--shifts", "0,0"], "--shifts"),
        "synth-shifts-modulo-d": (synth + ["8", "--shifts", "0,8"], "--shifts"),
        "synth-d-zero": (synth + ["0", "--shifts", "0"], "--d"),
        "synth-d-negative": (synth + ["-3"], "--d"),
        # Problem's checks of what synth's flags set name the flag
        "synth-shifts-descending": (synth + ["4", "--shifts", "3,1"],
                                    "--shifts: offsets must be strictly ascending"),
        "synth-p-length": (synth + ["4", "--p", "0.5,0.5"],
                           "--p: p must have one entry per shift"),
        "synth-batch-size-above-regions": (synth + ["4", "--batch-size", "9"],
                                           "--batch-size: batch_size must be <="),
        "synth-epsilon-negative": (synth + ["4", "--epsilon", "-1"],
                                   "--epsilon: epsilon must be >= 0: -1.0"),
        "synth-alpha-nan": (synth + ["4", "--alpha", "nan"],
                            "--alpha: alpha must be finite: nan"),
        "run-iters-negative": (run[:6] + ["-1"] + run[7:],
                               "--iters must be >= 0: -1"),
        "run-reps-zero": (run + ["--reps", "0"], "--reps must be >= 1: 0"),
        "K-above-regions": (run, "problem field 'K': batch_size must be <= the number "
                                 f"of shifts (8): {10**30}"),
        "epsilon-overflow": (run, "problem field 'epsilon': epsilon must be finite: inf"),
    }[case]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert named in err
    assert not out_dir.exists() and not table.exists()


@pytest.mark.parametrize("content", ["empty", "not-utf8", "trace-csv"])
@pytest.mark.parametrize("command", ["run", "verify", "report"])
def test_unreadable_file_named_exit_2(tmp_path, capsys, command, content):
    # a file that is not UTF-8 JSON is named in the one error line, so a
    # report over several files says which one broke
    problem = _problem_with(tmp_path)
    runs = tmp_path / "runs"
    assert main(["run", "--problem", str(problem), "--algo", "gd", "--iters", "1",
                 "--out-dir", str(runs)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_bytes({"empty": b"", "not-utf8": b"\xff{}",
                     "trace-csv": (runs / "gd_run000_trace.csv").read_bytes()}[content])
    out = tmp_path / "out"
    argv = {"run": ["run", "--problem", str(bad), "--algo", "gd", "--out-dir", str(out)],
            "verify": ["verify", "--problem", str(bad), "--out", str(out)],
            "report": ["report", str(runs / "gd_run000_summary.json"), str(bad),
                       "--out", str(out)]}[command]
    reason = {"empty": "Expecting value: line 1 column 1 (char 0)",
              "not-utf8": "'utf-8' codec can't decode byte 0xff in position 0",
              "trace-csv": "Expecting value: line 1 column 1 (char 0)"}[content]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {bad}: {reason}")
    assert not out.exists()


def test_verify_zero_samples_exit_2(tmp_path, capsys):
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["verify", "--samples", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: samples must be >= 1: 0"]
    assert not out.exists()


# the problem's keys in a summary's config, after the solver settings
PROBLEM_KEYS = ["d", "mode", "epsilon", "alpha_T", "beta_T", "K"]


def test_config_fields_are_run_flags_and_summary_keys(tmp_path):
    # every SolverConfig field is a solver setting: a run flag (algorithm and
    # max_iters are --algo and --iters) and a key of the summary's config
    settings = [f.name for f in fields(SolverConfig)]
    args = vars(_build_parser().parse_args(["run", "--problem", "p", "--algo", "gd"]))
    flags = set(args) - {"command", "problem", "reps", "init_scale", "out_dir"}
    assert flags == set(settings) - {"algorithm", "max_iters"} | {"algo", "iters"}
    problem_path = tmp_path / "p.json"
    main(["synth", "--d", "4", "--out", str(problem_path)])
    assert main(["run", "--problem", str(problem_path), "--algo", "gd", "--iters",
                 "1", "--out-dir", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "gd_run000_summary.json").read_text())["config"]
    assert list(config) == settings + PROBLEM_KEYS


def test_run_mu_nu_scale_gd_steps(tmp_path):
    problem_path = tmp_path / "p.json"
    main(["synth", "--d", "8", "--seed", "12", "--out", str(problem_path)])
    run = ["run", "--problem", str(problem_path), "--algo", "gd", "--iters",
           "3", "--seed", "13"]
    assert main(run + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(run + ["--mu", "0.5", "--nu", "0.25",
                       "--out-dir", str(tmp_path / "b")]) == 0
    rows = [(tmp_path / name / "gd_run000_trace.csv").read_text().split("\n")[1]
            for name in ("a", "b")]
    (mu, nu), (mu_b, nu_b) = [map(float, row.split(",")[5:7]) for row in rows]
    assert (mu_b, nu_b) == (0.5 * mu, 0.25 * nu)


def test_run_missing_problem_file(tmp_path):
    assert main(["run", "--problem", str(tmp_path / "nope.json"),
                 "--algo", "gd"]) == 2


@pytest.mark.parametrize("algo_args,rows", [
    (["--algo", "gd", "--iters", "5", "--init-scale", "1e200"], 0),
    # seed 1: at seed 0 the start is the synthesized truth, a fixed point
    (["--algo", "epie", "--iters", "50", "--epie-alpha", "1e300", "--seed", "1"], 1),
    # finite loss and gradient entries, but the gradient norm overflows
    (["--algo", "gd", "--init-scale", "1e70"], 0),
])
def test_run_divergence_exit_3_keeps_partial_trace(tmp_path, capsys,
                                                   algo_args, rows):
    problem_path = tmp_path / "p.json"
    main(["synth", "--d", "8", "--out", str(problem_path)])
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")        # no numpy overflow warnings
        code = main(["run", "--problem", str(problem_path),
                     "--out-dir", str(tmp_path / "out")] + algo_args)
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    trace = (tmp_path / "out" / f"{algo_args[1]}_run000_trace.csv").read_text()
    assert trace.startswith(TRACE_HEADER + "\n")
    assert len(trace.strip().split("\n")) == 1 + rows
