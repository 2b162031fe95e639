import json
import warnings

import numpy as np
import pytest

from blindptycho import load_problem
from blindptycho.cli import main
from blindptycho.solvers import TRACE_HEADER


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
    je = [float(line.split(",")[1]) for line in
          (tmp_path / "e" / "epie_run000_trace.csv").read_text().strip().split("\n")[1:]]
    js = [float(line.split(",")[1]) for line in
          (tmp_path / "s" / "sgd_run000_trace.csv").read_text().strip().split("\n")[1:]]
    assert np.allclose(je, js, rtol=1e-9, atol=1e-12)


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


def test_run_missing_problem_file(tmp_path):
    assert main(["run", "--problem", str(tmp_path / "nope.json"),
                 "--algo", "gd"]) == 2


@pytest.mark.parametrize("algo_args,rows", [
    (["--algo", "gd", "--iters", "5", "--init-scale", "1e200"], 0),
    (["--algo", "epie", "--iters", "50", "--epie-alpha", "1e300"], 1),
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
