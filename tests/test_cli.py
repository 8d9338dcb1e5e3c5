import csv
import io
import json
import math
import warnings

import pytest

from mcrnet.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_sweep_csv_monotone_fiber_term(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "psi", "--values", "0,100,200,300,400,500",
        "--targets", "fiber_link_delay")
    assert code == 0
    rows = parse_csv(out)
    values = [float(r["fiber_link_delay"]) for r in rows]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert rows[0]["scenario_hash"]
    assert "theta1" in rows[0]["assumed_defaults"]


def test_sweep_csv_json_numeric_equality(capsys):
    argv = ["sweep", "lambda_e_per_km2", "--values", "6,10,20",
            "--targets", "backhaul_delay_multipath,backhaul_delay_single"]
    code_c, out_c, _ = run_cli(capsys, *argv, "--format", "csv")
    code_j, out_j, _ = run_cli(capsys, *argv, "--format", "json")
    assert code_c == code_j == 0
    csv_rows = parse_csv(out_c)
    json_rows = json.loads(out_j)
    assert len(csv_rows) == len(json_rows) == 3
    for cr, jr in zip(csv_rows, json_rows):
        for key in ("lambda_e_per_km2", "backhaul_delay_multipath",
                    "backhaul_delay_single"):
            assert float(cr[key]) == jr[key]


def test_sweep_row_error_marks_row_and_continues(capsys):
    # the last grid point violates the density ordering
    code, out, _ = run_cli(
        capsys, "sweep", "lambda_e_per_km2", "--values", "10,20,70",
        "--targets", "backhaul_delay_multipath")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["error"] == "" and rows[1]["error"] == ""
    assert "constraint" in rows[2]["error"]
    assert math.isnan(float(rows[2]["backhaul_delay_multipath"]))


def test_sweep_param_override_applies(capsys):
    _, out_b2, _ = run_cli(capsys, "sweep", "lambda_e_per_km2",
                           "--values", "10", "--targets",
                           "backhaul_delay_multipath", "--param", "b_paths=2")
    _, out_b6, _ = run_cli(capsys, "sweep", "lambda_e_per_km2",
                           "--values", "10", "--targets",
                           "backhaul_delay_multipath", "--param", "b_paths=6")
    d2 = float(parse_csv(out_b2)[0]["backhaul_delay_multipath"])
    d6 = float(parse_csv(out_b6)[0]["backhaul_delay_multipath"])
    assert d6 < d2


def test_sweep_rejects_unknown_target(capsys):
    code, _, err = run_cli(capsys, "sweep", "psi", "--values", "1",
                           "--targets", "flux_capacitance")
    assert code == 1
    assert "unknown targets" in err


def test_sweep_rejects_non_monotone_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "psi", "--values", "1,5,3",
                           "--targets", "p_in_edc")
    assert code == 1
    assert "monotone" in err


def test_sweep_jobs_do_not_change_output(capsys):
    argv = ["sweep", "psi", "--values", "10,100,400", "--targets",
            "fiber_link_delay,e_sys"]
    _, serial, _ = run_cli(capsys, *argv)
    _, threaded, _ = run_cli(capsys, *argv, "--jobs", "4")
    assert serial == threaded


def test_sweep_see_targets_trace_feasible_curve(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "psi", "--values", "50,189,400",
        "--targets", "see_multipath,see_single")
    assert code == 0
    rows = parse_csv(out)
    for row in rows:
        assert row["error"] == ""
        assert float(row["see_multipath"]) > 0
        # single path needs denser deployments, so it always costs more
        assert float(row["see_single"]) > float(row["see_multipath"])
    # the optimum cache size sits at the curve minimum
    multi = [float(r["see_multipath"]) for r in rows]
    assert multi[1] == min(multi)


def test_optimize_json_report(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--format", "json")
    assert code == 0
    report = json.loads(out)[0]
    assert report["best"]["is_best"]
    assert report["e_sys_min"] == report["best"]["e_sys"]
    assert report["best"]["residual"] <= 1e-9
    assert len(report["feasible_set"]) + len(report["skipped_psi"]) == 500
    assert report["scheme"] == "multipath"


def test_optimize_csv_has_single_best(capsys):
    code, out, _ = run_cli(capsys, "optimize")
    assert code == 0
    rows = parse_csv(out)
    assert sum(r["is_best"] == "True" for r in rows) == 1


def test_optimize_infeasible_exit_code(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--param", "d_max_ms=1",
                           "--format", "json")
    assert code == 2
    report = json.loads(out)[0]
    assert report["feasible"] is False
    assert report["reduced_budget"] < 0


def test_optimize_single_path_scheme(capsys):
    _, out_m, _ = run_cli(capsys, "optimize", "--format", "json")
    _, out_s, _ = run_cli(capsys, "optimize", "--scheme", "single-path",
                          "--format", "json")
    e_multi = json.loads(out_m)[0]["e_sys_min"]
    e_single = json.loads(out_s)[0]["e_sys_min"]
    assert e_multi < e_single


def test_config_file_and_param_precedence(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("lambda_e_per_km2 = 12\nb_paths = 2\n")
    code, out, _ = run_cli(
        capsys, "sweep", "psi", "--values", "100", "--targets", "e_sys",
        "--config", str(cfg), "--param", "lambda_e_per_km2=20")
    assert code == 0
    row = parse_csv(out)[0]
    assert "lambda_e" not in row["assumed_defaults"]
    hash_with_param = row["scenario_hash"]
    code, out2, _ = run_cli(
        capsys, "sweep", "psi", "--values", "100", "--targets", "e_sys",
        "--config", str(cfg))
    assert parse_csv(out2)[0]["scenario_hash"] != hash_with_param


def test_missing_config_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "optimize", "--config", "/no/such/file")
    assert code == 1
    assert "error:" in err


def test_bad_param_syntax_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "psi", "--values", "1",
                           "--targets", "p_in_edc", "--param", "psi:3")
    assert code == 1


def test_bad_psi_value_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "optimize", "--param", "psi=abc")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "psi" in err


@pytest.mark.parametrize("argv", [
    ("optimize", "--param", "psi=1.5"),
    ("sweep", "beta", "--values", "0.8", "--targets", "p_in_edc",
     "--param", "psi=1.5"),
    ("sweep", "psi", "--values", "1,1.5", "--targets", "p_in_edc"),
])
def test_fractional_psi_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "psi" in err


@pytest.mark.parametrize("values", ["400,600", "-1,0"])
def test_psi_sweep_outside_library_is_usage_error(capsys, values):
    code, out, err = run_cli(capsys, "sweep", "psi", f"--values={values}",
                             "--targets", "p_in_edc")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "outside [0, 500]" in err


def test_psi_sweep_accepts_library_ends(capsys):
    code, out, _ = run_cli(capsys, "sweep", "psi", "--values", "0,500",
                           "--targets", "p_in_edc")
    assert code == 0
    assert [float(r["p_in_edc"]) for r in parse_csv(out)] == \
        pytest.approx([0.0, 1.0], abs=1e-12)


def test_alpha_near_two_is_named_error(capsys):
    # the interference integrals diverge as alpha1 -> 2; the quadrature
    # fails there and must end in a named error, not a traceback
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "optimize", "--param",
                                 "alpha1=2.001")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "path-loss exponent 2.001" in err
    assert [str(w.message) for w in caught] == []


def test_alpha_barely_above_two_is_named_error(capsys):
    # here the coefficient quadrature falls back to truncation, which
    # drops most of the slowly decaying tail; that must be an error, not
    # a wrong success probability
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "optimize", "--param",
                                 "alpha1=2.00001")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "neglected tail" in err
    assert [str(w.message) for w in caught] == []


def test_validate_rejects_non_positive_trials(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "validate", "--trials", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--trials" in err
    assert caught == []


def test_out_file_writing(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, stdout, _ = run_cli(capsys, "sweep", "psi", "--values", "1,2",
                              "--targets", "p_in_edc",
                              "--out", str(out_path))
    assert code == 0
    assert stdout == ""
    rows = parse_csv(out_path.read_text())
    assert len(rows) == 2


def test_validate_small_run(capsys):
    code, out, _ = run_cli(capsys, "validate", "--trials", "4000",
                           "--seed", "7")
    rows = parse_csv(out)
    names = {r["check"] for r in rows}
    assert {"uplink_success", "deli_success", "access_success",
            "shadowing_success", "backhaul_simulator"} <= names
    assert code == 0
    assert all(r["passed"] == "True" for r in rows)


def test_validate_deterministic(capsys):
    argv = ["validate", "--trials", "3000", "--seed", "9"]
    _, a, _ = run_cli(capsys, *argv)
    _, b, _ = run_cli(capsys, *argv)
    assert a == b
