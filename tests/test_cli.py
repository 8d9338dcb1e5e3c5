import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import mcrnet
from mcrnet import cli, latency, multipath, optimizer, popularity
from mcrnet.cli import main
from mcrnet.energy import load_energy_model, system_energy
from mcrnet.multipath import MULTIPATH, SCHEMES, SINGLE_PATH
from mcrnet.optimizer import FeasiblePair
from mcrnet.popularity import zipf
from mcrnet.scenario import load_scenario, scenario_hash
from memos import clear_memos, misses


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


def test_jobs_flag_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "sweep", "psi", "--values", "10,100",
                             "--targets", "fiber_link_delay", "--jobs", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--jobs" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("d_max_ms", ["1", "12", "20"])
@pytest.mark.parametrize("scheme,target", [(MULTIPATH, "see_multipath"),
                                           (SINGLE_PATH, "see_single")])
def test_sweep_see_is_the_curve_optimize_minimises(capsys, d_max_ms, scheme,
                                                   target):
    # every cache size: the same bits as optimize's e_sys where it is
    # feasible, and NaN with an error naming psi, the reduced budget, the
    # fiber-miss term and the searched densities where optimize skips it
    # (at 1 ms the fixed stages alone overrun the budget)
    param = f"d_max_ms={d_max_ms}"
    code, out, _ = run_cli(capsys, "optimize", "--scheme", scheme,
                           "--format", "json", "--param", param)
    feasible = [] if code == 2 else json.loads(out)[0]["feasible_set"]
    e_sys = {r["psi"]: r["e_sys"] for r in feasible}
    code, out, _ = run_cli(capsys, "sweep", "psi",
                           "--values", ",".join(map(str, range(1, 501))),
                           "--targets", target, "--param", param)
    assert code == 0
    s = load_scenario(overrides={"d_max_ms": d_max_ms})
    budget = optimizer.reduced_delay_budget(s)
    fiber = optimizer._fiber_terms(s)
    lo, hi = multipath.density_bracket(s)
    for psi, row in enumerate(parse_csv(out), start=1):
        if psi in e_sys:
            assert float(row[target]) == e_sys[psi]
            assert row["error"] == ""
        else:
            assert math.isnan(float(row[target]))
            assert row["error"] == (
                f"no feasible density for psi={psi}: reduced budget "
                f"{budget:.4g} s, fiber-miss term {fiber[psi - 1]:.4g} s, "
                f"searched [{lo:.4g}, {hi:.4g}] per m^2")


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


def _reference_text(rows, columns, fmt):
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format(v, ".17g") if isinstance(v, float) else str(v)
                         for v in (row.get(c, "") for c in columns)])
    return buf.getvalue()


def _reference_optimize(d_max_ms, scheme, fmt):
    """Exit code and output of ``mcrnet optimize`` as the row-wise writer
    produced them: one FeasiblePair per feasible cache size from the shared
    critical-density solve, one scalar system_energy call each, one dict
    per row and csv.writer over per-cell formatting."""
    s = load_scenario(overrides={"d_max_ms": d_max_ms})
    em = load_energy_model()
    meta = {"scenario_hash": scenario_hash(s),
            "assumed_defaults": ";".join(s.assumed_defaults
                                         + em.assumed_defaults)}
    budget = optimizer.reduced_delay_budget(s)
    feasible = []
    if budget > 0.0:
        fiber_terms = latency.fiber_delay(s) * (
            1.0 - zipf(s.beta, s.k_total).q.cumsum())
        lam, residual, status = optimizer._critical_densities(
            multipath._curve(s, scheme), fiber_terms, budget)
        feasible = [
            FeasiblePair(psi=psi, lambda_e_crit=lam_psi, residual=res_psi,
                         at_lower_bound=st == optimizer._CLAMPED)
            for psi, (lam_psi, res_psi, st) in enumerate(
                zip(lam.tolist(), residual.tolist(), status.tolist()),
                start=1)
            if st != optimizer._SKIPPED]
    if not feasible:
        report = {"feasible": False, "reduced_budget": budget,
                  "message": str(optimizer.NoFeasiblePairError(budget)),
                  **meta}
        return 2, _reference_text([report], list(report), fmt)
    e_sys = [system_energy(s, em, p.psi, lambda_e=p.lambda_e_crit).total
             for p in feasible]
    best = min(range(len(feasible)),
               key=lambda i: (e_sys[i], feasible[i].psi,
                              feasible[i].lambda_e_crit))

    def pair_row(pair, e):
        return {"psi": pair.psi, "lambda_e_crit": pair.lambda_e_crit,
                "lambda_e_crit_per_km2": pair.lambda_e_crit * 1e6,
                "e_sys": e, "residual": pair.residual,
                "at_lower_bound": pair.at_lower_bound,
                "is_best": pair == feasible[best], **meta}

    rows = [pair_row(p, e) for p, e in zip(feasible, e_sys)]
    if fmt == "json":
        return 0, _reference_text([{
            "best": pair_row(feasible[best], e_sys[best]),
            "e_sys_min": e_sys[best], "scheme": scheme,
            "skipped_psi": sorted(set(range(1, s.k_total + 1))
                                  - {p.psi for p in feasible}),
            "feasible_set": rows, **meta}], [], "json")
    return 0, _reference_text(rows, list(rows[0]), "csv")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("d_max_ms", ["1", "4.5", "12", "20", "100"])
def test_optimize_output_matches_row_wise_reference(capsys, d_max_ms,
                                                    scheme, fmt):
    # d_max_ms 1 leaves a negative budget and 4.5 a positive one that no
    # cache size can meet: both end in the infeasible report
    code, out, _ = run_cli(capsys, "optimize", "--scheme", scheme,
                           "--param", f"d_max_ms={d_max_ms}",
                           "--format", fmt)
    expected_code, expected = _reference_optimize(d_max_ms, scheme, fmt)
    assert code == expected_code == (2 if float(d_max_ms) < 5 else 0)
    # line lists keep pytest's report of a mismatch short
    assert out.splitlines(keepends=True) == expected.splitlines(keepends=True)


@pytest.mark.parametrize("block_rows", [1, 7, 500])
def test_optimize_csv_blocks_join_to_the_reference(capsys, monkeypatch,
                                                   block_rows):
    # a block boundary inside, at the end of and beyond the feasible rows
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
    code, out, _ = run_cli(capsys, "optimize", "--param", "d_max_ms=12")
    expected_code, expected = _reference_optimize("12", MULTIPATH, "csv")
    assert code == expected_code == 0
    assert out.splitlines(keepends=True) == expected.splitlines(keepends=True)


def test_psi_sweep_shares_one_context(capsys, monkeypatch):
    # 50 rows, psi 0 among them (its see_* cells fail), at a budget that
    # skips some sizes: one scenario load, one popularity model, and the
    # bytes of rows built one at a time from their own contexts
    targets = ["p_in_edc", "fiber_link_delay", "total_latency_multipath",
               "e_sys", "see_multipath", "see_single"]
    argv = ["sweep", "psi", "--values", ",".join(map(str, range(0, 500, 10))),
            "--targets", ",".join(targets), "--param", "d_max_ms=12"]
    args = cli._parser().parse_args(argv)
    rows = []
    for value in map(float, args.values.split(",")):
        ctx = cli._build_context(args, cli._documents(args), ("psi", value))
        row = {"psi": value, "error": "", **cli._metadata(ctx)}
        for t in targets:
            try:
                row[t] = float(cli.TARGETS[t](ctx))
            except Exception as exc:
                row[t], row["error"] = math.nan, str(exc)
        rows.append(row)
    expected = _reference_text(
        rows, ["psi"] + targets + ["scenario_hash", "assumed_defaults",
                                   "error"], "csv")
    loads = []

    def counted_load(*a, **kw):
        loads.append(a)
        return load_scenario(*a, **kw)

    monkeypatch.setattr(cli, "load_scenario", counted_load)
    clear_memos()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(loads) == 1
    assert misses(popularity._zipf_model) <= 1
    assert rows[0]["error"] and math.isnan(rows[0]["see_single"])
    assert out.splitlines(keepends=True) == expected.splitlines(keepends=True)


def test_reused_parser_starts_each_call_fresh(capsys):
    cli.cmd_optimize(cli.build_parser().parse_args(["optimize"]))
    first_call = capsys.readouterr().out
    _, with_param, _ = run_cli(capsys, "optimize", "--param", "beta=0.4")
    code, out, _ = run_cli(capsys, "optimize")
    assert code == 0
    assert with_param != first_call
    assert out.splitlines(keepends=True) == \
        first_call.splitlines(keepends=True)


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


SWEEPS = {
    "psi": ("sweep", "psi", "--values", "10,20"),
    "density": ("sweep", "lambda_e_per_km2", "--values", "6,10,20"),
    "beta": ("sweep", "beta", "--values", "0.4,0.8"),
}


@pytest.mark.parametrize("flag", ["--config", "--energy"])
@pytest.mark.parametrize("sweep", SWEEPS)
def test_unreadable_document_fails_every_sweep(tmp_path, capsys, sweep,
                                               flag):
    # read once, before any row: exit 1 and no rows, never a NaN row per
    # value
    missing = tmp_path / "missing.cfg"
    code, out, err = run_cli(capsys, *SWEEPS[sweep], "--targets",
                             "e_sys,see_multipath", flag, str(missing))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "missing.cfg" in err


@pytest.mark.parametrize("argv", [
    ("optimize",), ("validate", "--trials", "10"),
    SWEEPS["density"] + ("--targets", "e_sys")])
def test_non_utf8_document_is_usage_error(tmp_path, capsys, argv):
    doc = tmp_path / "binary.cfg"
    doc.write_bytes(b"\xff\xfe\x00lambda_e = 1e-5\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(doc))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "not UTF-8" in err


@pytest.mark.parametrize("sweep", SWEEPS)
def test_sweep_reads_each_document_once(tmp_path, capsys, monkeypatch,
                                        sweep):
    reads = []

    def counted_read(path):
        reads.append(path)
        return pathlib.Path(path).read_text("utf-8")

    monkeypatch.setattr(cli, "_read_document", counted_read)
    config, energy = tmp_path / "scenario.cfg", tmp_path / "energy.cfg"
    config.write_text("b_paths = 2\n")
    energy.write_text("e_storage = 1.6e7\n")
    code, out, _ = run_cli(capsys, *SWEEPS[sweep], "--targets", "e_sys",
                           "--config", str(config), "--energy", str(energy))
    assert code == 0
    assert sorted(reads) == sorted([str(config), str(energy)])
    assert all(not r["error"] for r in parse_csv(out))


def test_bad_param_syntax_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "psi", "--values", "1",
                           "--targets", "p_in_edc", "--param", "psi:3")
    assert code == 1


@pytest.mark.parametrize("values", ["a,b", "1,", ""])
def test_non_numeric_sweep_grid_is_usage_error(capsys, values):
    code, out, err = run_cli(capsys, "sweep", "beta", f"--values={values}",
                             "--targets", "p_in_edc")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--values" in err


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


def run_cli_without_warnings(capsys, *argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    return result


@pytest.mark.parametrize("alpha1", ["2.001", "2.00001"])
def test_alpha_near_two_is_infeasible(capsys, alpha1):
    # the delivery coverage tends to (alpha1 - 2) / (alpha1 theta2), so
    # its delay alone exceeds the budget: no feasible pair, and no error
    code, out, err = run_cli_without_warnings(
        capsys, "optimize", "--param", f"alpha1={alpha1}")
    assert code == 2
    assert err == ""
    (report,) = parse_csv(out)
    assert report["feasible"] == "False"
    assert float(report["reduced_budget"]) < 0.0


def test_large_gain_order_optimizes(capsys):
    # order nt_m * nr_e = 1024 overflowed the coefficient series
    code, out, err = run_cli_without_warnings(
        capsys, "optimize", "--param", "nt_m=32", "--param", "nr_e=32")
    assert code == 0
    assert err == ""
    assert parse_csv(out)


def test_large_gain_order_validates_delivery(capsys):
    # at order 256 a 1.4 % error in the delivery probability shows as
    # |z| > 4 at 1e5 trials
    code, out, err = run_cli_without_warnings(
        capsys, "validate", "--trials", "100000", "--param", "nt_m=16",
        "--param", "nr_e=16")
    rows = {r["check"]: r for r in parse_csv(out)}
    assert rows["deli_success"]["passed"] == "True"
    assert abs(float(rows["deli_success"]["deviation"])) <= 3.0
    assert code == 0
    assert err == ""


@pytest.mark.parametrize("param,field", [
    ("r_max=1e200", "r_max"), ("theta2=inf", "theta2"),
    ("theta2_db=inf", "theta2"), ("theta1=inf", "theta1"),
    ("alpha2=inf", "alpha2"), ("n0=inf", "n0"),
    ("relay_coeff=1e308", "relay_coeff"), ("e_storage=inf", "e_storage"),
    ("t_life_m_years=inf", "t_life_m"), ("a_m=nan", "a_m"),
    ("p_s_dbm=1e5", "p_s_dbm"), ("k_total=1e300", "k_total"),
    ("nr_e=8193", "nr_e")])
def test_out_of_range_scenario_value_is_scenario_error(capsys, param, field):
    code, out, err = run_cli_without_warnings(
        capsys, "optimize", "--param", param)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and field in err


# finite values at which a stage never succeeds, or its threshold
# overflows a float
@pytest.mark.parametrize("param,stage", [
    ("theta1=1e300", "uplink"), ("theta3=1e300", "access"),
    ("n0=1e300", "backhaul"), ("alpha1=400", "uplink"),
    ("alpha2=400", "access"), ("alpha1=1e300", "uplink")])
def test_unreachable_stage_is_named_error(capsys, param, stage):
    code, out, err = run_cli_without_warnings(
        capsys, "optimize", "--param", param)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and f"{stage} stage" in err


@pytest.mark.parametrize("trials", ["0", "1"])
def test_validate_rejects_non_positive_trials(capsys, trials):
    # one trial has no standard error, so it is a usage error too
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "validate", "--trials", trials)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--trials" in err
    assert caught == []


@pytest.mark.parametrize("argv", [
    ("optimize", "--trials", "5"),
    ("optimize", "--seed", "3"),
    ("sweep", "psi", "--values", "10", "--targets", "p_in_edc",
     "--trials", "5"),
    ("sweep", "psi", "--values", "10", "--targets", "p_in_edc",
     "--seed", "3"),
])
def test_monte_carlo_flags_belong_to_validate(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and argv[-2] in err


@pytest.mark.parametrize("argv,key", [
    (("sweep", "psi", "--values", "10", "--targets", "p_in_edc",
      "--param", "dmax_ms=12"), "dmax_ms"),
    (("optimize", "--param", "dmax_ms=12"), "dmax_ms"),
    (("validate", "--trials", "10", "--param", "dmax_ms=12"), "dmax_ms"),
    (("sweep", "frob", "--values", "1,2", "--targets", "p_in_edc"), "frob"),
    (("optimize", "--param", "psi=7"), "psi"),
    (("validate", "--trials", "10", "--param", "psi=7"), "psi"),
    (("validate", "--trials", "10", "--param", "e_storage=7"), "e_storage"),
    (("validate", "--trials", "10", "--energy", "energy.cfg"), "--energy"),
])
def test_key_the_command_does_not_read_is_usage_error(capsys, argv, key):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and key in err
    if key != "--energy":  # argparse rejects the flag itself
        assert argv[0] in err


def test_energy_document_is_read_by_sweep_and_optimize(tmp_path, capsys):
    doc = tmp_path / "energy.cfg"
    doc.write_text("e_storage = 1.6e7\ne_em_m = 0\n")
    em = load_energy_model(doc.read_text())
    s = load_scenario()
    _, out, _ = run_cli(capsys, "sweep", "psi", "--values", "10",
                        "--targets", "e_sys", "--energy", str(doc))
    (row,) = parse_csv(out)
    assert float(row["e_sys"]) == system_energy(s, em, 10).total
    assert row["assumed_defaults"].endswith("e_em_e;e_em_s")
    code, out, _ = run_cli(capsys, "optimize", "--format", "json",
                           "--energy", str(doc))
    (report,) = json.loads(out)
    outcome = optimizer.optimize_cache_density(s, em)
    assert code == 0 and report["e_sys_min"] == outcome.e_sys_min


def test_validate_names_simulator_slot_overflow(capsys):
    # the edge node's first hop succeeds once in ~4e16 slots: the
    # simulator row names the stage, the other checks still run
    code, out, _ = run_cli_without_warnings(
        capsys, "validate", "--trials", "2000", "--param", "p_e=6.6e-15")
    rows = {r["check"]: r for r in parse_csv(out)}
    assert code == 3
    assert rows["backhaul_simulator"]["error"].startswith("backhaul stage")
    assert all(r["passed"] == "True" for name, r in rows.items()
               if name != "backhaul_simulator")


def test_validate_names_delivery_noise_overflow(capsys):
    # (pi * lambda_m) ** (-alpha1 / 2) overflows a float at alpha1 = 1000:
    # the delivery row names the stage instead of the raw overflow text
    code, out, _ = run_cli_without_warnings(
        capsys, "validate", "--trials", "200", "--param", "alpha1=1000")
    rows = {r["check"]: r for r in parse_csv(out)}
    assert code == 3
    assert rows["deli_success"]["error"] == (
        "delivery stage: its sampled noise overflows a float at this "
        "path-loss exponent and macro density")


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


def test_every_config_value_ends_in_a_documented_exit_code():
    # the property caps the address space of the process it runs in, so it
    # runs in a child; one BLAS thread keeps the cap from meeting the
    # buffers a BLAS reserves per core
    src = str(pathlib.Path(mcrnet.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    script = pathlib.Path(__file__).with_name("cli_property.py")
    result = subprocess.run([sys.executable, str(script)], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
