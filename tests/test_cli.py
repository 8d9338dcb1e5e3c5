import collections
import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mcrnet
from mcrnet import (cli, latency, montecarlo, multipath, numerics,
                    optimizer, popularity, scenario)
from mcrnet.cli import main
from mcrnet.energy import ENERGY_KEYS, load_energy_model, system_energy
from mcrnet.multipath import MULTIPATH, SCHEMES, SINGLE_PATH
from mcrnet.optimizer import FeasiblePair
from mcrnet.popularity import zipf
from mcrnet.scenario import (SCENARIO_KEYS, ScenarioError, db_to_linear,
                             dbm_to_watt, linear_to_db, load_scenario,
                             scenario_hash, watt_to_dbm)
from memos import clear_memos, misses
from oracles import csv_text


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


@pytest.mark.parametrize("param", ["psi", "lambda_e_per_km2"])
@pytest.mark.parametrize("values", ["1,nan", "NaN,1", "nan"])
def test_sweep_names_a_nan_grid_value(capsys, param, values):
    # NaN orders with nothing, so it is named, not read as a grid out of
    # order
    code, out, err = run_cli(capsys, "sweep", param, "--values", values,
                             "--targets", "p_in_edc")
    assert code == 1 and out == ""
    nan = next(v for v in values.split(",") if v.lower() == "nan")
    assert err == f"error: --values holds {nan!r}, which is not a number\n"


@pytest.mark.parametrize("option", ["--values", "--val"])
@pytest.mark.parametrize("values", ["-20,-19.5", "-20", "-inf,0", "-.5,1e3"])
def test_sweep_values_may_start_negative_as_a_separate_token(capsys, option,
                                                             values):
    # a list that starts with "-" is a value, not an option, and reads as
    # its --values=... form does, after the option or an abbreviation
    argv = ["theta2_db", "--targets", "deli_delay"]
    separate = run_cli(capsys, "sweep", option, values, *argv)
    joined = run_cli(capsys, "sweep", f"--values={values}", *argv)
    assert separate == joined
    code, out, err = separate
    assert (code, err) == (0, "")
    assert [float(row["theta2_db"]) for row in parse_csv(out)] == [
        float(v) for v in values.split(",")]


def test_sweep_values_still_needs_a_value_before_the_next_option(capsys):
    code, out, err = run_cli(capsys, "sweep", "theta2_db", "--values",
                             "--targets", "deli_delay")
    assert (code, out) == (1, "")
    assert err == "error: argument --values: expected one argument\n"


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
    fiber = optimizer._fiber_terms(s, np.arange(1, s.k_total + 1))
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
    return csv_text(columns, ([row.get(c, "") for c in columns]
                              for row in rows))


_CSV_TEXTS = st.text(st.sampled_from('ab ,"\n\r'), max_size=4)
# each kind of column: floats with the signed zeros, NaN, the infinities,
# subnormals and values that repeat; ints and bools; strings that need
# quoting, and empty ones; any mix of these
_CSV_COLUMNS = {
    "float": st.one_of(
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                         -2.5e-310, 1.0, 0.1, 1e300]),
        st.floats()),
    "int": st.one_of(st.booleans(), st.integers(), st.integers(-3, 3)),
    "str": _CSV_TEXTS,
}
_CSV_COLUMNS["mixed"] = st.one_of(*_CSV_COLUMNS.values())


@st.composite
def _csv_tables(draw):
    rows = draw(st.integers(0, 20))
    names = draw(st.lists(_CSV_TEXTS, min_size=1, max_size=4))
    columns = [draw(st.lists(_CSV_COLUMNS[draw(st.sampled_from(
        sorted(_CSV_COLUMNS)))], min_size=rows, max_size=rows))
        for _ in names]
    return names, columns


@pytest.mark.parametrize("block_rows", [1, 7, cli._CSV_BLOCK_ROWS])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(table=_csv_tables())
def test_csv_writer_equals_the_cell_wise_writer_property(table, block_rows):
    names, columns = table
    with mock.patch.object(cli, "_CSV_BLOCK_ROWS", block_rows):
        text = "".join(cli._csv_blocks(names, columns))
    assert text == csv_text(names, zip(*columns))


@pytest.mark.parametrize("argv", [
    ["optimize"], ["optimize", "--scheme", SINGLE_PATH],
    ["sweep", "psi", "--values", "1,50,400", "--targets",
     ",".join(cli.TARGETS)],
    # the second row fails: its cells are NaN and its error is set
    ["sweep", "theta1_dbm", "--values=-60,3100", "--targets",
     "uplink_delay,total_latency_multipath"],
    ["validate", "--trials", "2000"]])
def test_json_output_is_the_indenting_encoders_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


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
            s, scheme, fiber_terms, budget)
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


def _reference_sweep(argv):
    """Output of ``mcrnet sweep`` built one row at a time: each row from
    its own context, each target through ``cli.TARGETS`` (for a see_*
    target, one lone critical-density solve), the error cell holding the
    message of the last target that failed, or of the context that
    failed to build."""
    args = cli._parser().parse_args(argv)
    param, targets = args.sweep_param, args.targets.split(",")
    rows = []
    for value in map(float, args.values.split(",")):
        try:
            ctx = cli._build_context(args, cli._documents(args),
                                     (param, value))
        except Exception as exc:
            # a row whose context fails: its error in every cell, no
            # metadata
            rows.append({param: value, "error": str(exc),
                         **dict.fromkeys(targets, math.nan)})
            continue
        row = {param: value, "error": "", **cli._metadata(ctx)}
        for t in targets:
            try:
                row[t] = float(cli.TARGETS[t][0](ctx))
            except Exception as exc:
                row[t], row["error"] = math.nan, str(exc)
        rows.append(row)
    return _reference_text(
        rows, [param] + targets + ["scenario_hash", "assumed_defaults",
                                   "error"], args.format)


def test_psi_sweep_shares_one_context(capsys, monkeypatch):
    # 50 rows, psi 0 among them (its see_* cells fail), at a budget that
    # skips some sizes: one scenario load, one popularity model, and the
    # bytes of rows built one at a time from their own contexts
    targets = ["p_in_edc", "fiber_link_delay", "total_latency_multipath",
               "e_sys", "see_multipath", "see_single"]
    argv = ["sweep", "psi", "--values", ",".join(map(str, range(0, 500, 10))),
            "--targets", ",".join(targets), "--param", "d_max_ms=12"]
    expected = _reference_sweep(argv)
    rows = parse_csv(expected)
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
    assert rows[0]["error"] and math.isnan(float(rows[0]["see_single"]))
    assert out.splitlines(keepends=True) == expected.splitlines(keepends=True)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sizes=st.sets(st.integers(0, 500), min_size=1, max_size=12),
       descending=st.booleans(),
       targets=st.lists(st.sampled_from(sorted(cli.TARGETS)), min_size=1,
                        max_size=8),
       d_max_ms=st.sampled_from(["1", "4", "12", "20", "100"]),
       b_paths=st.sampled_from(["1", "4"]),
       fmt=st.sampled_from(["csv", "json"]))
def test_psi_sweep_equals_row_wise_reference_property(
        sizes, descending, targets, d_max_ms, b_paths, fmt):
    # any grid of the library's sizes, psi 0 included, in either order;
    # repeated targets in any order; budgets that no size, some sizes or
    # every size meets; a path count at which the bounds fail
    argv = ["sweep", "psi",
            "--values", ",".join(map(str, sorted(sizes, reverse=descending))),
            "--targets", ",".join(targets), "--param", f"d_max_ms={d_max_ms}",
            "--param", f"b_paths={b_paths}", "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == _reference_sweep(argv)


@pytest.mark.parametrize("values", [range(1, 500, 10), range(1, 501)],
                         ids=["50_rows", "500_rows"])
def test_psi_sweep_solves_see_targets_as_columns(capsys, monkeypatch,
                                                 values):
    # no lone solve, one array pass per scheme, and the psi-free bounds
    # evaluated once per target whatever the grid length
    calls = collections.Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(optimizer, "critical_edc_density")
    counted(optimizer, "_critical_energies")
    counted(multipath, "delay_bounds")
    code, out, _ = run_cli(capsys, "sweep", "psi",
                           "--values", ",".join(map(str, values)),
                           "--targets", ",".join(cli.TARGETS))
    assert code == 0 and len(parse_csv(out)) == len(values)
    assert calls == collections.Counter(_critical_energies=2, delay_bounds=2)
    assert calls["critical_edc_density"] == 0


BOUNDS_ERROR = ("bounds need 1 < b_paths <= lambda_e * pi * r_max^2 "
                "(got b_paths=1)")
# the see_* errors of psi 0, 1, 144 and 300 at b_paths=1 and d_max_ms=12
SEE_ERRORS = [
    "psi 0 outside [1, 500]",
    "no feasible density for psi=1: reduced budget 0.009681 s, fiber-miss "
    "term 0.009224 s, searched [5e-06, 5e-05] per m^2",
    "no feasible density for psi=144: reduced budget 0.009681 s, "
    "fiber-miss term 0.002957 s, searched [5e-06, 5e-05] per m^2",
    None]


@pytest.mark.parametrize("bounds_first", [True, False])
def test_psi_sweep_error_cell_holds_the_last_failure(capsys, bounds_first):
    # delay_lower_bound fails on every row, the see_* targets where psi is
    # 0 or skipped: the error cell names whichever failed last
    see = ["see_multipath", "see_single"]
    targets = ["delay_lower_bound"] + see if bounds_first else (
        see + ["delay_lower_bound"])
    code, out, _ = run_cli(capsys, "sweep", "psi", "--values", "0,1,144,300",
                           "--targets", ",".join(targets),
                           "--param", "b_paths=1", "--param", "d_max_ms=12")
    assert code == 0
    rows = parse_csv(out)
    assert [r["error"] for r in rows] == (
        [e or BOUNDS_ERROR for e in SEE_ERRORS] if bounds_first
        else [BOUNDS_ERROR] * 4)
    assert all(r["delay_lower_bound"] == "nan" for r in rows)
    assert [r["see_single"] for r in rows] == [
        "nan", "nan", "nan", "2585951.5234037484"]


def test_every_target_is_a_psi_column():
    # a psi sweep evaluates each target once: one that reads no cache
    # size on the shared context, a see_* one in one array pass, and any
    # other on the grid's sizes as one array, which it must return
    ctx = cli._build_context(cli._parser().parse_args(
        ["sweep", "psi", "--values", "1", "--targets", "e_sys"]),
        (None, None))
    sizes = np.array([0, 1, 144, 500])
    free = {t for t, (_, reads) in cli.TARGETS.items() if "psi" not in reads}
    arrays = set(cli.TARGETS) - free - set(cli._SEE_SCHEMES)
    assert arrays == {"p_in_edc", "fiber_link_delay",
                      "total_latency_multipath", "e_sys"}
    for t in free:
        assert isinstance(cli.TARGETS[t][0](replace(ctx, psi=None)), float)
    for t in arrays:
        column = cli.TARGETS[t][0](replace(ctx, psi=sizes))
        assert column.shape == sizes.shape
        assert column.tolist() == [cli.TARGETS[t][0](replace(ctx, psi=psi))
                                   for psi in sizes.tolist()]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("params,values,failing", [
    # no backhaul slot ever succeeds: every target that reads the backhaul
    # fails at every size, and so does each see_* target
    (["--param", "theta4_dbm=200"], "0,10,144,500", [0, 10, 144, 500]),
    # rounding would carry the full library's running sum past 1; it is
    # clamped there, so total_latency serves psi 9 too
    (["--param", "beta=0", "--param", "k_total=9"], "0,3,8,9", [])],
    ids=["theta4", "beta0"])
def test_psi_sweep_with_failing_targets_equals_the_reference(
        capsys, params, values, failing, fmt):
    argv = (["sweep", "psi", "--values", values, "--targets",
             ",".join(cli.TARGETS), "--format", fmt] + params)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines(keepends=True) == (
        _reference_sweep(argv).splitlines(keepends=True))
    rows = json.loads(out) if fmt == "json" else parse_csv(out)
    assert [int(float(r["psi"])) for r in rows
            if math.isnan(float(r["total_latency_multipath"]))] == failing


def test_full_library_has_a_finite_latency(capsys):
    # q sums pairwise and cum in order: without the clamp at 1, psi 9
    # read 1.0000000000000002, which total_latency rejects
    code, out, err = run_cli(capsys, "sweep", "psi", "--values", "9",
                             "--targets", "total_latency_multipath",
                             "--param", "beta=0", "--param", "k_total=9")
    assert (code, err) == (0, "")
    [row] = parse_csv(out)
    assert math.isfinite(float(row["total_latency_multipath"]))
    assert row["error"] == ""


@pytest.mark.parametrize("sweep", [
    ("psi", "--values", "1,500"),
    ("lambda_e", "--values", "1e5,1e6", "--param", "psi=500")])
def test_array_energy_overflows_to_inf_without_a_warning(capsys, sweep):
    # a row's Python float arithmetic overflows to inf silently; so does
    # an array column, here under the suite's error::RuntimeWarning
    code, out, err = run_cli(capsys, "sweep", *sweep, "--targets", "e_sys",
                             "--param", "lambda_e=1e6", "--param",
                             "lambda_s=1e7", "--param", "e_storage=1e300")
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    assert [r["e_sys"] for r in rows][-1] == "inf"
    assert all(r["error"] == "" for r in rows)


def test_every_target_is_a_density_column():
    # a density sweep evaluates each target once: one that reads no edge
    # density on one row's context, any other on the rows' densities as
    # one array, which it must return
    # (backhaul_delay_bmax's path count runs from 1 to its cap of 16)
    args = cli._parser().parse_args(
        ["sweep", "lambda_e", "--values", "1e-5", "--targets", "e_sys",
         "--param", "r_max=400", "--param", "b_paths=1",
         "--param", "lambda_m=1e-6"])
    ctx = cli._build_context(args, (None, None))
    densities = np.array([2.5e-6, 6e-6, 1e-5, 2.2e-5, 4.9e-5])
    free = {t for t, (_, reads) in cli.TARGETS.items()
            if "lambda_e" not in reads}
    arrays = set(cli.TARGETS) - free
    assert arrays == {"backhaul_delay_multipath", "backhaul_delay_single",
                      "backhaul_gain", "backhaul_delay_bmax",
                      "total_latency_multipath", "e_sys"}
    rows = [replace(ctx, scenario=ctx.scenario.with_params(lambda_e=lam))
            for lam in densities.tolist()]
    for t in free:
        assert len({repr(cli._cell(t, row)) for row in rows}) == 1
    for t in arrays:
        column = cli.TARGETS[t][0](replace(ctx, lambda_e=densities))
        assert column.shape == densities.shape
        assert column.tolist() == [cli.TARGETS[t][0](row) for row in rows]


# per km^2: lambda_m, lambda_s, the disc floor b_paths / (pi r_max^2) at
# b_paths 4 and 8 and r_max 500, and either side of each
_DENSITY_EDGES = [1.0, 4.9, 5.0, 5.0000001, 5.09, 5.1, 6.0, 10.18, 10.2,
                  20.0, 49.0, 49.999, 50.0, 60.0]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(densities=st.sets(st.one_of(st.sampled_from(_DENSITY_EDGES),
                                   st.floats(0.5, 80.0)),
                         min_size=1, max_size=12),
       descending=st.booleans(),
       per_km2=st.booleans(),
       targets=st.lists(st.sampled_from(sorted(cli.TARGETS)), min_size=1,
                        max_size=8),
       params=st.lists(st.sampled_from(
           ["b_paths=1", "b_paths=8", "r_max=250", "r_max=1000",
            "theta4_dbm=200", "d_max_ms=12", "psi=0", "psi=500"]),
           max_size=3, unique=True),
       fmt=st.sampled_from(["csv", "json"]))
def test_density_sweep_equals_row_wise_reference_property(
        densities, descending, per_km2, targets, params, fmt):
    # either key that sets the edge density; grids in either order that
    # cross lambda_m, lambda_s and the disc floor, so some rows fail to
    # build; path counts of 1 (the bounds fail) to past 16 for
    # backhaul_delay_bmax (r_max 250 to 1000); a link that never succeeds;
    # repeated targets in any order
    grid = sorted(densities, reverse=descending)
    values = [repr(v if per_km2 else v / 1e6) for v in grid]
    argv = ["sweep", "lambda_e_per_km2" if per_km2 else "lambda_e",
            "--values", ",".join(values), "--targets", ",".join(targets),
            "--format", fmt]
    for kv in params:
        argv += ["--param", kv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == _reference_sweep(argv)


def test_density_sweep_derives_the_backhaul_once(capsys, monkeypatch):
    # every row's density goes into one array call per target, so the
    # backhaul coefficient is derived as often for 2 rows as for 50 (at
    # r_max = 1000 m every row caps backhaul_delay_bmax at 16 paths)
    calls = collections.Counter()
    coeff = multipath.continuous_backhaul_coeff

    def counted(*args, **kwargs):
        calls[rows] += 1
        return coeff(*args, **kwargs)

    monkeypatch.setattr(multipath, "continuous_backhaul_coeff", counted)
    for rows in (2, 50):
        values = np.linspace(6.0, 49.0, rows).tolist()
        code, out, _ = run_cli(capsys, "sweep", "lambda_e_per_km2",
                               "--values", ",".join(map(repr, values)),
                               "--targets", ",".join(cli.TARGETS),
                               "--param", "r_max=1000")
        assert code == 0
        assert [r["error"] for r in parse_csv(out)] == [""] * rows
    assert calls[2] == calls[50] > 0


def _cell_bits(target, ctx):
    value, error = cli._cell(target, ctx)
    return np.float64(value).tobytes(), error


def _moved(ctx, field, factor):
    """``ctx`` with ``field`` scaled by ``factor`` (a zero flipped to the
    other sign), or ``None`` where the model then fails its checks."""
    if field == "psi":
        return replace(ctx, psi=int(ctx.psi * factor))
    model = "energy" if field in cli._ENERGY_FIELDS else "scenario"
    old = getattr(getattr(ctx, model), field)
    new = type(old)(old * factor) if old else -old
    try:
        return replace(ctx, **{model: replace(getattr(ctx, model),
                                              **{field: new})})
    except ScenarioError:
        return None


_FIELDS = sorted(cli._SCENARIO_FIELDS | cli._ENERGY_FIELDS | {"psi"})


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(params=st.lists(st.sampled_from(
           ["b_paths=1", "b_paths=8", "r_max=250", "r_max=1000",
            "theta4_dbm=200", "d_max_ms=1", "d_max_ms=12", "psi=0",
            "psi=500", "lambda_e_per_km2=6", "lambda_e_per_km2=45", "beta=0",
            "alpha1=6", "e_em_e=1e9", "k_total=100"]),
           max_size=3, unique=True),
       factor=st.sampled_from([0.5, 0.9, 1.1, 2.0, 16.0]))
def test_each_target_reads_only_its_declared_fields_property(params, factor):
    # a sweep copies the cell of a target that reads no swept field to
    # every row, so moving any field outside the target's reads must keep
    # its value bits and its error text
    argv = ["sweep", "psi", "--values", "1", "--targets", "e_sys"]
    for kv in params:
        argv += ["--param", kv]
    try:
        ctx = cli._build_context(cli._parser().parse_args(argv), (None, None))
    except ScenarioError:
        assume(False)
    cells = {t: _cell_bits(t, ctx) for t in cli.TARGETS}
    for field in _FIELDS:
        moved = _moved(ctx, field, factor)
        for t, (_, reads) in cli.TARGETS.items():
            if moved is not None and field not in reads:
                assert _cell_bits(t, moved) == cells[t], (t, field)


def test_every_field_is_a_model_field():
    # a declared field that no model has would never be swept
    for t, (_, reads) in cli.TARGETS.items():
        assert reads <= set(_FIELDS), t
    assert not cli._SCENARIO_FIELDS & cli._ENERGY_FIELDS


# the inverse of each unit conversion that is not a scale factor
_FROM_SI = {dbm_to_watt: watt_to_dbm, db_to_linear: linear_to_db}
_KEYS = {**SCENARIO_KEYS, **ENERGY_KEYS}


def _default_value(key):
    """The default of a config key's field, in the key's own units."""
    field, to_si = _KEYS[key]
    model = load_energy_model() if key in ENERGY_KEYS else load_scenario()
    default = getattr(model, field)
    if to_si in _FROM_SI:
        return _FROM_SI[to_si](default)
    return default / to_si(1.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(sorted(_KEYS)),
       factors=st.sets(st.sampled_from(
           [0.25, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, 4.0]),
           min_size=1, max_size=4),
       descending=st.booleans(),
       targets=st.lists(st.sampled_from(sorted(cli.TARGETS)), min_size=1,
                        max_size=8),
       params=st.lists(st.sampled_from(
           ["b_paths=1", "theta4_dbm=200", "d_max_ms=12", "psi=0",
            "psi=500"]), max_size=2, unique=True),
       fmt=st.sampled_from(["csv", "json"]))
def test_value_sweep_equals_row_wise_reference_property(
        key, factors, descending, targets, params, fmt):
    # any scenario or energy key, on a short grid around its default (a
    # whole-number key's fractional values fail their rows); repeated
    # targets in any order
    base = _default_value(key) or 1.0
    grid = sorted((base * f for f in factors), reverse=descending)
    argv = ["sweep", key, "--values=" + ",".join(map(repr, grid)),
            "--targets", ",".join(targets), "--format", fmt]
    for kv in params:
        argv += ["--param", kv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == _reference_sweep(argv)


def test_value_sweep_evaluates_a_target_once_where_it_reads_no_key(
        capsys, monkeypatch):
    # the bounds read no delay budget, so a d_max_ms sweep evaluates them
    # as often for 2 rows as for 50
    calls = collections.Counter()
    bounds = multipath.delay_bounds

    def counted(*args, **kwargs):
        calls[rows] += 1
        return bounds(*args, **kwargs)

    monkeypatch.setattr(multipath, "delay_bounds", counted)
    for rows in (2, 50):
        values = np.linspace(20.0, 40.0, rows).tolist()
        code, out, _ = run_cli(capsys, "sweep", "d_max_ms",
                               "--values", ",".join(map(repr, values)),
                               "--targets", ",".join(cli.TARGETS))
        assert code == 0
        assert [r["error"] for r in parse_csv(out)] == [""] * rows
    assert calls[2] == calls[50] == 2


@pytest.mark.parametrize("sweep", [
    ("lambda_e_per_km2", "--values", "6,10,49"),
    ("d_max_ms", "--values", "12,20")])
def test_scalar_backhaul_overflows_to_inf_without_a_warning(capsys, sweep):
    # the bounds' one-path delay at a scalar density overflows to inf
    # silently, as an array column does, here under the suite's
    # error::RuntimeWarning
    code, out, err = run_cli(capsys, "sweep", *sweep, "--targets",
                             "delay_upper_bound", "--param", "tau_mmw=1e304")
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    assert [r["delay_upper_bound"] for r in rows] == ["inf"] * len(rows)
    assert all(r["error"] == "" for r in rows)


def test_bounds_and_path_count_hold_at_a_huge_r_max(capsys):
    # the scenario accepts r_max = 2e156, where r_max ** 2 would raise;
    # r_max * r_max overflows to inf, so the lower bound reads 0
    code, out, err = run_cli(capsys, "sweep", "r_max", "--values",
                             "1e3,2e156", "--targets",
                             "delay_lower_bound,backhaul_delay_bmax")
    assert (code, err) == (0, "")
    first, last = parse_csv(out)
    assert (last["delay_lower_bound"], last["error"]) == ("0", "")
    assert last["backhaul_delay_bmax"] == first["backhaul_delay_bmax"]


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


@pytest.mark.parametrize("document", [
    "# a full document\nlambda_m_per_km2 = 5\nalpha1: 3.6\nb_paths = 3\n"
    "theta1_dbm = -85\np_u_dbm = 23  # the user's power\n",
    "b_paths = 2\nfrobnication = 1\n",  # an unknown key: warns per row
    "b_paths = 2\nalpha1 3.5\n",  # no separator
    "alpha1 = steep\n",  # not numeric
])
@pytest.mark.parametrize("sweep", ["density", "beta"])
def test_swept_config_run_equals_a_fresh_parse_per_row(tmp_path, capsys,
                                                        monkeypatch, sweep,
                                                        document):
    # the document's lines are split once per run; every row still looks
    # each key up, so its bytes, warnings turned errors included, are
    # those of a row that parses the document afresh
    doc = tmp_path / "scenario.cfg"
    doc.write_text(document)
    argv = [*SWEEPS[sweep], "--targets", ",".join(cli.TARGETS),
            "--config", str(doc)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    monkeypatch.setattr(scenario, "_entries", scenario._entries.__wrapped__)
    assert out == _reference_sweep(argv)


def test_swept_config_warns_in_every_row(tmp_path, capsys):
    doc = tmp_path / "scenario.cfg"
    doc.write_text("frobnication = 1\n")
    with pytest.warns(UserWarning, match="frobnication") as record:
        code, out, _ = run_cli(capsys, *SWEEPS["density"], "--targets",
                               "e_sys", "--config", str(doc))
    assert code == 0
    assert len(record) == len(parse_csv(out)) == 3


def test_sweep_over_energy_key_moves_e_sys(capsys):
    # each row builds its own energy model from the swept value
    values = (4e6, 8e6, 1.6e7)
    code, out, _ = run_cli(capsys, "sweep", "e_storage", "--values",
                           ",".join(map(str, values)), "--targets", "e_sys")
    assert code == 0
    s = load_scenario()
    e_sys = [float(r["e_sys"]) for r in parse_csv(out)]
    assert e_sys == [system_energy(s, load_energy_model(
        None, {"e_storage": v}), cli.DEFAULT_PSI).total for v in values]
    assert e_sys[0] < e_sys[1] < e_sys[2]


@pytest.mark.parametrize("sweep", ["density", "beta"])
def test_sweep_over_scenario_key_builds_one_energy_model(capsys, monkeypatch,
                                                         sweep):
    built = []

    def counted_load(*args):
        built.append(args)
        return load_energy_model(*args)

    monkeypatch.setattr(cli, "load_energy_model", counted_load)
    code, out, _ = run_cli(capsys, *SWEEPS[sweep], "--targets", "e_sys",
                           "--param", "e_storage=1.6e7")
    assert code == 0 and len(built) == 1
    assert all(not r["error"] for r in parse_csv(out))


def test_invalid_energy_model_is_an_error_in_every_sweep_row(capsys):
    # the last row's scenario fails first, as when each row built both
    code, out, _ = run_cli_without_warnings(
        capsys, "sweep", "lambda_e_per_km2", "--values", "10,20,70",
        "--targets", "e_sys", "--param", "e_storage=-1")
    assert code == 0
    errors = [r["error"] for r in parse_csv(out)]
    assert errors[:2] == ["constraint violated: e_storage >= 0"] * 2
    assert "lambda_e" in errors[2] and "e_storage" not in errors[2]


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


def test_unconverged_beta_fraction_is_a_named_error(monkeypatch, capsys):
    # one step is too few for the delivery stage's continued fraction: a
    # sweep holds the error in its row, optimize stops on it
    monkeypatch.setattr(numerics, "_MAX_CF_STEPS", 1)
    clear_memos()
    message = "incomplete Beta continued fraction did not converge"
    code, out, _ = run_cli(capsys, "sweep", "theta2_db", "--values", "0",
                           "--targets", "deli_delay")
    assert code == 0
    [row] = parse_csv(out)
    assert math.isnan(float(row["deli_delay"])) and message in row["error"]
    code, out, err = run_cli(capsys, "optimize")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")


# at large thresholds the uplink and access stages integrate past the knee
# of the distance average: the QUADPACK quadrature printed 3.5e30 s,
# 9.9e109 s and "never succeeds" for the access sweep and 2.3e17 s and
# 1.1e67 s for the uplink one
@pytest.mark.parametrize("argv,target,expected", [
    (("sweep", "theta3_dbm", "--values", "30,35,40,45"), "access_delay",
     ("0.2608", "0.8246", "2.6076", "8.2460")),
    (("sweep", "theta1_dbm", "--values=-10,-5,0,5"), "uplink_delay",
     ("0.0491", "0.0929", "0.1775", "0.3408")),
])
def test_stage_delay_sweep_at_large_thresholds(capsys, argv, target,
                                               expected):
    code, out, _ = run_cli_without_warnings(capsys, *argv, "--targets",
                                            target)
    assert code == 0
    rows = parse_csv(out)
    assert [r["error"] for r in rows] == [""] * 4
    assert [format(float(r[target]), ".4f") for r in rows] == list(expected)


def test_validate_access_at_a_large_threshold_passes(capsys):
    # the analytic access success is 3.14e-5 at 40 dBm; QUADPACK's 8.3e-115
    # failed this row at 1e6 trials
    code, out, _ = run_cli_without_warnings(
        capsys, "validate", "--trials", "1000000", "--param",
        "theta3_dbm=40")
    access = {r["check"]: r for r in parse_csv(out)}["access_success"]
    assert float(access["analytic"]) == pytest.approx(3.14e-5, rel=1e-3)
    assert access["passed"] == "True"
    assert code == 0


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


def test_validate_rejects_negative_seed(capsys):
    # numpy seeds only from non-negative entropy: a usage error, not
    # eight failed rows
    code, out, err = run_cli(capsys, "validate", "--trials", "2000",
                             "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: --seed must be >= 0, got -1\n"


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


@pytest.mark.parametrize("param,error", [
    ("buffer_omega_mb=1e300", "packets on a path"),
    ("packet_l=1e-300", "packets on a path"),
    # 1.8e18 packets: a path's slot total, not its packet count, outgrows
    # an int64 at the default per-slot success of 0.135
    ("buffer_omega_mb=1.76e15", "at a per-slot success probability"),
    ("tau_mmw_us=1e160", "")])
def test_validate_simulator_row_at_extreme_sizes(capsys, param, error):
    # a count an int64 cannot hold is a named error before numpy casts or
    # sums it; a huge slot length scales a mean and standard error taken
    # in slots, so nothing squares a huge delay
    code, out, _ = run_cli_without_warnings(
        capsys, "validate", "--trials", "200", "--param", param)
    row = {r["check"]: r for r in parse_csv(out)}["backhaul_simulator"]
    if error:
        assert code == 3
        assert row["error"].startswith(
            "backhaul stage can never complete in the simulator")
        assert error in row["error"] and "int64 count holds" in row["error"]
    else:
        assert code == 0
        assert row["error"] == "" and row["passed"] == "True"
        assert 0.0 < float(row["std_error"]) < math.inf


def test_validate_passes_at_a_one_packet_buffer(capsys):
    # one whole packet per transfer: the integer-hop closed form sends it
    # over one path, as the simulator does, not a share of it over each
    assert multipath.buffer_packets(
        load_scenario(overrides={"buffer_omega_mb": 0.0005})) == 1
    code, out, _ = run_cli_without_warnings(
        capsys, "validate", "--trials", "2000",
        "--param", "buffer_omega_mb=0.0005")
    assert code == 0
    row = {r["check"]: r for r in parse_csv(out)}["backhaul_simulator"]
    assert float(row["analytic"]) == pytest.approx(7.400e-5, rel=1e-3)
    assert row["passed"] == "True"


def test_validate_reads_one_rare_failure_by_its_binomial_mid_p(capsys):
    # one uplink failure in 1e5 trials at an analytic failure probability
    # of 8.27e-9, which has probability 8.3e-4: the mid-p z reads -3.34
    # (the normal approximation read -34.7), so the row still fails its
    # |z| <= 3 gate
    code, out, err = run_cli_without_warnings(
        capsys, "validate", "--trials", "100000", "--seed", "920")
    uplink = {r["check"]: r for r in parse_csv(out)}["uplink_success"]
    assert float(uplink["estimate"]) == 0.99999
    assert float(uplink["deviation"]) == pytest.approx(-3.3436, abs=1e-4)
    assert uplink["passed"] == "False"
    assert code == 3
    assert err == ""


def test_geometry_rows_share_one_ordered_draw(capsys, monkeypatch):
    # one draw at k = 3 serves all three rows; its j-th row is the last
    # row of a draw at k = j
    s = load_scenario()
    expected = [montecarlo.mean_estimate(
        montecarlo.nearest_distances(s.lambda_e, p, 3000, 9)[-1])
        for p in (1, 2, 3)]
    calls = []
    draw = montecarlo.nearest_distances

    def recording(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(montecarlo, "nearest_distances", recording)
    code, out, _ = run_cli(capsys, "validate", "--trials", "3000",
                           "--seed", "9")
    rows = {r["check"]: r for r in parse_csv(out)}
    assert calls == [(s.lambda_e, 3, 3000, 9)]
    for p, est in zip((1, 2, 3), expected):
        row = rows[f"kth_nearest_distance_p{p}"]
        assert float(row["estimate"]) == est.mean
        assert float(row["std_error"]) == est.std_error
    assert code == 0


def test_failing_geometry_draw_fails_each_geometry_row(capsys, monkeypatch):
    def failing(*args):
        raise MemoryError("cannot hold the draw")

    monkeypatch.setattr(montecarlo, "nearest_distances", failing)
    code, out, _ = run_cli(capsys, "validate", "--trials", "3000",
                           "--seed", "9")
    rows = {r["check"]: r for r in parse_csv(out)}
    geometry = [f"kth_nearest_distance_p{p}" for p in (1, 2, 3)]
    assert all(rows[name]["error"] == "cannot hold the draw"
               and rows[name]["passed"] == "False" for name in geometry)
    assert all(r["passed"] == "True" for name, r in rows.items()
               if name not in geometry)
    assert code == 3


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
