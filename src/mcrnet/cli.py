"""Command-line front door: parameter sweeps, optimisation, validation.

Three subcommands:

``sweep``     one row per grid value of a swept parameter, any number of
              target quantities per row (plot-ready CSV or JSON).
``optimize``  run the two-step cache-size / edge-density search and
              report the feasible set and the minimum-energy pair.
``validate``  run every analytic-vs-Monte-Carlo comparison and report
              z-scores.

Exit codes: 0 success, 1 usage or config error, 2 infeasible
optimisation, 3 validation failures present.
"""

import argparse
import csv
import functools
import io
import json
import math
import pathlib
import sys
from dataclasses import dataclass, replace

from . import latency, montecarlo, multipath, optimizer
from .energy import ENERGY_KEYS, load_energy_model, system_energy
from .multipath import MULTIPATH, SCHEMES, SINGLE_PATH
from .numerics import NumericsError
from .popularity import hit_probability, zipf
from .scenario import (SCENARIO_KEYS, ScenarioError, load_scenario,
                       scenario_hash)

DEFAULT_PSI = 144
# rows of optimize's CSV formatted and written at a time
_CSV_BLOCK_ROWS = 4096


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunContext:
    """Scenario, energy model (``None`` for ``validate``, which reads
    none) and cache size used to evaluate targets."""

    scenario: object
    energy: object
    psi: int


def _p_hit(ctx):
    return hit_probability(
        zipf(ctx.scenario.beta, ctx.scenario.k_total), ctx.psi)


def _fiber_miss(ctx):
    return latency.fiber_delay(ctx.scenario) * (1.0 - _p_hit(ctx))


def _see(ctx, scheme):
    """Service effective energy at the critical density for this cache
    size: the delay budget binds exactly, so the QoS gate is 1 and the
    value is the system energy of the cheapest feasible deployment, the
    ``e_sys`` that ``optimize`` reports for this cache size."""
    s = ctx.scenario
    budget = optimizer.reduced_delay_budget(s)
    pair = optimizer.critical_edc_density(s, ctx.psi, budget, scheme)
    if pair is None:
        lo, hi = multipath.density_bracket(s)
        raise RuntimeError(
            f"no feasible density for psi={ctx.psi}: reduced budget "
            f"{budget:.4g} s, fiber-miss term {_fiber_miss(ctx):.4g} s, "
            f"searched [{lo:.4g}, {hi:.4g}] per m^2")
    return system_energy(s, ctx.energy, ctx.psi,
                         lambda_e=pair.lambda_e_crit).total


TARGETS = {
    "p_in_edc": _p_hit,
    "fiber_delay": lambda ctx: latency.fiber_delay(ctx.scenario),
    "fiber_link_delay": _fiber_miss,
    "uplink_delay": lambda ctx: latency.uplink_request_delay(ctx.scenario),
    "deli_delay": lambda ctx: latency.deli_delay(ctx.scenario),
    "access_delay": lambda ctx: latency.access_delay(ctx.scenario),
    "backhaul_delay_multipath":
        lambda ctx: multipath.multipath_backhaul_delay(ctx.scenario),
    "backhaul_delay_single":
        lambda ctx: multipath.single_path_backhaul_delay(ctx.scenario),
    "backhaul_gain":
        lambda ctx: (multipath.single_path_backhaul_delay(ctx.scenario)
                     - multipath.multipath_backhaul_delay(ctx.scenario)),
    "backhaul_delay_bmax":
        lambda ctx: multipath.multipath_backhaul_delay(
            ctx.scenario,
            b=min(multipath.max_cooperative_paths(
                ctx.scenario.lambda_e, ctx.scenario.r_max), 16)),
    "delay_lower_bound":
        lambda ctx: multipath.delay_bounds(ctx.scenario)[0],
    "delay_upper_bound":
        lambda ctx: multipath.delay_bounds(ctx.scenario)[1],
    "total_latency_multipath":
        lambda ctx: latency.total_latency(
            ctx.scenario, _p_hit(ctx),
            multipath.multipath_backhaul_delay(ctx.scenario)).total,
    "e_sys":
        lambda ctx: system_energy(ctx.scenario, ctx.energy, ctx.psi).total,
    "see_multipath": lambda ctx: _see(ctx, MULTIPATH),
    "see_single": lambda ctx: _see(ctx, SINGLE_PATH),
}


def _parse_psi(value):
    """Cache size from the command line: a whole number of contents."""
    try:
        psi = float(value)
    except ValueError as exc:
        raise UsageError(f"psi must be a number, got {value!r}") from exc
    if not psi.is_integer():
        raise UsageError(f"psi must be a whole number, got {value!r}")
    return int(psi)


def _read_document(path):
    if path is None:
        return None
    try:
        return pathlib.Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}") from None


def _documents(args):
    """The ``--config`` and (but for ``validate``) ``--energy`` texts.

    Each command reads them once, before any row, so an unreadable
    document fails the command (exit 1), never a row.
    """
    energy = None if args.command == "validate" else args.energy
    return _read_document(args.config), _read_document(energy)


def _build_context(args, documents, sweep_override=None):
    """The run's scenario, energy model and cache size: the
    ``documents`` (from :func:`_documents`), then each ``--param`` key,
    then the swept key.

    Every command reads the scenario keys, ``sweep`` and ``optimize`` the
    energy keys too, and only ``sweep`` reads ``psi``; any other key is a
    ``UsageError`` naming the command and the key.
    """
    reads_energy = args.command != "validate"
    scenario_overrides, energy_overrides, psi = {}, {}, DEFAULT_PSI
    params = args.params + ([sweep_override] if sweep_override else [])
    for key, value in params:
        if key in SCENARIO_KEYS:
            scenario_overrides[key] = value
        elif reads_energy and key in ENERGY_KEYS:
            energy_overrides[key] = value
        elif key == "psi" and args.command == "sweep":
            psi = _parse_psi(value)
        else:
            raise UsageError(f"{args.command} reads no key {key!r}")
    config, energy = documents
    s = load_scenario(config, scenario_overrides)
    em = load_energy_model(energy, energy_overrides) if reads_energy else None
    return RunContext(scenario=s, energy=em, psi=psi)


def _fmt_value(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _csv_text(rows):
    """Lines of CSV, each row's cells quoted as ``csv.writer`` needs."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _emit(rows, columns, fmt, out):
    if fmt == "json":
        _write([json.dumps(rows, indent=2) + "\n"], out)
    else:
        _write([_csv_text([columns] + [[_fmt_value(row.get(c, ""))
                                        for c in columns] for row in rows])],
               out)


def _write(chunks, out):
    """Write each text of ``chunks`` in turn, so a generator of blocks
    never holds the whole output."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            for text in chunks:
                fh.write(text)
    else:
        for text in chunks:
            sys.stdout.write(text)


def _metadata(ctx):
    assumed = ctx.scenario.assumed_defaults
    if ctx.energy is not None:
        assumed += ctx.energy.assumed_defaults
    return {"scenario_hash": scenario_hash(ctx.scenario),
            "assumed_defaults": ";".join(assumed)}


def cmd_sweep(args):
    try:
        grid = tuple(float(v) for v in args.values.split(","))
    except ValueError:
        raise UsageError(f"--values expects comma-separated numbers, "
                         f"got {args.values!r}") from None
    diffs = [b - a for a, b in zip(grid, grid[1:])]
    if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise UsageError("sweep grid must be strictly monotone")
    param, targets = args.sweep_param, args.targets.split(",")
    unknown = [t for t in targets if t not in TARGETS]
    if unknown:
        raise UsageError(
            f"unknown targets {unknown}; available: {sorted(TARGETS)}")
    documents = _documents(args)
    if param == "psi":
        # the grid moves only the cache size: every row shares one context
        # and its metadata, and every value is checked against its
        # scenario before any row is evaluated
        base = _build_context(args, documents)
        base_meta = _metadata(base)
        k_total = base.scenario.k_total
        for value in grid:
            psi = _parse_psi(value)
            if not 0 <= psi <= k_total:
                raise UsageError(f"psi {psi} outside [0, {k_total}]")

    def context(value):
        if param == "psi":
            return replace(base, psi=_parse_psi(value)), base_meta
        ctx = _build_context(args, documents, sweep_override=(param, value))
        return ctx, _metadata(ctx)

    def one_row(value):
        row = {param: value, "error": ""}
        try:
            ctx, meta = context(value)
        except UsageError:
            raise
        except Exception as exc:  # row-level failure, run continues
            row["error"] = str(exc)
            for t in targets:
                row[t] = math.nan
            return row
        row.update(meta)
        for t in targets:
            try:
                row[t] = float(TARGETS[t](ctx))
            except Exception as exc:
                row[t] = math.nan
                row["error"] = str(exc)
        return row

    rows = [one_row(v) for v in grid]
    columns = [param] + targets + ["scenario_hash", "assumed_defaults",
                                   "error"]
    _emit(rows, columns, args.format, args.out)
    return 0


def cmd_optimize(args):
    ctx = _build_context(args, _documents(args))
    meta = _metadata(ctx)
    try:
        outcome = optimizer.optimize_cache_density(
            ctx.scenario, ctx.energy, scheme=args.scheme)
    except optimizer.NoFeasiblePairError as exc:
        report = {"feasible": False, "reduced_budget": exc.budget,
                  "message": str(exc), **meta}
        _emit([report], list(report), args.format, args.out)
        return 2

    columns = {
        "psi": outcome.psi,
        "lambda_e_crit": outcome.lambda_e_crit,
        "lambda_e_crit_per_km2": [v * 1e6 for v in outcome.lambda_e_crit],
        "e_sys": outcome.e_sys,
        "residual": outcome.residual,
        "at_lower_bound": outcome.at_lower_bound,
        "is_best": [psi == outcome.best_pair.psi for psi in outcome.psi],
    }
    if args.format == "json":
        rows = [dict(zip(columns, values), **meta)
                for values in zip(*columns.values())]
        payload = [{
            "best": rows[outcome.psi.index(outcome.best_pair.psi)],
            "e_sys_min": outcome.e_sys_min,
            "scheme": args.scheme,
            "skipped_psi": list(outcome.skipped_psi),
            "feasible_set": rows,
            **meta,
        }]
        _emit(payload, [], "json", args.out)
        return 0
    # every row ends in the same metadata cells and every cell of a
    # column has one type, so each column slice of a block of rows is
    # formatted at once and only one block is held as text
    tail = _csv_text([list(meta.values())])

    def blocks():
        yield _csv_text([list(columns) + list(meta)])
        for start in range(0, len(outcome.psi), _CSV_BLOCK_ROWS):
            cells = [[format(v, ".17g") for v in block]
                     if isinstance(block[0], float)
                     else [str(v) for v in block]
                     for block in (col[start:start + _CSV_BLOCK_ROWS]
                                   for col in columns.values())]
            yield "".join(f"{','.join(row)},{tail}" for row in zip(*cells))

    _write(blocks(), args.out)
    return 0


def _validation_rows(ctx, trials, seed):
    s = ctx.scenario

    def geometry(p):
        def run():
            ref = multipath.mean_kth_edc_distance(s.lambda_e, p)
            est = montecarlo.estimate_kth_nearest(
                s.lambda_e, p, min(trials, 200_000), seed)
            return ref, est, est.z_score(ref)
        return f"kth_nearest_distance_p{p}", "|z| <= 3", 3.0, run

    def success(name, analytic_fn, oracle_fn):
        def run():
            analytic = analytic_fn(s)
            est = oracle_fn(s, trials, seed)
            return analytic, est, montecarlo.proportion_z(est, analytic)
        return name, "|z| <= 3", 3.0, run

    def simulator():
        # packet simulator against the integer-hop closed form
        est = montecarlo.simulate_backhaul(s, MULTIPATH,
                                           trials=min(trials, 2000), seed=seed)
        analytic = multipath.multipath_backhaul_delay(s, multipath.EXACT_CEIL)
        return analytic, est, abs(est.mean - analytic) / analytic

    checks = [geometry(p) for p in (1, 2, 3)] + [
        success("uplink_success", latency.uplink_success_prob,
                montecarlo.estimate_uplink_success),
        success("deli_success", latency.deli_success_prob,
                montecarlo.estimate_deli_success),
        success("access_success", latency.access_success_prob,
                montecarlo.estimate_access_success),
        success("shadowing_success", multipath.mmwave_success_prob,
                montecarlo.estimate_shadowing_success),
        ("backhaul_simulator", "rel <= 5%", 0.05, simulator),
    ]
    meta = _metadata(ctx)

    def evaluate(name, criterion, bound, run):
        row = {"check": name, "criterion": criterion, "error": ""}
        try:
            analytic, est, deviation = run()
            row.update(analytic=analytic, estimate=est.mean,
                       std_error=est.std_error, n_samples=est.n_samples,
                       deviation=deviation, passed=abs(deviation) <= bound)
        except Exception as exc:
            row.update(analytic=math.nan, estimate=math.nan,
                       std_error=math.nan, n_samples=0, deviation=math.nan,
                       passed=False, error=str(exc))
        row.update(meta)
        return row

    return [evaluate(*check) for check in checks]


def cmd_validate(args):
    if args.trials < 2:
        # one trial has no standard error to hold a z-score to
        raise UsageError(f"--trials must be >= 2, got {args.trials}")
    ctx = _build_context(args, _documents(args))
    rows = _validation_rows(ctx, args.trials, args.seed)
    columns = ["check", "analytic", "estimate", "std_error", "n_samples",
               "criterion", "deviation", "passed", "error",
               "scenario_hash", "assumed_defaults"]
    _emit(rows, columns, args.format, args.out)
    return 0 if all(r["passed"] for r in rows) else 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_kv(raw):
    if "=" not in raw:
        raise UsageError(f"--param expects KEY=VALUE, got {raw!r}")
    key, _, value = raw.partition("=")
    return key.strip(), value.strip()


def build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--config", help="scenario config file")
    common.add_argument("--param", dest="params", action="append", default=[],
                        metavar="KEY=VALUE", type=_parse_kv,
                        help="override a config key the command reads")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", help="output path (default stdout)")

    parser = _Parser(prog="mcrnet", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="evaluate targets over a parameter grid")
    p_sweep.add_argument("sweep_param", help="config key to sweep (or psi)")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated grid values")
    p_sweep.add_argument("--targets", required=True,
                         help="comma-separated target quantities")

    p_opt = sub.add_parser("optimize", parents=[common],
                           help="two-step cache/density optimisation")
    p_opt.add_argument("--scheme", choices=SCHEMES, default=MULTIPATH)
    for p in (p_sweep, p_opt):
        p.add_argument("--energy", help="energy model config file")

    p_val = sub.add_parser("validate", parents=[common],
                           help="analytic vs Monte-Carlo comparison report")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--trials", type=int, default=100_000)
    return parser


@functools.cache
def _parser():
    # parsing leaves the parser unchanged (an appended --param list starts
    # from a copy of its default), so one per process serves every call
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "optimize":
            return cmd_optimize(args)
        return cmd_validate(args)
    except (UsageError, ScenarioError, NumericsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
