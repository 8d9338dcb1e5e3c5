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
import functools
import json
import math
import pathlib
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import latency, montecarlo, multipath, optimizer
from .energy import ENERGY_KEYS, load_energy_model, system_energy
from .multipath import MULTIPATH, SCHEMES, SINGLE_PATH
from .numerics import NumericsError
from .popularity import hit_probability, zipf
from .scenario import (SCENARIO_KEYS, ScenarioError, load_scenario,
                       scenario_hash)

DEFAULT_PSI = 144
# rows of CSV formatted and written at a time
_CSV_BLOCK_ROWS = 4096


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunContext:
    """Scenario, energy model (``None`` for ``validate``, which reads
    none), cache size and edge density (``None`` reads the scenario's)
    used to evaluate targets."""

    scenario: object
    energy: object
    psi: int
    lambda_e: float = None


def _p_hit(ctx):
    return hit_probability(
        zipf(ctx.scenario.beta, ctx.scenario.k_total), ctx.psi)


def _fiber_miss(ctx):
    return latency.fiber_delay(ctx.scenario) * (1.0 - _p_hit(ctx))


def _backhaul(ctx, b=None):
    return multipath.multipath_backhaul_delay(ctx.scenario, b=b,
                                              lambda_e=ctx.lambda_e)


def _backhaul_gain(ctx):
    single, multi = _backhaul(ctx, 1), _backhaul(ctx)
    # inf - inf is NaN without a warning, as Python floats make it
    with np.errstate(invalid="ignore"):
        return single - multi


def _bmax_backhaul(ctx):
    """The backhaul delay over as many paths as the density supports
    within ``r_max``, at most 16; an array of densities takes one call
    per distinct path count."""
    s, lam = ctx.scenario, ctx.lambda_e

    def paths(lambda_e):
        return min(multipath.max_cooperative_paths(lambda_e, s.r_max), 16)

    if lam is None:
        return _backhaul(ctx, paths(s.lambda_e))
    counts = np.array([paths(v) for v in lam.tolist()])
    delay = np.empty(lam.shape)
    for b in np.unique(counts).tolist():
        at = counts == b
        delay[at] = multipath.multipath_backhaul_delay(s, b=b,
                                                       lambda_e=lam[at])
    return delay


def _no_density(s, psi, budget, fiber_miss):
    """The error of a cache size that no density in the bracket serves."""
    lo, hi = multipath.density_bracket(s)
    return RuntimeError(
        f"no feasible density for psi={psi}: reduced budget "
        f"{budget:.4g} s, fiber-miss term {fiber_miss:.4g} s, "
        f"searched [{lo:.4g}, {hi:.4g}] per m^2")


def _see(ctx, scheme):
    """Service effective energy at the critical density for this cache
    size: the delay budget binds exactly, so the QoS gate is 1 and the
    value is the system energy of the cheapest feasible deployment, the
    ``e_sys`` that ``optimize`` reports for this cache size."""
    s = ctx.scenario
    budget = optimizer.reduced_delay_budget(s)
    pair = optimizer.critical_edc_density(s, ctx.psi, budget, scheme)
    if pair is None:
        raise _no_density(s, ctx.psi, budget, _fiber_miss(ctx))
    return system_energy(s, ctx.energy, ctx.psi,
                         lambda_e=pair.lambda_e_crit).total


# the fields each library quantity reads: "psi" or a field name of
# NetworkScenario or EnergyModel (the two models share no name)
_SCENARIO_FIELDS = frozenset(field for field, _ in SCENARIO_KEYS.values())
_ENERGY_FIELDS = frozenset(field for field, _ in ENERGY_KEYS.values())
_HIT = frozenset({"psi", "beta", "k_total"})
_FIBER = frozenset({"l_fiber", "v_fiber"})
_UPLINK = frozenset({"lambda_m", "nt_u", "nr_m", "theta1", "p_u", "alpha1",
                     "t_ul_req", "chi", "lambda_u", "mu"})
_DELIVERY = frozenset({"nt_m", "nr_e", "theta2", "alpha1", "t_dl_deli"})
_ACCESS = frozenset({"lambda_s", "nt_s", "nr_u", "theta3", "p_s", "alpha2",
                     "t_dl_as"})
# the continuous backhaul curve at a path count, and its r_max check
_CURVE = frozenset({"tau_mmw", "buffer_omega", "packet_l", "r_mmw",
                    "relay_coeff", "lambda_s", "p_s", "theta4", "n0", "w_mmw",
                    "sigma_db", "lambda_e", "r_max"})
_BOUNDS = _CURVE - {"lambda_e"} | {"b_paths", "lambda_m"}
_ENERGY = _ENERGY_FIELDS | {"psi", "k_total", "lambda_m", "lambda_s",
                            "lambda_e", "p_m", "p_s", "p_e"}
_LATENCY = _HIT | _FIBER | _UPLINK | _DELIVERY | _ACCESS | _CURVE | {"b_paths"}
# the see_* targets solve for their own density
_SEE = (_SCENARIO_FIELDS | _ENERGY_FIELDS | {"psi"}) - {"lambda_e"}

# each target's function and the fields it reads.  One that reads psi,
# but for the see_* targets, also takes a context whose psi is an int
# array of cache sizes, and one that reads lambda_e a context whose
# lambda_e is a float array of densities, and returns one value per entry
TARGETS = {
    "p_in_edc": (_p_hit, _HIT),
    "fiber_delay": (lambda ctx: latency.fiber_delay(ctx.scenario), _FIBER),
    "fiber_link_delay": (_fiber_miss, _FIBER | _HIT),
    "uplink_delay":
        (lambda ctx: latency.uplink_request_delay(ctx.scenario), _UPLINK),
    "deli_delay": (lambda ctx: latency.deli_delay(ctx.scenario), _DELIVERY),
    "access_delay": (lambda ctx: latency.access_delay(ctx.scenario), _ACCESS),
    "backhaul_delay_multipath": (_backhaul, _CURVE | {"b_paths"}),
    "backhaul_delay_single": (lambda ctx: _backhaul(ctx, 1), _CURVE),
    "backhaul_gain": (_backhaul_gain, _CURVE | {"b_paths"}),
    "backhaul_delay_bmax": (_bmax_backhaul, _CURVE),
    "delay_lower_bound":
        (lambda ctx: multipath.delay_bounds(ctx.scenario)[0], _BOUNDS),
    "delay_upper_bound":
        (lambda ctx: multipath.delay_bounds(ctx.scenario)[1], _BOUNDS),
    "total_latency_multipath":
        (lambda ctx: latency.total_latency(ctx.scenario, _p_hit(ctx),
                                           _backhaul(ctx)).total, _LATENCY),
    "e_sys": (lambda ctx: system_energy(ctx.scenario, ctx.energy, ctx.psi,
                                        lambda_e=ctx.lambda_e).total, _ENERGY),
    "see_multipath": (lambda ctx: _see(ctx, MULTIPATH), _SEE),
    "see_single": (lambda ctx: _see(ctx, SINGLE_PATH), _SEE),
}
_ARRAY_FIELDS = ("psi", "lambda_e")
_SEE_SCHEMES = {"see_multipath": MULTIPATH, "see_single": SINGLE_PATH}


def _cell(target, ctx):
    """``(value, error)`` of one target: its value and ``None``, or NaN
    and the message of what it raised."""
    try:
        return float(TARGETS[target][0](ctx)), None
    except Exception as exc:
        return math.nan, str(exc)


def _array_cells(target, ctx, n):
    """The ``_cell`` of a target at each of the ``n`` entries of a
    context's array field, from one evaluation on the whole array: its
    entries, or its error in every cell."""
    try:
        values = TARGETS[target][0](ctx)
    except Exception as exc:
        return [(math.nan, str(exc))] * n
    return [(v, None) for v in values.tolist()]


def _see_cells(ctx, target):
    """The ``_cell`` of a ``see_*`` target at each cache size of
    ``ctx.psi``, all in ``[0, k_total]``.

    The sizes from 1 share one ``optimizer._critical_energies`` pass,
    whose entries have the bits of ``_see``'s lone solves; psi 0 takes
    ``_see`` itself, which names it.
    """
    s, psi = ctx.scenario, ctx.psi
    solved = psi > 0
    try:
        budget = optimizer.reduced_delay_budget(s)
        _, _, status, e_sys = optimizer._critical_energies(
            s, ctx.energy, psi[solved], budget, _SEE_SCHEMES[target])
    except Exception as exc:
        # what _see raises at every size it would solve
        cells = [(math.nan, str(exc))] * np.count_nonzero(solved)
    else:
        fiber_miss = _fiber_miss(ctx)[solved].tolist()
        cells = [(math.nan, str(_no_density(s, p, budget, f)))
                 if st == optimizer._SKIPPED else (e, None)
                 for p, f, st, e in zip(psi[solved].tolist(), fiber_miss,
                                        status.tolist(), e_sys.tolist())]
    cells = iter(cells)
    return [next(cells) if p else _cell(target, replace(ctx, psi=0))
            for p in psi.tolist()]


def _columns(contexts, field, values, targets):
    """Each distinct target's ``_cell`` at every value of ``values`` of
    the swept ``field`` (psi or a model field), from ``contexts``: each
    row's, or over psi the one all rows share.  A target that reads no
    ``field`` is evaluated once on the first; over psi or ``lambda_e``
    any other is one array call, over any other field one per row."""
    first, n = contexts[0], len(values)
    if field in _ARRAY_FIELDS:
        swept = replace(first, **{field: np.array(values)})
    columns = {}
    for t in dict.fromkeys(targets):
        if field not in TARGETS[t][1]:
            columns[t] = [_cell(t, first)] * n
        elif field not in _ARRAY_FIELDS:
            columns[t] = [_cell(t, ctx) for ctx in contexts]
        elif t in _SEE_SCHEMES:
            columns[t] = _see_cells(swept, t)
        else:
            columns[t] = _array_cells(t, swept, n)
    return columns


def _row(param, value, meta, cells):
    """A sweep row: the swept value, the error cell, the metadata, then
    each ``(target, (value, error))`` of ``cells`` in turn; the error
    cell holds the message of the last target that failed."""
    row = {param: value, "error": "", **meta}
    for t, (v, error) in cells:
        row[t] = v
        if error is not None:
            row["error"] = error
    return row


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


def _overrides(args, sweep_override=None):
    """Scenario overrides, energy overrides and cache size: each
    ``--param`` key, then the swept key.

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
    return scenario_overrides, energy_overrides, psi


def _build_context(args, documents, sweep_override=None, energy=None):
    """The run's scenario, energy model and cache size: the
    ``documents`` (from :func:`_documents`), then the
    :func:`_overrides`.  ``energy``, when given, is used in place of
    building the energy model.
    """
    scenario_overrides, energy_overrides, psi = _overrides(args,
                                                           sweep_override)
    config, energy_text = documents
    s = load_scenario(config, scenario_overrides)
    if energy is None and args.command != "validate":
        energy = load_energy_model(energy_text, energy_overrides)
    return RunContext(scenario=s, energy=energy, psi=psi)


def _csv_quoted(text):
    # csv.writer's minimal quoting: a cell holding the delimiter, the
    # quote character or the line terminator
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_cells(cells):
    """The CSV text of each cell of one column block, as ``csv.writer``
    writes a float formatted ``.17g`` and any other value as ``str``.

    A column of floats formats each distinct value once, in one ``%``
    over a template (when no value repeats, those texts are the
    column's); 0.0 and -0.0 are one key, so a column that repeats a
    value and holds a zero formats its zeros on their own.  A column of
    strings quotes each distinct string once.
    """
    kinds = set(map(type, cells))
    if kinds == {float}:
        distinct = tuple(dict.fromkeys(cells))
        texts = ("%.17g," * len(distinct) % distinct).split(",")
        if len(distinct) == len(cells):
            return texts[:-1]
        texts = dict(zip(distinct, texts))
        out = list(map(texts.__getitem__, cells))
        if 0.0 in texts:
            out = [t if v else "%.17g" % v for t, v in zip(out, cells)]
        return out
    if kinds <= {int, bool}:
        return [str(v) for v in cells]
    if kinds == {str}:
        texts = {v: _csv_quoted(v) for v in dict.fromkeys(cells)}
        return list(map(texts.__getitem__, cells))
    return [_csv_quoted("%.17g" % v if isinstance(v, float) else str(v))
            for v in cells]


def _csv_lines(columns):
    # the rows of equal-length columns of cell texts, one line each;
    # csv.writer quotes the empty cell of a one-column row
    if len(columns) == 1:
        columns = [['""' if t == "" else t for t in columns[0]]]
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def _csv_blocks(names, columns):
    """The bytes ``csv.writer`` writes for a header row ``names`` and
    equal-length ``columns`` of cells: one text for the header, then one
    per block of ``_CSV_BLOCK_ROWS`` rows, so a long table never sits in
    memory as one string."""
    yield _csv_lines([[_csv_quoted(name)] for name in names])
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        yield _csv_lines([_csv_cells(col[start:start + _CSV_BLOCK_ROWS])
                          for col in columns])


def _emit(rows, columns, fmt, out):
    if fmt == "json":
        _write([json.dumps(rows, indent=2) + "\n"], out)
    else:
        _write(_csv_blocks(columns, [[row.get(c, "") for row in rows]
                                     for c in columns]), out)


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
    """One row per grid value: the swept value, the metadata and each
    target; a target that raises leaves NaN in its cell and its message
    in the row's error cell.  A psi sweep shares one context; any other
    builds each row's own, and a row whose context fails holds its error
    in every cell.  Both evaluate each target by one rule
    (:func:`_columns`): once where it reads no swept field."""
    raw = args.values.split(",")
    try:
        grid = tuple(float(v) for v in raw)
    except ValueError:
        raise UsageError(f"--values expects comma-separated numbers, "
                         f"got {args.values!r}") from None
    for text, value in zip(raw, grid):
        if math.isnan(value):
            # NaN compares false with every value, so it would read as a
            # grid out of order
            raise UsageError(f"--values holds {text.strip()!r}, which is "
                             f"not a number")
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
        metas, columns = _psi_columns(args, documents, grid, targets)
    else:
        metas, columns = _value_columns(args, documents, param, grid,
                                        targets)
    cells = iter(zip(*(columns[t] for t in targets)))
    rows = [_row(param, value, meta, zip(targets, next(cells)))
            if isinstance(meta, dict) else _row(param, value, {}, (
                (t, (math.nan, str(meta))) for t in targets))
            for value, meta in zip(grid, metas)]
    columns = [param] + targets + ["scenario_hash", "assumed_defaults",
                                   "error"]
    _emit(rows, columns, args.format, args.out)
    return 0


def _psi_columns(args, documents, grid, targets):
    # the grid moves only the cache size: every row shares one context
    # and its metadata, and every value is checked against its scenario
    # before any target is evaluated
    ctx = _build_context(args, documents)
    k_total = ctx.scenario.k_total
    psis = []
    for value in grid:
        psis.append(_parse_psi(value))
        if not 0 <= psis[-1] <= k_total:
            raise UsageError(f"psi {psis[-1]} outside [0, {k_total}]")
    return [_metadata(ctx)] * len(grid), _columns([ctx], "psi", psis, targets)


def _value_columns(args, documents, param, grid, targets):
    # each row's metadata or context error, and the built rows' columns
    shared_energy = None
    if param not in ENERGY_KEYS:
        # the swept value cannot change the energy model, so every row
        # shares one; an invalid model is left for each row to report
        try:
            shared_energy = load_energy_model(documents[1],
                                              _overrides(args)[1])
        except ScenarioError:
            pass

    def context(value):
        try:
            return _build_context(args, documents,
                                  sweep_override=(param, value),
                                  energy=shared_energy)
        except UsageError:
            raise
        except Exception as exc:  # row-level failure, run continues
            return exc

    contexts = [context(v) for v in grid]
    built = [ctx for ctx in contexts if isinstance(ctx, RunContext)]
    if not built:
        return contexts, dict.fromkeys(targets, ())
    field = (SCENARIO_KEYS.get(param) or ENERGY_KEYS[param])[0]
    model = "energy" if field in _ENERGY_FIELDS else "scenario"
    values = [getattr(getattr(ctx, model), field) for ctx in built]
    return ([_metadata(ctx) if isinstance(ctx, RunContext) else ctx
             for ctx in contexts], _columns(built, field, values, targets))


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
    n = len(outcome.psi)
    _write(_csv_blocks(list(columns) + list(meta),
                       list(columns.values())
                       + [[v] * n for v in meta.values()]), args.out)
    return 0


def _validation_rows(ctx, trials, seed):
    s = ctx.scenario

    # the three geometry rows share one ordered draw, made by the first
    # row that reads it, and keep only its three estimates; a draw that
    # raises is retried, so each row reports the error
    @functools.cache
    def distance_estimates():
        return [montecarlo.mean_estimate(row) for row in
                montecarlo.nearest_distances(s.lambda_e, 3,
                                             min(trials, 200_000), seed)]

    def geometry(p):
        def run():
            ref = multipath.mean_kth_edc_distance(s.lambda_e, p)
            est = distance_estimates()[p - 1]
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
    if args.seed < 0:
        # numpy's SeedSequence takes only non-negative entropy
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
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
