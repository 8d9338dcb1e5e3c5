"""The three benchmark workloads and the checks on their outputs.

Every call goes through ``mcrnet.cli.main(argv)`` with public flags only
(never ``--jobs``), and every check recomputes through public library
functions.  An op is a list of CLI calls; a round is the list of ops that
covers each variant of a workload once, so a run always holds whole
rounds and its median is not set by which variant happened to run last.

``check`` returns ``(problems, info)``: an op with any problem counts as
failed, and ``info`` carries the counts the metrics are built from.
``reference`` names the host-speed reference timed before and after each
call (``run.REFERENCES``), the one whose work is most like the
workload's, and ``ref_blocks`` how many blocks of it: longer calls get
more, so the reference samples the host over a fair share of them.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from mcrnet import energy, latency, multipath, optimizer, popularity, scenario

SWEEP_TARGETS = (
    "p_in_edc", "fiber_delay", "fiber_link_delay", "uplink_delay",
    "deli_delay", "access_delay", "backhaul_delay_multipath",
    "backhaul_delay_single", "backhaul_gain", "backhaul_delay_bmax",
    "delay_lower_bound", "delay_upper_bound", "total_latency_multipath",
    "e_sys", "see_multipath", "see_single")

# A critical density solves D(lambda) + fiber term = budget; brentq stops at
# 1e-16 per m^2 on densities near 1e-5, so the relative budget mismatch of
# an emitted row is far below this.
BUDGET_REL_TOL = 1e-9
# Sweep rows re-evaluated through the public API must agree to rounding.
SPOT_REL_TOL = 1e-12
# |z| above 6 has probability 2e-9 under pure sampling noise.
Z_BOUND = 6.0
# The packet simulator's max over paths sits a few percent above the
# per-path closed form by construction; at 2000 trials its noise is ~1 %.
SIM_REL_BOUND = 0.10
# The CLI default: about 3 s a call, so a run holds several of each kind.
VALIDATE_TRIALS = 100_000
DENSITY_SWEEP_PSI = 144
ORDER16_PARAMS = tuple(f"{key}=4" for key in
                       ("nt_u", "nr_m", "nt_m", "nr_e", "nt_s", "nr_u"))


@dataclass(frozen=True)
class Call:
    """One ``mcrnet`` invocation: argv without ``--out``, a name unique
    among the calls of a round, and the parameters its check needs."""

    argv: tuple
    kind: str
    params: tuple = ()


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _finite(row, columns):
    try:
        return all(math.isfinite(float(row[c])) for c in columns)
    except (KeyError, TypeError, ValueError):
        return False


class Design:
    name = "design"
    why = ("two-step optimiser: brentq per cache size over skipped, rooted "
           "and clamped branches; no Monte-Carlo")
    work_unit = "psi_solves"
    reference, ref_blocks = "interpreter", 3  # calls take 0.02 to 0.2 s
    calls = tuple(
        Call(("optimize", "--scheme", scheme, "--param", f"d_max_ms={d}"),
             kind=f"{scheme},d_max_ms={d}",
             params=(scheme, (("d_max_ms", str(d)),)))
        for scheme in (multipath.MULTIPATH, multipath.SINGLE_PATH)
        for d in (12, 20, 100))

    def __init__(self):
        self._budgets = {}

    def rounds(self, rng):
        op = list(self.calls)
        rng.shuffle(op)
        return [op]

    def warmup(self):
        return [self.calls[0]]

    def _scenario(self, overrides):
        if overrides not in self._budgets:
            s = scenario.load_scenario(overrides=dict(overrides))
            self._budgets[overrides] = (s, optimizer.reduced_delay_budget(s))
        return self._budgets[overrides]

    def check(self, call, rc, text, rng):
        scheme, overrides = call.params
        s, budget = self._scenario(overrides)
        info = {"work": s.k_total, "psi_resolved": s.k_total, "rows": 0,
                "skipped": s.k_total}
        if rc != 0:
            return [f"optimize exited {rc}"], info
        rows = parse_csv(text)
        info["rows"] = len(rows)
        info["skipped"] = s.k_total - len(rows)
        if not rows:
            return ["optimize emitted no feasible pair"], info
        problems = []
        numeric = ("psi", "lambda_e_crit", "e_sys")
        if not all(_finite(r, numeric) for r in rows):
            return ["non-finite cell in optimize output"], info
        best = [r for r in rows if r["is_best"] == "True"]
        ranked = min(rows, key=lambda r: (float(r["e_sys"]), int(r["psi"]),
                                          float(r["lambda_e_crit"])))
        if len(best) != 1 or best[0] is not ranked:
            problems.append("is_best row is not the argmin of e_sys")
        b = 1 if scheme == multipath.SINGLE_PATH else s.b_paths
        model = popularity.zipf(s.beta, s.k_total)
        fiber = latency.fiber_delay(s)
        for r in rows:
            psi = int(r["psi"])
            if not 1 <= psi <= s.k_total:
                problems.append(f"psi {psi} outside [1, {s.k_total}]")
                continue
            delay = (multipath.multipath_backhaul_delay(
                s, b=b, lambda_e=float(r["lambda_e_crit"]))
                + fiber * (1.0 - popularity.hit_probability(model, psi)))
            if r["at_lower_bound"] == "True":
                ok = delay <= budget * (1.0 + BUDGET_REL_TOL)
            else:
                ok = abs(delay - budget) <= BUDGET_REL_TOL * budget
            if not ok:
                problems.append(
                    f"psi {psi}: delay {delay!r} misses budget {budget!r}")
        return problems, info


class Sweep:
    name = "sweep"
    why = ("fixed-stage quadratures recomputed per row: the psi half shares "
           "one scenario, the density half has one per row")
    work_unit = "rows"
    reference, ref_blocks = "interpreter", 1  # calls take about 0.2 s
    psi_grid = tuple(range(1, 500, 10))
    lambda_grid = tuple(float(v) for v in np.linspace(6.0, 49.0, 50))
    calls = (
        Call(("sweep", "psi", "--values", ",".join(map(str, psi_grid)),
              "--targets", ",".join(SWEEP_TARGETS)),
             kind="psi", params=psi_grid),
        Call(("sweep", "lambda_e_per_km2",
              "--values", ",".join(format(v, ".17g") for v in lambda_grid),
              "--targets", ",".join(SWEEP_TARGETS),
              "--param", f"psi={DENSITY_SWEEP_PSI}"),
             kind="lambda_e_per_km2", params=lambda_grid),
    )
    spot_rows = 2

    def __init__(self):
        self._em = energy.load_energy_model()

    def rounds(self, rng):
        op = list(self.calls)
        rng.shuffle(op)
        return [op]

    def warmup(self):
        return [Call(("sweep", "lambda_e_per_km2", "--values", "6,49",
                      "--targets", ",".join(SWEEP_TARGETS)), kind="warmup")]

    def check(self, call, rc, text, rng):
        info = {"work": 0, "rows": 0}
        if rc != 0:
            return [f"sweep exited {rc}"], info
        rows = parse_csv(text)
        info["rows"] = info["work"] = len(rows)
        problems = []
        if len(rows) != len(call.params):
            problems.append(f"{len(rows)} rows, expected {len(call.params)}")
        for r, value in zip(rows, call.params):
            if r.get("error"):
                problems.append(f"{call.kind}={value}: {r['error']}")
            elif float(r[call.kind]) != float(value):
                problems.append(f"row for {value} reports {r[call.kind]}")
            elif not _finite(r, SWEEP_TARGETS):
                problems.append(f"{call.kind}={value}: non-finite target")
        if problems:
            return problems, info
        for i in rng.sample(range(len(rows)), self.spot_rows):
            problems += self._spot_check(call, call.params[i], rows[i])
        return problems, info

    def _spot_check(self, call, value, row):
        if call.kind == "psi":
            s, psi = scenario.load_scenario(), int(value)
        else:
            s = scenario.load_scenario(overrides={call.kind: value})
            psi = DENSITY_SWEEP_PSI
        model = popularity.zipf(s.beta, s.k_total)
        p_hit = popularity.hit_probability(model, psi)
        budget = optimizer.reduced_delay_budget(s)
        pair = optimizer.critical_edc_density(s, psi, budget,
                                              multipath.MULTIPATH)
        expected = {
            "p_in_edc": p_hit,
            "fiber_link_delay": latency.fiber_delay(s) * (1.0 - p_hit),
            "deli_delay": latency.deli_delay(s),
            "backhaul_delay_multipath": multipath.multipath_backhaul_delay(s),
            "e_sys": energy.system_energy(s, self._em, psi).total,
            "see_multipath": energy.system_energy(
                s, self._em, psi, lambda_e=pair.lambda_e_crit).total,
        }
        return [f"{call.kind}={value}: {t} = {row[t]}, API gives {v!r}"
                for t, v in expected.items()
                if not math.isclose(float(row[t]), v, rel_tol=SPOT_REL_TOL)]


class Validate:
    name = "validate"
    why = ("Monte-Carlo oracles at 1e5 trials, over half in the delivery oracle; "
           "ops alternate aggregate-gain order 4 and order 16")
    work_unit = "mc_samples"
    reference, ref_blocks = "array", 5  # calls take about 3 s
    variants = ((), ORDER16_PARAMS)

    def rounds(self, rng):
        op = [Call(("validate", "--trials", str(VALIDATE_TRIALS),
                    "--seed", str(rng.randrange(2 ** 31)))
                   + tuple(arg for kv in params for arg in ("--param", kv)),
                   kind="order16" if params else "order4")
              for params in self.variants]
        rng.shuffle(op)
        return [[call] for call in op]

    def warmup(self):
        return [Call(("validate", "--trials", "2000"), kind="warmup")]

    def check(self, call, rc, text, rng):
        info = {"work": 0, "rows": 0, "checks_passed": 0}
        if rc not in (0, 3):
            return [f"validate exited {rc}"], info
        rows = parse_csv(text)
        info["rows"] = len(rows)
        if not rows:
            return ["validate emitted no rows"], info
        problems = []
        numeric = ("analytic", "estimate", "std_error", "n_samples",
                   "deviation")
        for r in rows:
            if r["error"] or not _finite(r, numeric):
                problems.append(f"{r['check']}: error {r['error']!r} "
                                f"or non-finite value")
                continue
            info["work"] += int(r["n_samples"])
            dev = abs(float(r["deviation"]))
            if r["criterion"].startswith("|z|"):
                if dev > Z_BOUND:
                    problems.append(f"{r['check']}: |z| = {dev:.3g}")
                info["checks_passed"] += r["passed"] == "True"
            elif dev > SIM_REL_BOUND:
                problems.append(f"{r['check']}: relative error {dev:.3g}")
        return problems, info


WORKLOADS = {w.name: w for w in (Design, Sweep, Validate)}
