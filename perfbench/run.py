"""Benchmark of the ``mcrnet`` CLI: optimiser, sweeps and Monte-Carlo checks.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload design --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``design`` (six ``optimize`` calls per
op), ``sweep`` (a 50-row psi sweep and a 50-row density sweep, all 16
targets, per op) and ``validate`` (one ``validate --trials 100000`` call
per op, alternating aggregate-gain order 4 and 16).  Each is a closed loop
with one client driving ``mcrnet.cli.main(argv)`` in this process, with
``--out`` into a temporary directory inside the checkout; outputs are
checked after the timed section.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median time for a fresh interpreter to import
  ``mcrnet.cli`` and build its parser.
* ``op_ref``: time of one op in units of a fixed reference computation
  timed right before and after each call: ``interpreter_block`` on
  ``design`` and ``sweep``, ``array_block`` on ``validate``, whichever
  does work most like the workload's.  Each call's time is divided by
  the mean of the two reference times beside it; the metric is the
  median of that ratio per distinct call, summed over a round and
  divided by the ops in a round (``design`` and ``sweep`` have one op
  per round; ``validate`` has two, order 4 and order 16, so this is
  their mean).  On a shared 2-vCPU host other tenants slow interpreted
  code by up to 70% for seconds to minutes (the process is not
  descheduled: its CPU time grows with its wall time), so wall time
  moves with the host far more than with the program; the reference
  slows with it and the ratio cancels most of that.  The report line
  keeps wall times: the median op (``op_p50_s``), every op, and the
  median reference block (``ref_s``), which converts ``op_ref`` back to
  seconds on that host.
* ``ok_ratio``: ops that passed their checks over ops attempted
  (``1 - failed_ratio``; reported this way because a metric must not be 0).
* ``peak_rss_mb``: peak resident memory of this process.
* ``work_per_ref``: the workload's unit of work per reference unit,
  from the same per-call medians: psi values resolved on ``design``,
  rows emitted on ``sweep``, oracle samples on ``validate``.  The report
  line also gives it per wall second (``solves_per_s``, ``rows_per_s``,
  ``mc_samples_per_s``), from the median op time.

``--trace 1`` runs every op untraced and then traced with the span
recorder of ``tracer.py`` and prints the per-layer metrics (per op unless
the name says otherwise), plus import times and the tracer's overhead.

The line before the result is a JSON report with the workload's purpose,
provenance (nproc, versions, revision, seed), op times and span totals.
The last line is the result: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "op_ref": "ref",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "work_per_ref": "1/ref",
}

MODULES = ("cli", "energy", "latency", "montecarlo", "multipath", "numerics",
           "optimizer", "popularity", "scenario")
STAGES = ("latency.uplink_success_prob", "latency.deli_success_prob",
          "latency.access_success_prob")
# per-layer name -> (oracle span, samples per reported unit)
ORACLES = {
    "montecarlo.deli_s_per_1e6": ("montecarlo.estimate_deli_success", 1e6),
    "montecarlo.uplink_s_per_1e6": ("montecarlo.estimate_uplink_success", 1e6),
    "montecarlo.access_s_per_1e6": ("montecarlo.estimate_access_success", 1e6),
    "montecarlo.shadowing_s_per_1e6":
        ("montecarlo.estimate_shadowing_success", 1e6),
    "montecarlo.kth_s_per_1e5": ("montecarlo.estimate_kth_nearest", 1e5),
    "montecarlo.simulator_s_per_1e3": ("montecarlo.simulate_backhaul", 1e3),
}

PER_LAYER = {
    "numerics.root_calls": "count",
    "multipath.backhaul_calls": "count",
    "optimizer.self_s": "s",
    "optimizer.psi_solved": "count",
    "optimizer.skipped_share": "ratio",
    "energy.system_energy_calls": "count",
    "latency.stage_evals": "count",
    "latency.stage_unique_share": "ratio",
    "numerics.quad_calls": "count",
    "numerics.quad_s_per_call": "s",
    "latency.self_s": "s",
    **{name: "s" for name in ORACLES},
    "montecarlo.samples": "count",
    "montecarlo.self_s": "s",
    "scenario.load_calls": "count",
    "scenario.self_s": "s",
    "cli.self_s": "s",
    "cli.rows_emitted": "count",
    "popularity.zipf_calls": "count",
    "popularity.self_s": "s",
    "validate.checks_passed": "count",
    "mcrnet.import_s": "s",
    **{f"{m}.import_s": "s" for m in MODULES},
    "trace.overhead_share": "ratio",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)


SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import mcrnet.cli\n"
    "mcrnet.cli.build_parser()\n"
    "print(time.perf_counter() - t, mcrnet.__file__)\n")


def measure_setup():
    """Median import-and-parser time of fresh interpreters (after one
    untimed start that fills the bytecode cache)."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        elapsed, where = run_child(["-c", SETUP_CODE]).stdout.split()
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"child imported mcrnet from {where}")
        if i:
            times.append(float(elapsed))
    return statistics.median(times)


def import_times():
    """Median cumulative import time of each ``mcrnet`` module, from
    ``python -X importtime``."""
    samples = {}
    for _ in range(IMPORTTIME_REPEATS):
        err = run_child(["-X", "importtime", "-c", "import mcrnet.cli"]).stderr
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("mcrnet"):
                cumulative_us = int(parts[1])
                samples.setdefault(parts[2], []).append(cumulative_us * 1e-6)
    return {name.rsplit(".", 1)[-1]: statistics.median(v)
            for name, v in samples.items()}


def provenance(seed):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "mcrnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None  # outside a git checkout the source digest identifies it
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_revision": rev, "src_sha256": digest.hexdigest()[:16],
            "seed": seed}


def interpreter_block():
    """A fixed interpreter-bound computation that times the host: QUADPACK
    calling a Python integrand, as the latency stages do.  About 30 ms on
    an idle 2-vCPU VM."""
    from scipy import integrate

    for k in range(400):
        a = 1.0 + k / 400
        integrate.quad(
            lambda x: math.exp(-a * x) * math.cos(3.0 * x) * x / (1.0 + x * x),
            0.0, math.inf, limit=200)


@functools.cache
def _block_arrays():
    import numpy as np

    return np.zeros(1_000_000), np.zeros(1_000_000)


def array_block():
    """A fixed numpy-bound computation that times the host: Gamma draws and
    a partial sort over a million elements, as the Monte-Carlo oracles do,
    into arrays allocated once, so page faults do not time it.  About
    60 ms on an idle 2-vCPU VM."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(0))
    draws, uniform = _block_arrays()
    rng.standard_gamma(4.0, out=draws)
    rng.random(out=uniform)
    np.multiply(draws, uniform, out=draws)
    draws.partition(100)


REFERENCES = {"interpreter": interpreter_block, "array": array_block}


def time_reference(block, blocks):
    """Median seconds of ``blocks`` runs of ``block``: the host stalls for
    tens of milliseconds at a time, and a stalled block is an outlier."""
    times = []
    for _ in range(blocks):
        start = time.perf_counter()
        block()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_op(cli, op, out_dir, tracer=None, reference=None):
    """Run one op; return (seconds per call, exit codes, output texts,
    reference seconds).

    With a ``reference`` ``(block, blocks)``, the reference is timed
    (median seconds per block) before the first call and after each call,
    so call ``i`` lies between reference times ``i`` and ``i + 1``.  With
    a tracer, the library is wrapped for this op only, so untraced ops
    never pay for inactive wrappers.

    A call that raises instead of returning an exit code gets the
    exception text as its code, which every check treats as a failure.
    """
    paths = [out_dir / f"call{i}.out" for i in range(len(op))]
    for path in paths:
        path.unlink(missing_ok=True)
    times, codes, refs = [], [], []
    if reference:
        refs.append(time_reference(*reference))
    if tracer is not None:
        tracer.install(sys.modules["mcrnet"])
        tracer.start()
    for call, path in zip(op, paths):
        start = time.perf_counter()
        try:
            codes.append(cli.main([*call.argv, "--out", str(path)]))
        except Exception as exc:  # op boundary: record and go on
            codes.append(f"raised {type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - start)
        if reference:
            refs.append(time_reference(*reference))
    if tracer is not None:
        tracer.stop()
        tracer.uninstall()
    texts = [p.read_text(encoding="utf-8") if p.exists() else "" for p in paths]
    return times, codes, texts, refs


def check_op(workload, op, codes, texts, rng):
    """Problems found in one op's outputs, and each call's counts."""
    problems, infos = [], []
    for call, rc, text in zip(op, codes, texts):
        try:
            found, info = workload.check(call, rc, text, rng)
        except Exception as exc:  # a crashing check fails the op
            found, info = [f"check raised {type(exc).__name__}: {exc}"], {}
        problems += found
        infos.append(info)
    return problems, infos


def layer_metrics(records, imports, overhead):
    """Per-layer metrics from traced ops: ``(span summary, observations,
    output counts)`` per op."""
    n = len(records)

    def per_op(fn):
        return sum(fn(*r) for r in records) / n

    def calls(name):
        return per_op(lambda spans, obs, info: spans.get(name, (0, 0, 0))[0])

    def self_s(module):
        return per_op(lambda spans, obs, info: sum(
            v[2] for k, v in spans.items() if k.split(".")[0] == module))

    def seconds_per(span, unit):
        busy = sum(spans.get(span, (0, 0, 0))[1] for spans, _, _ in records)
        samples = sum(sum(obs[span]) for _, obs, _ in records)
        return busy / samples * unit if samples else 0.0

    def unique_share(spans, obs, info):
        evals = sum(len(obs[st]) for st in STAGES)
        distinct = len({(st, sc) for st in STAGES for sc in obs[st]})
        return distinct / evals if evals else 0.0

    quad_calls = calls("numerics.integrate_semi_infinite")
    quad_busy = per_op(lambda spans, obs, info: spans.get(
        "numerics.integrate_semi_infinite", (0, 0, 0))[1])
    psi_solved = per_op(lambda spans, obs, info: info.get("psi_resolved", 0)
                        + spans.get("optimizer.critical_edc_density",
                                    (0, 0, 0))[0])
    skipped = per_op(lambda spans, obs, info: info.get("skipped", 0))
    metrics = {
        "numerics.root_calls": calls("numerics.find_root_monotone"),
        "multipath.backhaul_calls": calls("multipath.multipath_backhaul_delay"),
        "optimizer.self_s": self_s("optimizer"),
        "optimizer.psi_solved": psi_solved,
        "optimizer.skipped_share": skipped / psi_solved if psi_solved else 0.0,
        "energy.system_energy_calls": calls("energy.system_energy"),
        "latency.stage_evals": sum(calls(st) for st in STAGES),
        "latency.stage_unique_share": per_op(unique_share),
        "numerics.quad_calls": quad_calls,
        "numerics.quad_s_per_call": quad_busy / quad_calls if quad_calls else 0.0,
        "latency.self_s": self_s("latency"),
        **{name: seconds_per(span, unit)
           for name, (span, unit) in ORACLES.items()},
        "montecarlo.samples": per_op(lambda spans, obs, info: sum(
            sum(obs[span]) for span, _ in ORACLES.values())),
        "montecarlo.self_s": self_s("montecarlo"),
        "scenario.load_calls": calls("scenario.load_scenario"),
        "scenario.self_s": self_s("scenario"),
        "cli.self_s": self_s("cli"),
        "cli.rows_emitted": per_op(lambda spans, obs, info: info.get("rows", 0)),
        "popularity.zipf_calls": calls("popularity.zipf"),
        "popularity.self_s": self_s("popularity"),
        "validate.checks_passed":
            per_op(lambda spans, obs, info: info.get("checks_passed", 0)),
        **{f"{m}.import_s": imports.get(m, 0.0) for m in ("mcrnet",) + MODULES},
        "trace.overhead_share": overhead,
    }
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def make_tracer():
    from tracer import Tracer

    tracer = Tracer()
    for span, _ in ORACLES.values():
        tracer.observe(span, lambda args: args["trials"])
    for stage in STAGES:
        # the scenario (first argument) identifies a distinct evaluation
        tracer.observe(stage, lambda args: next(iter(args.values())))
    return tracer


def benchmark(workload_name, seed, seconds, trace, out_dir):
    import mcrnet
    import mcrnet.cli as cli
    from workloads import WORKLOADS

    if not Path(mcrnet.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported mcrnet from {mcrnet.__file__}")
    workload = WORKLOADS[workload_name]()
    rng = random.Random(seed)
    report = {"workload": workload_name, "why": workload.why,
              "provenance": provenance(seed), "trace": trace,
              "seconds": seconds}
    tracer = None
    if trace:
        tracer = make_tracer()
        imports = import_times()
    else:
        setup_s = measure_setup()
    reference = (REFERENCES[workload.reference], workload.ref_blocks)
    run_op(cli, workload.warmup(), out_dir, reference=reference)

    ratios = {}  # call kind -> call seconds over the reference beside it
    work = {}  # call kind -> work units of one call
    op_times, ref_times, overheads, records, problems = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        ops = workload.rounds(rng)
        for op in ops:
            times, codes, texts, refs = run_op(cli, op, out_dir,
                                               reference=reference)
            found, infos = check_op(workload, op, codes, texts, rng)
            op_times.append(sum(times))
            ref_times += refs
            for i, (call, info) in enumerate(zip(op, infos)):
                ratios.setdefault(call.kind, []).append(
                    2.0 * times[i] / (refs[i] + refs[i + 1]))
                work[call.kind] = info.get("work", 0)
            if trace:
                t_times, t_codes, t_texts, _ = run_op(cli, op, out_dir, tracer)
                t_found, t_infos = check_op(workload, op, t_codes, t_texts, rng)
                if t_texts != texts:
                    t_found.append("traced output differs from untraced")
                overheads.append(sum(t_times) / sum(times) - 1.0)
                t_info = Counter()
                for info in t_infos:
                    t_info.update(info)
                records.append((tracer.summary(), tracer.observed, t_info))
                tracer.reset()
                attempted += 1
                failed += bool(t_found)
                problems += t_found
            attempted += 1
            failed += bool(found)
            problems += found
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    call_ref = {kind: statistics.median(r) for kind, r in ratios.items()}
    round_ref = sum(call_ref.values())
    round_work = sum(work.values())
    op_p50_s = statistics.median(op_times)
    report.update(
        ops=len(op_times), op_times_s=op_times, op_p50_s=op_p50_s,
        ref_s=statistics.median(ref_times), call_ref=call_ref,
        failed_ratio=failed / attempted, problems=problems[:20])
    report[f"{workload.work_unit}_per_s"] = round_work / len(ops) / op_p50_s
    if trace:
        metrics = layer_metrics(records, imports,
                                statistics.median(overheads))
        spans = {}
        for summary, _, _ in records:
            for name, (n, total, own) in summary.items():
                acc = spans.setdefault(name, [0, 0.0, 0.0])
                acc[0] += n
                acc[1] += total
                acc[2] += own
        report["spans_calls_total_self"] = spans
    else:
        values = {
            "setup_s": setup_s,
            "op_ref": round_ref / len(ops),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_ref": round_work / round_ref,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("design", "sweep", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "mcrnet" / "cli.py").is_file():
        print(f"error: no mcrnet sources under {SRC}", file=sys.stderr)
        return 2
    # One thread per native pool (at most nproc): the workload is one
    # client, and idle pool threads only add noise.  Set before numpy loads;
    # children inherit it.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        report, result = benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace), Path(tmp))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
