"""Tests of the benchmark harness itself (not of the library).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import csv
import io
import json
import math
import random
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import mcrnet  # noqa: E402
import mcrnet.cli as cli  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import Call, Design, Sweep, Validate, parse_csv  # noqa: E402


def _rewrite(text, edit):
    """Apply ``edit(rows)`` to CSV text and serialise it back."""
    rows = parse_csv(text)
    edit(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


@pytest.fixture(scope="module")
def design_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("design")
    call = Design.calls[0]
    _, codes, texts, _ = run.run_op(cli, [call], out)
    return call, codes[0], texts[0]


def _design_problems(call, rc, text):
    return run.check_op(Design(), [call], [rc], [text], random.Random(0))[0]


def test_design_output_passes(design_output):
    assert _design_problems(*design_output) == []


def test_wrong_best_pair_fails(design_output):
    call, rc, text = design_output

    def move_best(rows):
        best = next(i for i, r in enumerate(rows) if r["is_best"] == "True")
        rows[best]["is_best"] = "False"
        rows[(best + 1) % len(rows)]["is_best"] = "True"

    assert _design_problems(call, rc, _rewrite(text, move_best))


def test_nan_cell_fails(design_output):
    call, rc, text = design_output

    def poison(rows):
        rows[len(rows) // 2]["e_sys"] = "nan"

    assert _design_problems(call, rc, _rewrite(text, poison))


def test_missed_budget_fails(design_output):
    call, rc, text = design_output

    def shift(rows):
        row = next(r for r in rows if r["at_lower_bound"] == "False")
        row["lambda_e_crit"] = repr(float(row["lambda_e_crit"]) * 0.999)

    assert _design_problems(call, rc, _rewrite(text, shift))


@pytest.mark.parametrize("rc", [1, 2, "raised ValueError: boom"])
def test_failed_optimize_fails(design_output, rc):
    call, _, text = design_output
    assert _design_problems(call, rc, text)


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    op = list(Sweep.calls)
    _, codes, untraced, _ = run.run_op(cli, op, out)
    tracer = Tracer()
    _, _, traced, _ = run.run_op(cli, op, out, tracer)
    assert not hasattr(cli.main, "__wrapped__")  # unwrapped after the op
    return op, codes, untraced, traced, tracer.summary()


def _sweep_problems(op, codes, texts):
    return run.check_op(Sweep(), op, codes, texts, random.Random(0))[0]


def test_sweep_output_passes(sweep_outputs):
    op, codes, texts, _, _ = sweep_outputs
    assert codes == [0, 0]
    assert _sweep_problems(op, codes, texts) == []


def test_sweep_nan_cell_fails(sweep_outputs):
    op, codes, texts, _, _ = sweep_outputs

    def poison(rows):
        rows[7]["deli_delay"] = "nan"

    assert _sweep_problems(op, codes, [_rewrite(texts[0], poison), texts[1]])


def test_sweep_nonzero_exit_fails(sweep_outputs):
    op, _, texts, _, _ = sweep_outputs
    assert _sweep_problems(op, [0, 1], texts)


def test_traced_sweep_output_is_byte_identical(sweep_outputs):
    _, _, untraced, traced, spans = sweep_outputs
    assert traced == untraced
    assert spans["cli.main"][0] == 2
    # names bound by import elsewhere are traced too (cli imports zipf)
    assert spans["popularity.zipf"][0] > 0


def test_reference_is_timed_before_and_after_each_call(tmp_path):
    blocks = []
    call = Call(("sweep", "psi", "--values", "1", "--targets", "p_in_edc"),
                kind="psi")
    times, codes, _, refs = run.run_op(
        cli, [call, call], tmp_path, reference=(lambda: blocks.append(1), 3))
    assert codes == [0, 0]
    assert len(refs) == len(times) + 1
    assert len(blocks) == 3 * len(refs)


@pytest.fixture(scope="module")
def validate_output(tmp_path_factory):
    call = Call(("validate", "--trials", "2000", "--seed", "5"), kind="order4")
    _, codes, texts, _ = run.run_op(cli, [call],
                                    tmp_path_factory.mktemp("v"))
    return call, codes[0], texts[0]


def _validate_problems(call, rc, text):
    return run.check_op(Validate(), [call], [rc], [text], random.Random(0))[0]


def test_validate_output_passes(validate_output):
    assert _validate_problems(*validate_output) == []


@pytest.mark.parametrize("column, value", [("estimate", "nan"),
                                           ("deviation", "7.5"),
                                           ("error", "oracle failed")])
def test_corrupted_validate_row_fails(validate_output, column, value):
    call, rc, text = validate_output

    def poison(rows):
        rows[4][column] = value

    assert _validate_problems(call, rc, _rewrite(text, poison))


def test_validate_usage_error_fails(validate_output):
    call, _, text = validate_output
    assert _validate_problems(call, 1, text)


def test_uninstall_restores_bindings():
    original = cli.hit_probability
    tracer = Tracer()
    tracer.install(mcrnet)
    assert cli.hit_probability is not original
    assert mcrnet.popularity.hit_probability is cli.hit_probability
    tracer.uninstall()
    assert cli.hit_probability is original
    assert mcrnet.hit_probability is original


def test_self_times_on_nested_fixture():
    # a[0,10] holds b[1,4] and c[5,9]; c holds d[6,8]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 8.0]
    parents = [-1, 0, 0, 2]
    assert list(self_times([0, 1, 2, 3], starts, ends, parents)) == [
        3.0, 3.0, 2.0, 2.0]


def test_tracer_self_time_through_wrappers():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = tracer.wrap("m.leaf", leaf)
    outer = tracer.wrap("m.outer", lambda: wrapped_leaf() + wrapped_leaf())
    tracer.start()
    assert outer() == 2
    tracer.stop()
    outer()  # inactive: no spans
    # outer [0,5], leaves [1,2] and [3,4]
    assert tracer.summary() == {"m.outer": (1, 5.0, 3.0),
                                "m.leaf": (2, 2.0, 2.0)}


@pytest.mark.parametrize("workload", [Design, Sweep, Validate])
def test_calls_of_a_round_have_distinct_names(workload):
    # op_ref keeps the median ratio of each call name
    kinds = [c.kind for op in workload().rounds(random.Random(0)) for c in op]
    assert len(kinds) == len(set(kinds))


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_all_metric_values_are_numbers():
    records = [({}, {span: [] for span, _ in run.ORACLES.values()}
                | {st: [] for st in run.STAGES}, {})]
    metrics = run.layer_metrics(records, {}, 0.1)
    assert list(metrics) == list(run.PER_LAYER)
    assert all(math.isfinite(m["value"]) for m in metrics.values())
