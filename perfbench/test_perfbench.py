"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder, self_times, timed  # noqa: E402


def test_self_times_of_nested_spans():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    own = self_times(start, end, parent)
    assert own == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(own) == pytest.approx(end[0] - start[0])


def test_self_times_merge_overlapping_and_clip_overhanging_children():
    # children [1,5] and [4,8] overlap; [9,12] overhangs the parent's end
    start = [0.0, 1.0, 4.0, 9.0]
    end = [10.0, 5.0, 8.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_recorder_nests_spans_and_layer_self_times_sum_to_wall():
    recorder = SpanRecorder()
    leaf = timed(recorder, "linalg.slogdet", lambda: sum(range(2000)))
    middle = timed(recorder, "markov.payoff", lambda: [leaf() for _ in range(3)])
    top = timed(recorder, "cli.main", lambda: middle() and leaf())
    op = recorder.name_id("bench.op")
    for k in range(2):
        recorder.op_id = k
        index = recorder.open(op)
        top()
        recorder.close(index)
    recorder.op_id = -1

    names = [recorder.names[i] for i in recorder.name]
    assert names.count("linalg.slogdet") == 8
    assert recorder.parent[names.index("cli.main")] == names.index("bench.op")
    metrics = layers.layer_metrics(recorder, untraced_s=0.0)
    assert metrics["trace.spans"] == 2 * (1 + 1 + 1 + 4)
    total = sum(metrics[m] for m in layers.SELF_METRIC.values())
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert set(metrics) == {name for name, _ in layers.PER_LAYER}


@pytest.fixture(scope="module")
def memn():
    import memn.cli

    return memn


def _field(memn, x, variant):
    spec = memn.dynamics.FieldSpec(
        n=x.n,
        payoff=memn.core.build_payoff_vector(memn.core.GameParams.donation(2, 1), x.n),
        variant=variant,
    )
    return memn.dynamics.adaptive_field(x, spec)


@pytest.fixture(scope="module")
def fields(memn):
    rng = np.random.default_rng(0)
    x = memn.core.StrategyVector(2, rng.uniform(0.1, 0.9, 16))
    names = dict(zip(workloads.FIELD_VARIANTS, memn.dynamics.VARIANTS))
    return {v: _field(memn, x, names[v]) for v in workloads.FIELD_VARIANTS}


def test_field_check_accepts_real_fields(fields):
    assert workloads.check_field_round(fields) == set()


@pytest.mark.parametrize(
    "variant, corrupt, flagged",
    [
        ("full", lambda f: f * (1 + 1e-7), {"full", "sym", "antisym"}),
        ("sym", lambda f: f + 1e-6, {"full", "sym", "antisym"}),
        ("antisym-reparam", lambda f: -f, {"antisym", "antisym-reparam"}),
        ("antisym-reparam", lambda f: f + 1e-3 * np.roll(f, 1), {"antisym", "antisym-reparam"}),
    ],
)
def test_field_check_rejects_corrupted_fields(fields, variant, corrupt, flagged):
    bad = dict(fields)
    bad[variant] = corrupt(np.asarray(fields[variant]))
    assert workloads.check_field_round(bad) == flagged


def test_central_difference_check(memn, fields):
    rng = np.random.default_rng(0)
    x = memn.core.StrategyVector(2, rng.uniform(0.1, 0.9, 16))
    spec = memn.dynamics.FieldSpec(
        n=2,
        payoff=memn.core.build_payoff_vector(memn.core.GameParams.donation(2, 1), 2),
        gradient_method="central_difference",
    )
    central = memn.dynamics.adaptive_field(x, spec)
    rtol = memn.tolerances.DEFAULTS["gradient_relative"]
    assert workloads.check_central_difference(fields["full"], central, rtol)
    wrong = np.array(fields["full"])
    wrong[3] += 1e-4 * np.abs(wrong).max()
    assert not workloads.check_central_difference(wrong, central, rtol)


def test_payoff_workload_check_rejects_corrupted_output(memn, tmp_path):
    workload = workloads.PayoffN5(np.random.default_rng(0), str(tmp_path))
    rnd = workload.round(0)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [memn.cli.main(argv) for argv in rnd.ops[:1]]
    rnd.ops, rnd.outputs = rnd.ops[:1], rnd.outputs[:1]
    rnd.context["pairs"] = rnd.context["pairs"][:1]
    assert workload.check(rnd, codes, memn) == set()

    path = Path(rnd.outputs[0])
    good = json.loads(path.read_text())
    for key, delta in (("A", 1e-6), ("A_s", 1e-6), ("A_a", -1e-6)):
        bad = dict(good, **{key: good[key] + delta})
        path.write_text(json.dumps(bad))
        assert workload.check(rnd, codes, memn) == {0}, key
    # a consistent A = A_s + A_a that disagrees with the stationary payoff
    bad = dict(good, A=good["A"] + 1e-6, A_s=good["A_s"] + 1e-6)
    path.write_text(json.dumps(bad))
    assert workload.check(rnd, codes, memn) == {0}
    path.write_text(json.dumps(good))
    assert workload.check(rnd, [1], memn) == {0}


def test_verify_check_rejects_failed_runs(memn, tmp_path):
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = memn.cli.main(["verify", "symmetry", "--out", str(out)])
    report = json.loads(out.read_text())
    assert workloads.check_verify(code, report)
    assert not workloads.check_verify(1, report)
    failed = json.loads(out.read_text())
    failed["checks"][0]["passed"] = False
    assert not workloads.check_verify(0, failed)
    assert not workloads.check_verify(0, dict(report, passed=False))
    assert not workloads.check_verify(0, dict(report, checks=[]))
