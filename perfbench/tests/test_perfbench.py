"""Tests of the benchmark itself: workloads at a tiny size, span arithmetic,
the tail rule and the exact decode counters. No test asserts on wall time.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from tracing import self_times, summarize  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Size,
    Workload,
    end_to_end,
    run_traced,
    run_untraced,
    step_clock,
    tail,
)

TINY = Size(n_events=8, frame_round_events=1, tokenizer_steps=1, dynamics_steps=2,
            setup_repeats=1)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _span(name, start, end, parent, op="op"):
    return [name, start, end, parent, op]


class TestSpanArithmetic:
    def test_self_time_subtracts_the_union_of_clipped_children(self):
        spans = [
            _span("cli.forecast", 0.0, 10.0, -1),
            _span("dynamics.rollout", 1.0, 4.0, 0),
            _span("dynamics.forward", 2.0, 3.0, 1),
            _span("tokenizer.encode", 3.0, 6.0, 0),  # overlaps the rollout span
            _span("eventfile.write", 8.0, 12.0, 0),  # runs past its parent
        ]
        assert self_times(spans) == [3.0, 2.0, 1.0, 3.0, 4.0]

    def test_summary_groups_by_name_and_layer(self):
        spans = [
            _span("cli.forecast", 0.0, 10.0, -1),
            _span("dynamics.forward", 1.0, 3.0, 0),
            _span("dynamics.forward", 4.0, 5.0, 0),
            _span("dynamics.attention", 4.25, 4.75, 2),
        ]
        summary = summarize(spans)
        forward = summary["names"]["dynamics.forward"]
        assert forward == {"calls": 2, "busy_s": 3.0, "self_s": 2.5}
        assert summary["layers"] == {"cli": 7.0, "dynamics": 3.0}


class TestTailRule:
    def test_ten_samples_stay_above_the_tail(self):
        samples = list(range(100, 0, -1))
        value, percentile, n = tail(samples)
        assert n == 100
        assert sum(s > value for s in samples) == 10
        assert value == 90 and percentile == 90.0

    def test_eleven_samples_give_the_minimum(self):
        value, percentile, n = tail(range(11))
        assert (value, n) == (0, 11)
        assert percentile == pytest.approx(100.0 / 11)

    def test_ten_or_fewer_samples_give_the_maximum(self):
        assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _one_round(name, tmp_path, seed=3):
    workload = Workload(name, seed, tmp_path, size=TINY)
    workload.setup_seconds.append(workload.setup(tmp_path / "setup"))
    workload.prepare(tmp_path / "setup")
    with step_clock(workload):
        return workload, workload.round()


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_round_passes_every_check(name, tmp_path):
    workload, ops = _one_round(name, tmp_path)
    assert ops and all(op.ok for op in ops), [op.error for op in ops]
    metrics, _ = end_to_end(workload, ops)
    declared = {m["name"] for m in SPEC["end_to_end"]}
    assert declared < set(metrics)
    assert metrics["success_share"][0] == 1.0
    assert all(value > 0 for value, _ in metrics.values())


def test_untraced_run_repeats_set_up_and_cleans_up(tmp_path):
    workload = Workload("forecast-frame", 3, tmp_path, size=replace(TINY, setup_repeats=3))
    ops, metrics, notes = run_untraced(workload, seconds=1e-3)
    assert [op.kind for op in ops] == ["forecast", "evaluate"]
    assert all(op.ok for op in ops)
    assert len(workload.setup_seconds) == 3
    assert metrics["setup_s"][0] == sorted(workload.setup_seconds)[1]
    assert "n=1 forecast calls" in notes["latency_tail_s"]
    assert list(tmp_path.iterdir()) == []


def test_a_failed_check_counts_as_a_failed_operation(tmp_path):
    workload = Workload("forecast-frame", 3, tmp_path, size=TINY)
    workload.setup(tmp_path / "setup")
    workload.prepare(tmp_path / "setup")
    observed = workload.observed[workload.kept[0]]
    observed.frames = observed.frames.copy()
    observed.frames[0, 0, 0] += 1.0  # the context no longer matches the input file
    ops = workload.round()
    assert [op.ok for op in ops] == [False, False]
    assert "byte-equal" in ops[0].error
    assert ops[0].units == 0


# per event on the forecast workloads, per round (two two-step dynamics
# trainings at B=8, T=9, N=16) on train
EXACT_COUNTERS = {
    "forecast-frame": (6, 528, 960),
    "forecast-token": (96, 9168, 15360),
    "train": (4, 4 * 8 * 9 * 16, 4 * 160),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_counts_exactly_and_times_every_declared_layer(name, tmp_path):
    workload = Workload(name, 4, tmp_path, size=TINY)
    ops, layers, notes = run_traced(workload, seconds=1e-3)
    assert all(op.ok for op in ops), [op.error for op in ops]
    assert notes["traced_passes"] == 1
    counted = (layers["dynamics.forward_calls"], layers["dynamics.positions"],
               layers["autodiff.tape_nodes"])
    assert counted == EXACT_COUNTERS[name]
    # set-up saves three checkpoints; train saves three more per round
    assert layers["checkpoint.save_calls"] == (6 if name == "train" else 3)
    for metric in SPEC["per_layer"]:
        assert metric["name"] in layers
        if metric["unit"] == "s":
            assert layers[metric["name"]] > 0, metric["name"]
    for module in ("advection", "eventfile", "checkpoint", "tokenizer", "dynamics",
                   "autodiff", "optim", "verification", "cli"):
        assert module + ".self_s" in layers
