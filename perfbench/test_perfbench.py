"""Tests of the benchmark itself: span arithmetic, missing hooks, and a
tiny-budget run of every workload.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fedfs import ce, datasets  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "planted50-central": dict(sample_count=10, rounds=2),
    "planted50-fed": dict(sample_count=10, rounds=2),
    "mav-fed-wide": dict(sample_count=2, rounds=1),
    "bounds-mc": dict(rounds=2, trials=100),
}


def test_self_time_is_duration_minus_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 6.0, 7.0, 2),
        ("e", 6.5, 8.0, 2),  # overlaps d: b's children cover [6, 8] once
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 2.0, 1.0, 1.0, 1.5])
    totals = tracer.layer_totals(spans[:4])
    assert totals["root"] == pytest.approx([1, 10.0, 3.0])
    # Without overlap the self times of a tree add up to the root's duration.
    assert sum(tracer.self_times(spans[:4])) == pytest.approx(10.0)


def test_missing_hooks_are_absent_not_fatal():
    original = ce.sample_masks
    hooks = [
        ("fedfs.ce", "no_such_function", "x", None),
        ("fedfs.no_such_module", "f", "y", None),
        ("fedfs.ce", "NoSuchClass.method", "z", None),
        ("fedfs.ce", "sample_masks", "ce.sample", lambda counters, args, result: args[99]),
    ]
    t = tracer.Tracer()
    with t.installed(hooks):
        assert ce.sample_masks is not original
        masks = ce.sample_masks(np.full(4, 0.5), 3, 7)
    assert ce.sample_masks is original
    assert np.array_equal(masks, original(np.full(4, 0.5), 3, 7))
    assert t.absent == [
        "fedfs.ce.no_such_function",
        "fedfs.no_such_module.f",
        "fedfs.ce.NoSuchClass.method",
        "fedfs.ce.sample_masks",  # its observer no longer fits the signature
    ]
    assert [name for name, *_ in t.spans] == ["ce.sample"]


def test_traced_round_nests_spans_and_keeps_results():
    data = datasets.generate_planted(datasets.PlantedSpec(m=6, n=64, relevant=(0, 1), rng_seed=3))
    params = ce.CEParams(sample_count=10, rng_seed=5)
    plain = ce.ce_round(data, ce.uniform_probs(6), params, 1)
    t = tracer.Tracer()
    with t.installed():
        traced = ce.ce_round(data, ce.uniform_probs(6), params, 1)
    assert plain.tobytes() == traced.tobytes()
    names = [name for name, *_ in t.spans]
    assert names.count("info.objective") == 10 and names[0] == "ce.round"
    assert all(parent == 0 for _, _, _, parent in t.spans[1:])
    assert t.counters["elite.rounds"] == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_budget_run_reports_every_metric(name, monkeypatch, capsys):
    assert set(workloads.WORKLOADS) == {w["name"] for w in CONTRACT["workloads"]}
    monkeypatch.setattr(harness, "SETUP_MIN_SECONDS", 0.0)
    tiny = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in CONTRACT[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
