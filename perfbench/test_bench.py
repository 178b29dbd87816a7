"""Fast self-test of the benchmark: every workload at tiny n, in seconds.

Checks that each run prints every metric BENCHMARK.json names, with its
unit, and that a deliberately corrupted output is counted as a failure.
"""

import io
import json
import re
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
TINY = {
    name: replace(w, n=200, trials_per_cell=1) if w.sweep else replace(w, n=300)
    for name, w in bench.WORKLOADS.items()
}


def _printed(run):
    buf = io.StringIO()
    with redirect_stdout(buf):
        result = bench.report(run)
    last = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert last == json.loads(json.dumps(result))
    return buf.getvalue(), last


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace):
    run = bench.run_workload(TINY[name], 7, 0.0, trace, setup_runs=1)
    text, last = _printed(run)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for m in spec:
        line = rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$"
        assert re.search(line, text, re.MULTILINE), m
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    if not trace:
        assert all(last["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_counts_and_digest_repeat_for_a_seed():
    w = TINY["below-n30k"]
    first, second = (bench.run_workload(w, 3, 0.0, True) for _ in range(2))
    assert bench.replay_digest(first) == bench.replay_digest(second)
    assert first.layers and [
        {k: v for k, v in layer.items() if not k.endswith("_s")} for layer in first.layers
    ] == [
        {k: v for k, v in layer.items() if not k.endswith("_s")} for layer in second.layers
    ]


def _flip_one_label(stages):
    stages.final.labels[0] = -stages.final.labels[0]


def _drop_one_core_vertex(stages):
    pair = (0, 1)
    mu = stages.fam.matchings[pair]
    dropped = min(mu.domain)
    stages.fam.matchings[pair] = bench.csbm.PartialMatching(
        {u: v for u, v in mu.items() if u != dropped}
    )


def _overlap_above_one(result):
    result.overlap = 1.5


@pytest.mark.parametrize(
    "trace, corrupt",
    [(True, _flip_one_label), (True, _drop_one_core_vertex), (False, _overlap_above_one)],
)
def test_a_corrupted_output_counts_in_fail_rate(trace, corrupt):
    w = TINY["above-n30k"]
    run = bench.run_workload(w, 5, 0.0, trace, setup_runs=1, corrupt=corrupt)
    _, last = _printed(run)
    assert not last["correct"]
    assert last["failed"] == (w.min_units if trace else last["attempted"])
