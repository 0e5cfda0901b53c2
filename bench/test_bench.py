"""Tests of the benchmark itself: run with `python -m pytest bench`.

They check the seed contract, that every listed span records calls on its
workload, that each workload stresses the layer it was chosen for, and
that BENCHMARK.json names exactly the metrics and workloads the code emits.
"""

import json

import pytest

import run
from spans import SpanStats
from workloads import OFFSET_MAX, OFFSET_MIN, WORKLOADS, check_run, config_text, make_config


@pytest.fixture(scope="module")
def program():
    return run.import_program()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_config_text_is_a_function_of_the_seed(name):
    wl = WORKLOADS[name]
    first = make_config(name, 7, "out")
    assert config_text(first) == config_text(make_config(name, 7, "out"))
    assert first["mu_offsets"] != make_config(name, 8, "out")["mu_offsets"]
    offsets = first["mu_offsets"]
    assert len(set(offsets)) == wl.shifts
    assert sum(off < 0 for off in offsets) == wl.shifts // 2
    assert all(OFFSET_MIN <= abs(off) <= OFFSET_MAX for off in offsets)
    assert first["seed"] == 7
    assert set(first.get("dump_solutions", [])) <= set(offsets)
    assert len(first.get("dump_solutions", [])) == wl.dumps


def test_missing_outputs_fail_the_run_instead_of_the_benchmark(tmp_path):
    cfg = make_config("linear_fine", 1, str(tmp_path))
    assert check_run(WORKLOADS["linear_fine"], cfg, 0, tmp_path)[0].startswith("unreadable")
    assert check_run(WORKLOADS["linear_fine"], cfg, 4, tmp_path) == ["exit code 4"]


@pytest.mark.parametrize(
    "name, stressed, low, high",
    [
        ("linear_fine", "groundstate_space.estimate_c0_delta0", 0.9, 1.0),
        ("semilinear_sweep", "semilinear_solver.two_start_diagnostics", 0.5, 1.0),
        ("system_sweep", "coop_system.system_two_start", 0.5, 1.0),
    ],
)
def test_traced_run_records_every_span_and_the_intended_stress(
    program, monkeypatch, name, stressed, low, high
):
    monkeypatch.chdir(run.ROOT)
    runner = run.Runner(program, name, seed=3)
    tracer, _, _ = run.traced_runs(runner, seconds=0.0)
    stats = SpanStats(tracer.spans)
    assert runner.failures == []
    assert stats.problems(runner.wl.spans) == []
    assert low <= stats.share(stressed) <= high
    if name != "linear_fine":
        assert stats.share("groundstate_space.estimate_c0_delta0") <= 0.3


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()
    }
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        entry[:3] for entry in run.PER_LAYER
    ]
