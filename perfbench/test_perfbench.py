"""Self-check of the benchmark on tiny inputs; runs in seconds.

Usage: python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=wl.WORKLOADS)
def tiny(request):
    runs = {trace: run.run_workload(request.param, 7, 0, trace, tiny=True)
            for trace in (False, True)}
    return {**runs, "workload": request.param}


def test_tiny_runs_pass_and_print_every_metric(tiny):
    for trace, names in ((False, "end_to_end"), (True, "per_layer")):
        res = tiny[trace]["result"]
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert list(res["metrics"]) == [m["name"] for m in SPEC[names]]
        for name, m in res["metrics"].items():
            assert math.isfinite(m["value"]), name
    for name, m in tiny[False]["result"]["metrics"].items():
        assert m["value"] > 0, name


def test_self_times_account_for_traced_wall(tiny):
    m = {k: v["value"] for k, v in tiny[True]["result"]["metrics"].items()}
    total = sum(m[f"{layer}.self_s"] for layer in run.LAYERS) + m["trace.unaccounted_s"]
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9)


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in run.per_layer_table()]
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_inputs_follow_the_seed_within_the_band():
    for w in wl.WORKLOADS:
        assert wl.make_inputs(w, 5) == wl.make_inputs(w, 5)
        assert wl.make_inputs(w, 5) != wl.make_inputs(w, 6)
    a = wl.make_inputs("counts", 9)
    assert abs(a["x"] / 1e8 - 1) <= wl.BAND


def test_golden_matches_the_default_seed_inputs():
    for w in wl.WORKLOADS:
        assert wl.load_golden(w, wl.make_inputs(w, wl.DEFAULT_SEED))


def test_checks_catch_wrong_results(tiny):
    passes = tiny[False]["passes"]
    workload = tiny["workload"]
    values = json.loads(json.dumps(passes[0]["values"]))
    inputs = wl.make_inputs(workload, 7, tiny=True)
    meta = {"abel_rel_tol": 1e-10}
    if workload == "counts":
        values["tk2_w2"] += 1
        assert set(wl.check_counts(values, inputs, meta)) == {"tk2_w1", "tk2_w2"}
    elif workload == "wsum":
        values["route_g2"] *= 1 + 1e-6
        assert set(wl.check_wsum(values, inputs, meta)) == {"grid_g2", "route_g2"}
    else:
        values["experiment_apsum_json"] = values["experiment_apsum_json"].replace("0.", "0.9", 1)
        values["count_tc"] = "1\n"
        assert set(wl.check_cli(values, inputs, meta)) == {
            "count_t", "count_tc", "experiment_apsum_csv", "experiment_apsum_json"}
        frozen = dict(passes[0]["values"])
        assert set(wl.check_golden_cli(values, frozen)) == {"count_tc", "experiment_apsum_json"}


def test_fails_without_the_program():
    bare = HERE.parent / ".bench_build" / "perfbench-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wsum", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
