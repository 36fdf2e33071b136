"""Smoke test of the benchmark itself, on tiny graphs.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced, so every stage, wrapper and
check executes once, and checks the result line against BENCHMARK.json.
Then feeds each correctness check a doctored output to show it fires.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_clean(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_every_wrapper_fires():
    called = set()
    for w in SPEC["workloads"]:
        record = BENCH_DIR / "results" / f"{w['name']}-seed3-trace1-tiny.json"
        if not record.exists():
            assert bench(w["name"], 1).returncode == 0
        calls = json.loads(record.read_text())["span_calls"]
        called |= {name for name, count in calls.items() if count}
    assert {name for _, _, name, _ in tracing.TARGETS} <= called


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    done = bench("smallworld", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ---- each check catches a wrong output ----

# path 0-1-2-3: one component, diameter 3, N(t) = 4, 10, 14, 16
PATH = (4, np.array([0, 1, 2]), np.array([1, 2, 3]))
CURVE = [4.0, 10.0, 14.0, 16.0]
ANF_TABLE = "run registers seed iterations N(T) truncated\n0 64 1 3 16.0 no\n"


def write_outputs(d, values=CURVE, iterations=3, diameter=3, exact=True):
    run_record = {"values": values, "monotone_values": list(np.maximum.accumulate(values)),
                  "iterations": iterations}
    (d / "runs.json").write_text(json.dumps([run_record]))
    (d / "stats.json").write_text(json.dumps({"n": 4, "runs": 1, "iterations": iterations}))
    (d / "diameter.json").write_text(json.dumps({"exact": exact, "diameter": diameter}))


def failures(d, table=ANF_TABLE):
    spec = {"anf": ["-m", "64", "-r", "1"], "diameter": ["--giant"]}
    outcome = run.Outcome()
    run.check_outputs(d, table, spec, run.Reference(PATH), outcome)
    return outcome.failures


def test_reference_of_a_path():
    ref = run.Reference(PATH)
    assert (ref.n, ref.arcs, ref.components, ref.pairs, ref.diameter) == (4, 6, 1, 16.0, 3)


def test_checks_pass_on_true_outputs(tmp_path):
    write_outputs(tmp_path)
    assert failures(tmp_path) == []


@pytest.mark.parametrize("doctor, message", [
    (dict(diameter=2), "certified diameter"),
    (dict(exact=False), "certified diameter"),
    (dict(values=[4.0, 10.0, 14.0, 16.0, 16.0], iterations=4), "exceed diameter"),
    (dict(values=[4.0, 10.0, 14.0, 30.0]), "mean N(T)"),
    (dict(values=[4.0, 10.0, 14.0, 16.0], iterations=2), "truncated"),
])
def test_checks_catch_wrong_outputs(tmp_path, doctor, message):
    write_outputs(tmp_path, **doctor)
    assert any(message in f for f in failures(tmp_path))


def test_check_catches_truncated_run_in_table(tmp_path):
    write_outputs(tmp_path)
    assert any("truncated" in f for f in failures(tmp_path, ANF_TABLE.replace("no", "yes")))


def test_check_catches_decreasing_curve(tmp_path):
    write_outputs(tmp_path)
    record = json.loads((tmp_path / "runs.json").read_text())
    record[0]["monotone_values"] = [4.0, 10.0, 9.0, 16.0]
    (tmp_path / "runs.json").write_text(json.dumps(record))
    assert any("nondecreasing" in f for f in failures(tmp_path))


def test_check_catches_a_lost_arc():
    ok, lost = run.Outcome(), run.Outcome()
    edges = "0 1\n1 0\n1 2\n2 1\n2 3\n3 2\n"
    run.check_arcs(edges, run.Reference(PATH), ok)
    run.check_arcs(edges[:-4], run.Reference(PATH), lost)
    assert ok.failures == [] and lost.failures


def test_stage_past_its_timeout_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CHILD_MAIN", "import time\ntime.sleep(60)")
    monkeypatch.setattr(run, "STAGE_TIMEOUT_S", 0.5)
    rc, wall, rss, _ = run.hbgraph([], tmp_path, "slow")
    assert rc != 0 and wall == 0.0


def test_unsteady_flags_scattered_stage_times():
    steady = {"import": [1.0], "anf": [2.0], "stats": [0.3] * 3, "diameter": [0.4] * 2}
    samples = [dict(steady, anf=[2.0 * (1 + k % 2)]) for k in range(6)]
    assert set(run.unsteady(samples)) == {"anf_s"}
    assert run.unsteady([steady] * 6) == {}
