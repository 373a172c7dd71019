"""The benchmark's own tests.

Run from the repository root with::

    python3 -m pytest perfbench/selftest.py -q

(The file name keeps it out of the repository's default test collection:
the determinism tests start a dozen benchmark processes.)
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import common

common.use_source_tree()

RUN = common.ROOT / "perfbench" / "run.py"
WORKLOADS = ("factual_gcn", "serve_edits", "localized_scale")


def run_bench(workload: str, seed: int, trace: int = 0, cwd: Path = common.ROOT):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "12", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    detail = next((json.loads(l[7:]) for l in lines if l.startswith("detail ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result, detail


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_work_and_answers(workload):
    from perfbench import run

    runs = [run_bench(workload, seed=5) for _ in range(2)]
    for proc, result, detail in runs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.END_TO_END)
    (_, _, first), (_, _, second) = runs
    assert first["work"] == second["work"]
    assert first["digest"] == second["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    from perfbench import trace

    proc, result, _ = run_bench(workload, seed=3, trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # The traced run also asserts it did the untraced run's work.
    assert result["correct"], proc.stdout
    assert set(result["metrics"]) == set(trace.per_layer_units())
    assert "unattributed" in proc.stdout and "tracing overhead" in proc.stdout
    spans = common.OUT_DIR / f"spans-{workload}-seed3.json"
    assert json.loads(spans.read_text())["spans"]


def test_benchmark_json_names_every_metric():
    from perfbench import run, trace

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        trace.per_layer_units()
    )


def test_reference_check_rejects_a_corrupted_response():
    from perfbench import factual_gcn

    cfg = factual_gcn.config("tiny", 12)
    exes = factual_gcn.build(cfg)
    request = factual_gcn.requests_for(factual_gcn.subject_pool(exes, cfg))[0]
    response = exes.service.explain_many([request], max_workers=1)[0]
    reference = factual_gcn.build(cfg)
    reference.set_full_rebuild(True)

    def answer(req):
        return reference.service.explain_many([req], max_workers=1)[0]

    assert common.reference_mismatches([(0, response)], answer) == []
    explanation = response.explanation
    first = explanation.attributions[0]
    corrupted = dataclasses.replace(
        response,
        explanation=dataclasses.replace(
            explanation,
            attributions=[dataclasses.replace(first, value=first.value + 1e-12)]
            + list(explanation.attributions[1:]),
        ),
    )
    assert common.reference_mismatches([(7, corrupted)], answer) == [7]


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark cannot produce a result."""
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        common.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "factual_gcn",
         "--seed", "1", "--seconds", "12", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
