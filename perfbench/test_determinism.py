"""Self-checks of the benchmark: its metric lists and its determinism.

    python3 perfbench/test_determinism.py [WORKLOAD ...]
    python3 -m pytest -q perfbench/test_determinism.py

Two traced runs with one seed must give identical per-layer counts, and
two untraced runs with one seed identical item outputs.  All four
workloads take about six minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 5


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    record = run.OUT / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(record.read_text())


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    counts = [name for name, unit in run.PER_LAYER if unit == "count"]
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["outputs_digest"] == second["outputs_digest"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_outputs_repeat(workload):
    assert bench(workload, 0)["outputs_digest"] == bench(workload, 0)["outputs_digest"]


if __name__ == "__main__":
    test_metric_lists_match_benchmark_json()
    for name in sys.argv[1:] or run.WORKLOADS:
        test_traced_counts_repeat(name)
        test_untraced_outputs_repeat(name)
        print(f"{name}: counts and outputs repeat")
