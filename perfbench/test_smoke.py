"""Smoke test of the benchmark: every workload at reduced size.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once untraced and once traced.  The test asserts that
every metric declared in BENCHMARK.json is printed by name with its unit,
that no output check failed (fail_ratio 0), that every per-layer metric
has its documented target in README.md, and that a checkout without the
treecut sources exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"]) for line in lines[:-1])
    assert "fail_ratio 0.0 ratio" in lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_per_layer_metrics_have_documented_targets():
    readme = (HERE / "README.md").read_text(encoding="utf-8")
    for m in DECLARED["per_layer"]:
        assert f"| `{m['name']}` |" in readme, m["name"]


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "exact_dp", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
