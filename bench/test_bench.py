"""The benchmark's own test: every workload at reduced size, untraced and
traced, through the same command line the benchmark is run with.

    python3 -m pytest bench -q

It lives outside the Tier-1 testpaths (``tests/``) because it takes about
a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_and_no_run_fails(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec})
    table = {line.split()[0]: line.split() for line in lines[:-1]}
    for m in spec:
        assert table[m["name"]][-1] == m["unit"]
    assert float(table["failed_ratio"][1]) == 0.0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    cfg = WORKLOADS[workload].config(7, True)
    for name, count in WORKLOADS[workload].expected_counts(cfg).items():
        assert result["metrics"][f"{name}.calls"]["value"] == count


def test_analytic_counts_at_full_size():
    counts = {name: w.expected_counts(w.config(1, False)) for name, w in
              WORKLOADS.items()}
    assert counts == {
        "chain": {"propagate.step": 4500, "propagate.translate": 3000,
                  "diagnostics.packet_summary": 4510},
        "ensemble": {"collapse.sample_collapse": 40000},
        "trajectory": {"propagate.evolve": 1,
                       "diagnostics.packet_summary": 101},
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "chain", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
