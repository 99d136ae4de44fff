"""Every committed BENCH_*.json benchmark record has the fields that make a
speed claim checkable: the parent commit, the environment (grid size, numpy
version, CPU count), the seeds, and the final JSON line of `bench/run.py`
for the parent and the change on every workload, untraced and traced."""
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _metric_names(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def _check_result(result, names):
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] > 0
    assert 0 <= result["failed"] <= result["attempted"]
    metrics = result["metrics"]
    assert names <= set(metrics)
    for metric in metrics.values():
        assert isinstance(metric["unit"], str)
        assert isinstance(metric["value"], (int, float))


def test_at_least_one_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_required_fields(path):
    doc = json.loads(path.read_text())
    assert re.fullmatch(r"[0-9a-f]{40}", doc["parent_commit"])
    assert "bench/run.py" in doc["command"]
    for side in ("parent", "change"):
        assert doc["pytest_wall_s"][side] > 0
    assert doc["workloads"]
    trace_names = {"trace0": _metric_names("end_to_end"),
                   "trace1": _metric_names("per_layer")}
    for name, workload in doc["workloads"].items():
        env = workload["environment"]
        assert env["workload"] == name
        assert isinstance(env["n_points"], int) and env["n_points"] >= 16
        assert re.fullmatch(r"\d+\.\d+\.\d+\S*", env["numpy"])
        assert isinstance(env["nproc"], int) and env["nproc"] >= 1
        for trace, names in trace_names.items():
            runs = workload[trace]
            assert runs["seconds"] > 0
            seeds = runs["seeds"]
            assert seeds and all(isinstance(s, int) for s in seeds)
            for side in ("parent", "change"):
                assert len(runs[side]) == len(seeds)
                for result in runs[side]:
                    _check_result(result, names)


def test_per_layer_metrics_name_traced_functions(monkeypatch):
    """`bench/run.py` raises KeyError for a `.calls`, `.self_s` or
    `.us_per_call` metric whose name the tracer never wrapped, so deleting
    or renaming a benchmarked function fails here, not only in the bench
    suite."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import qcollapse.cli  # noqa: F401  (imports every layer the tracer wraps)
    from tracer import Tracer

    with Tracer().installed() as tracer:
        traced = set(tracer.names)
    named = {m.rsplit(".", 1)[0] for m in _metric_names("per_layer")
             if m.endswith((".calls", ".self_s", ".us_per_call"))}
    assert named - traced == set()


@pytest.mark.parametrize("name", WORKLOADS)
def test_small_workload_keeps_its_traced_counts(name, tmp_path, monkeypatch):
    """Each benchmark workload, at its small size, runs clean and makes
    exactly the traced calls `bench/workloads.py` derives from its config."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import qcollapse.cli  # noqa: F401  (imports every layer the tracer wraps)
    from qcollapse.scenarios import parse_config, run
    from tracer import Tracer
    from workloads import WORKLOADS as BENCH_WORKLOADS, config_text

    workload = BENCH_WORKLOADS[name]
    cfg = workload.config(7, True)
    with Tracer().installed() as tracer:
        manifest = run(parse_config(config_text(cfg)), str(tmp_path))
    assert manifest.ok, [a.detail for a in manifest.assertions]
    expected = workload.expected_counts(cfg)
    assert {k: tracer.calls[k] for k in expected} == expected
