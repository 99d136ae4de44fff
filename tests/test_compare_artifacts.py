"""The standard verification set of `scripts/compare_artifacts.py hash`,
and the report of its `diff` on synthetic hash files: artifact hashes, ok
flags, and each run's assertions and error type."""
import sys
from pathlib import Path

from qcollapse.scenarios import REGISTRY, parse_config

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from compare_artifacts import _diff, standard_configs  # noqa: E402


def test_standard_set_is_the_check_and_bench_configs_and_parses():
    """Six check configs and eight bench configs under the labels older
    hash files use; each text parses, and nothing runs."""
    texts = standard_configs(REGISTRY)
    assert sorted(texts) == sorted([
        "free_spread", "harmonic_coherent", "cat_gate", "collapse_sample",
        "measurement_run", "born_ensemble",
        "bench_chain", "bench_ensemble", "bench_trajectory",
        "bench_ensemble_full_seed1", "bench_ensemble_full_seed3",
        "bench_chain_full_seed1", "bench_trajectory_full_seed1",
        "bench_chain_full_seed5"])
    scenario_of = {"chain": "measurement_run", "ensemble": "collapse_sample",
                   "trajectory": "harmonic_coherent"}
    for label, text in texts.items():
        cfg = parse_config(text)
        if label in REGISTRY:
            assert cfg.scenario == label
        else:
            assert cfg.scenario == scenario_of[label.split("_")[1]]
            assert (cfg.grid.n_points == 1024) == ("_full_" not in label)


def _runs(**assertions):
    """Two runs with one artifact each; `assertions` overrides a run's
    [name, passed] list, and None drops its assertions and error type."""
    runs = {
        "cat_gate": {"ok": True, "files": {"verdicts.json": "aa"},
                     "assertions": [["branch_0_is_packet", True],
                                    ["superposition_not_packet", True]],
                     "error_type": None},
        "measurement_run": {"ok": True, "files": {"summary.json": "bb"},
                            "assertions": [["transition_detected", True],
                                           ["pointer_distinguishability",
                                            True]],
                            "error_type": None}}
    for label, checks in assertions.items():
        if checks is None:
            del runs[label]["assertions"], runs[label]["error_type"]
        else:
            runs[label]["assertions"] = checks
    return runs


def test_identical_runs():
    report = _diff(_runs(), _runs())
    assert "All 2 artifacts of 2 runs are sha256-identical" in report
    assert "no change in the 2 of 2 runs" in report
    assert "- `" not in report


def test_one_removed_assertion_is_listed_for_its_run_only():
    head = _runs(measurement_run=[["transition_detected", True]])
    report = _diff(_runs(), head)
    assert "All 2 artifacts of 2 runs are sha256-identical" in report
    assert [line for line in report.splitlines() if line.startswith("- ")] \
        == ["- `measurement_run`: assertion `pointer_distinguishability` "
            "removed (was PASS)"]


def test_added_and_flipped_assertions_and_error_type():
    head = _runs(cat_gate=[["branch_0_is_packet", False],
                           ["superposition_not_packet", True],
                           ["branch_1_is_packet", True]])
    head["cat_gate"].update(ok=False, error_type="ValidationError")
    lines = [line for line in _diff(_runs(), head).splitlines()
             if line.startswith("- ")]
    assert lines == [
        "- `cat_gate`: ok True -> False",
        "- `cat_gate`: error type None -> ValidationError",
        "- `cat_gate`: assertion `branch_0_is_packet` PASS -> FAIL",
        "- `cat_gate`: assertion `branch_1_is_packet` added (PASS)"]


def test_base_without_assertions_compares_files_only():
    base = _runs(cat_gate=None, measurement_run=None)
    head = _runs(measurement_run=[])
    head["cat_gate"]["files"]["verdicts.json"] = "cc"
    report = _diff(base, head)
    assert [line for line in report.splitlines() if line.startswith("- ")] \
        == ["- `cat_gate/verdicts.json`"]
    assert "no change in the 0 of 2 runs" in report
