"""The standard verification set of `scripts/compare_artifacts.py hash`,
its per-column CSV hashes, and the report of its `diff` on synthetic hash
files: artifact hashes, changed CSV columns, ok flags, and each run's
directory name, assertions and error type."""
import copy
import sys
from pathlib import Path

from qcollapse.scenarios import REGISTRY, parse_config

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from compare_artifacts import (_column_hashes, _diff,  # noqa: E402
                               standard_configs)


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
    [name, passed] list."""
    runs = {
        "cat_gate": {"run_dir": "cat_gate-0a1b2c3d-noseed", "ok": True,
                     "files": {"verdicts.json": "aa"}, "columns": {},
                     "assertions": [["branch_0_is_packet", True],
                                    ["superposition_not_packet", True]],
                     "error_type": None},
        "measurement_run": {"run_dir": "measurement_run-4e5f6a7b-seed3",
                            "ok": True, "files": {"summary.json": "bb"},
                            "columns": {},
                            "assertions": [["transition_detected", True],
                                           ["pointer_distinguishability",
                                            True]],
                            "error_type": None}}
    for label, checks in assertions.items():
        runs[label]["assertions"] = checks
    return runs


def test_identical_runs():
    report = _diff(_runs(), _runs())
    assert "All 2 artifacts of 2 runs are sha256-identical" in report
    assert ("Run directories, assertions and error types: no change in the "
            "2 runs both files hold.") in report
    assert "- `" not in report


def test_a_renamed_run_directory_is_reported_with_identical_artifacts():
    """A config hash or seed part that moves renames the run directory,
    which the artifact hashes alone do not show."""
    head = _runs()
    head["measurement_run"]["run_dir"] = "measurement_run-99999999-seed3"
    report = _diff(_runs(), head)
    assert "All 2 artifacts of 2 runs are sha256-identical" in report
    assert [line for line in report.splitlines() if line.startswith("- ")] \
        == ["- `measurement_run`: run directory measurement_run-4e5f6a7b-seed3"
            " -> measurement_run-99999999-seed3"]


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


def test_column_hashes_skip_comment_lines(tmp_path):
    """One hash per header column; a `#` line is not a row, and a changed
    value moves only its own column's hash."""
    path = tmp_path / "snapshot.csv"
    path.write_text("x,re,im\n# grid n_points=2\n0,1,2\n1,3,4\n")
    base = _column_hashes(path)
    path.write_text("x,re,im\n# grid n_points=16\n0,1,2\n1,3,5\n")
    head = _column_hashes(path)
    assert sorted(base) == ["im", "re", "x"]
    assert [c for c in base if base[c] != head[c]] == ["im"]


def test_a_differing_csv_lists_its_changed_columns():
    base = _runs()
    base["measurement_run"]["files"]["diagnostics.csv"] = "d1"
    base["measurement_run"]["columns"] = {
        "diagnostics.csv": {"t": "t1", "norm": "n1", "exp_x": "x1"}}
    head = copy.deepcopy(base)
    head["measurement_run"]["files"]["diagnostics.csv"] = "d2"
    head["measurement_run"]["columns"]["diagnostics.csv"]["norm"] = "n2"
    assert [line for line in _diff(base, head).splitlines()
            if line.startswith(("- ", "  - "))] \
        == ["- `measurement_run/diagnostics.csv`", "  - columns: `norm`"]
