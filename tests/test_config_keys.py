"""`scripts/config_keys.py`: every key each scenario accepts, expanded from
`ACCEPTED` and the scenario's reads to section fields."""
import sys
from pathlib import Path

from qcollapse import scenarios

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from config_keys import accepted_keys, main  # noqa: E402


def keys_of(name):
    return [line.split(": ")[1] for line in accepted_keys(scenarios)
            if line.startswith(f"{name}: ")]


def test_sections_expand_to_their_fields():
    keys = keys_of("measurement_run")
    assert [k for k in keys if k.startswith("coupling.")] == [
        "coupling.shift_velocity", "coupling.tau"]
    assert [k for k in keys if k.startswith("potential.")] == [
        "potential.barrier_height", "potential.center", "potential.kind",
        "potential.omega", "potential.well_separation"]
    assert "evolution.dt" in keys and "evolution.n_steps" not in keys
    assert keys == sorted(keys)


def test_every_scenario_lists_the_common_inputs():
    for name in scenarios.SCENARIOS:
        keys = keys_of(name)
        assert {"scenario", "packet.sigma", "grid.n_points"} <= set(keys), name
        assert "output_dir" not in keys, name
    for key in ("physics.mass", "physics.hbar"):
        assert [name for name in scenarios.SCENARIOS
                if key in keys_of(name)] == [
            "free_spread", "harmonic_coherent", "measurement_run",
            "born_ensemble"]
    assert [name for name in scenarios.SCENARIOS if "seed" in keys_of(name)] \
        == ["collapse_sample", "measurement_run", "born_ensemble"]
    assert not [k for k in keys_of("free_spread")
                if k.startswith(("coupling.", "potential.", "gate."))]


def test_main_prints_the_lines_of_the_given_source(capsys):
    assert main([str(ROOT / "src")]) == 0
    assert capsys.readouterr().out.splitlines() == accepted_keys(scenarios)
