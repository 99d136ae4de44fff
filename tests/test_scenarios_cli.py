import csv
import dataclasses
import importlib.util
import inspect
import json
import math
import os
import platform
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from qcollapse import measurement, scenarios
from qcollapse.cli import main
from qcollapse.collapse import decompose, overlap_limit
from qcollapse.errors import (BoundaryClipping, NotWeaklyInterfering,
                              ParseError, TransitionNotReached,
                              ValidationError)
from qcollapse.grid import make_gaussian, superpose
from qcollapse.propagate import POTENTIAL_FIELDS, Potential, evolve
from qcollapse.scenarios import (
    DIAG_HEADER,
    CouplingConfig,
    EvolutionConfig,
    GateConfig,
    Grid1D,
    PacketSpec,
    PhysicalParams,
    ScenarioConfig,
    WaveFunction,
    parse_config,
    run,
)

FREE = "scenario: free_spread\n"

CAT = """
scenario: cat_gate
coefficients: [0.6, 0.8]
packet: {center: 12.0, sigma: 1.0, separation: 14.0}
"""

COLLAPSE = """
scenario: collapse_sample
coefficients: [0.6, 0.8]
seed: 7
n_samples: 400
packet: {sigma: 1.0, separation: 16.0}
"""

MEASUREMENT = """
scenario: measurement_run
grid: {x_min: -40.0, x_max: 120.0, n_points: 2048}
coefficients: [0.6, 0.8]
seed: 3
evolution: {dt: 0.01, record_every: 50}
coupling: {shift_velocity: 1.0, tau: 15.0}
"""

BORN = """
scenario: born_ensemble
grid: {x_min: -40.0, x_max: 120.0, n_points: 2048}
coefficients: [0.6, 0.8]
seed: 11
n_samples: 1500
evolution: {dt: 0.01, record_every: 50}
"""

# The d=4, v=1, tau=40 chain on a 1024-point grid: branch 3 reaches the grid
# edge at t=28.8, long before tau, and would end at 140, wrapped round to -20.
WRAPAROUND = """
scenario: measurement_run
grid: {x_min: -40.0, x_max: 120.0, n_points: 1024}
coefficients: [0.5, 0.5, 0.5, 0.5]
seed: 1
evolution: {dt: 0.05, record_every: 10}
coupling: {shift_velocity: 1.0, tau: 40.0}
"""

# The check config of measurement_run with d=8 equal coefficients: branch 7
# would end at 20 + 7 * 15 = 125, past x_max = 120.  Without a parse-time
# check it ran 247 of 300 steps into BoundaryClipping in branch 7.
OVERRUN = f"""
scenario: measurement_run
grid: {{x_min: -40.0, x_max: 120.0, n_points: 1024}}
coefficients: {[math.sqrt(1 / 8)] * 8}
seed: 3
evolution: {{dt: 0.05, record_every: 10}}
"""

# A chain whose branch 1 moves at v = 5 to 20 + 5 tau, and whose last step
# first puts more than EDGE_MASS_TOL on the grid edge at tau = 17.3.
# DEFAULT_TRAP is its default coherent trap (sigma = 1), written out.
FAST_CHAIN = """
scenario: measurement_run
grid: {x_min: -40.0, x_max: 120.0, n_points: 1024}
coefficients: [0.6, 0.8]
seed: 3
evolution: {dt: 0.05, record_every: 10}
coupling: {shift_velocity: 5.0, tau: TAU}
"""
DEFAULT_TRAP = "potential: {kind: harmonic, omega: 0.5, center: 20.0}\n"

FREE_POTENTIAL = "potential: {kind: free}\n"
# (coefficients, tau refused, tau that runs) on the check grid at v = 1: the
# last whole step of dt = 0.05 on either side of sigma sqrt(8 ln(1 /
# overlap_limit(d))), 12.14 at d = 2 and 12.37 at d = 3.
COLLAPSE_BOUNDS = [("[0.6, 0.8]", 12.1, 12.2),
                   ("[0.48, 0.6, 0.64]", 12.35, 12.4)]

HBAR_HALF = """
scenario: measurement_run
physics: {hbar: 0.5}
grid: {x_min: -40.0, x_max: 120.0, n_points: 1024}
coefficients: [0.6, 0.8]
seed: 3
evolution: {dt: 0.05, record_every: 10}
"""

# The benchmark's full-size `ensemble` config at seed 451: a correct sampler
# whose branch 1 frequency lies 3.3 sigma from its probability.
ENSEMBLE_451 = """
scenario: collapse_sample
grid: {x_min: -40.0, x_max: 120.0, n_points: 2048}
coefficients: [0.48, 0.6, 0.64]
packet: {center: 0.0, separation: 16.0}
n_samples: 40000
seed: 451
"""

FREE_WRAP = """
scenario: free_spread
grid: {x_min: -20.0, x_max: 20.0, n_points: 1024}
packet: {center: 0.0, sigma: 1.0, momentum: 8.0}
evolution: {dt: 0.01, n_steps: 500, record_every: 100}
"""


# The benchmark's workload configs, loaded from bench/workloads.py.
_spec = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parent.parent / "bench"
    / "workloads.py")
WORKLOADS = sys.modules["bench_workloads"] = \
    importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(WORKLOADS)

GATE_KEYS = [("gate: {eta: 5.0}", "gate.eta"), ("gate: {k: 2.0}", "gate.k"),
             ("gate: {mass_threshold: 0.95}", "gate.mass_threshold")]
# The 28 (scenario, input, key) cases of a value the scenario's runner never
# reads.  Added to the scenario's check config, each is a ParseError (a
# second `packet:` replaces cat_gate's, as YAML keeps the last).
IGNORED = (
    [("free_spread", snippet, key) for snippet, key in GATE_KEYS]
    + [("free_spread", "packet: {separation: 30.0}", "packet.separation"),
       ("free_spread", "coefficients: [0.6, 0.8]", "coefficients"),
       ("free_spread", "n_samples: 7", "n_samples")]
    + [("harmonic_coherent", snippet, key) for snippet, key in GATE_KEYS]
    + [("harmonic_coherent", "packet: {momentum: 1.5}", "packet.momentum"),
       ("harmonic_coherent", "packet: {separation: 30.0}",
        "packet.separation"),
       ("harmonic_coherent", "coefficients: [0.6, 0.8]", "coefficients"),
       ("harmonic_coherent", "n_samples: 7", "n_samples"),
       ("harmonic_coherent",
        "potential: {kind: double_well, barrier_height: 1.0}",
        "potential.barrier_height"),
       ("harmonic_coherent",
        "potential: {kind: double_well, well_separation: 4.0}",
        "potential.well_separation"),
       ("cat_gate", "n_samples: 7", "n_samples")]
    + [(name, snippet, key) for name in ("cat_gate", "collapse_sample")
       for snippet, key in (("packet: {momentum: 1.5}", "packet.momentum"),
                            ("physics: {hbar: 2.0}", "physics.hbar"))]
    + [("collapse_sample", snippet, key) for snippet, key in GATE_KEYS]
    + [("measurement_run", "packet: {momentum: 1.5}", "packet.momentum"),
       ("measurement_run", "packet: {separation: 30.0}", "packet.separation"),
       ("measurement_run", "n_samples: 7", "n_samples"),
       ("born_ensemble", "packet: {momentum: 1.5}", "packet.momentum"),
       ("born_ensemble", "packet: {separation: 30.0}", "packet.separation")])


def yaml_error(text):
    """The text of the YAMLError that yaml.safe_load raises on `text`."""
    with pytest.raises(yaml.YAMLError) as exc:
        yaml.safe_load(text)
    return str(exc.value)


BAD_YAML = "scenario: [free_spread\n"
# (config, message) of a malformed document, section or value: each is
# refused at parsing, before any scenario-specific check.
MALFORMED = [
    (BAD_YAML, f"malformed config: {yaml_error(BAD_YAML)}"),
    ("- scenario: free_spread\n", "config must be a mapping"),
    (FREE + "grid: 3\n", "section 'grid' must be a mapping"),
    ("scenario: collapse_sample\ncoefficients: [0.6, 0.8]\nseed: 7\n"
     "n_samples: 0\n", "n_samples must be positive"),
    (FREE + "evolution: {n_steps: -1}\n", "n_steps must be non-negative"),
    (FREE + "evolution: {record_every: 0}\n", "record_every must be >= 1"),
    ("scenario: measurement_run\ncoefficients: [0.6, 0.8]\nseed: 3\n"
     "potential: {kind: double_well, well_separation: 0.0}\n",
     "double well needs well_separation > 0"),
    ("scenario: cat_gate\ncoefficients: [0.6, 0.8]\n"
     "gate: {mass_threshold: 1.0}\n", "mass_threshold must lie in (0.5, 1)")]
MALFORMED_IDS = ["yaml", "not_a_mapping", "section", "n_samples", "n_steps",
                 "record_every", "well_separation", "mass_threshold"]


def check_text(scenario):
    return f"scenario: {scenario}\n{scenarios.REGISTRY[scenario].check_config}"


def breathing_trap(omega):
    """A trap at the check config's center whose omega is not the default
    0.5, so the sigma = 1 pointers breathe and the parse-time bounds leave
    them alone."""
    return f"potential: {{kind: harmonic, omega: {omega}, center: 20.0}}\n"


def coupled(tau, potential="", coefficients="[0.6, 0.8]"):
    """The measurement_run check config (d = 2, dt = 0.05, v = 1) coupled
    for tau under `potential`, the default trap if empty, with
    `coefficients`."""
    return (check_text("measurement_run").replace("[0.6, 0.8]", coefficients)
            + f"coupling: {{tau: {tau}}}\n" + potential)


def parsed_before_reads(text):
    """The ScenarioConfig that a config setting only inputs its scenario
    reads parsed to before `Scenario.reads`: grid and packet built from
    their keys, gate only in cat_gate and the chain, physics and evolution
    only in the scenarios that evolve, coupling only in the chain, no
    potential."""
    raw = yaml.safe_load(text)
    name = raw["scenario"]
    chain = name in ("measurement_run", "born_ensemble")
    evolves = chain or name in ("free_spread", "harmonic_coherent")
    coefficients = raw.get("coefficients")
    return ScenarioConfig(
        scenario=name, grid=Grid1D(**raw.get("grid", {})),
        physics=PhysicalParams(**raw.get("physics", {})) if evolves
        else None,
        gate=GateConfig(**raw.get("gate", {}))
        if chain or name == "cat_gate" else None,
        packet=PacketSpec(**raw.get("packet", {})),
        evolution=EvolutionConfig(**raw.get("evolution", {})) if evolves
        else None,
        coupling=CouplingConfig(**raw.get("coupling", {})) if chain else None,
        potential=None,
        coefficients=coefficients and tuple(map(complex, coefficients)),
        seed=raw.get("seed"), n_samples=raw.get("n_samples", 10000))


# Ensemble sizes at the edges of the blocked draw: one block short, exactly
# one, one past one, and one past two.
B = scenarios.DRAW_BLOCK
BLOCK_EDGES = [B - 1, B, B + 1, 2 * B + 1]
BLOCK_EDGE_IDS = ["B-1", "B", "B+1", "2B+1"]


class CountingGenerator:
    """A numpy Generator that counts its random() calls."""

    def __init__(self, generator):
        self.generator = generator
        self.calls = 0

    def random(self, *args):
        self.calls += 1
        return self.generator.random(*args)


class NarrowCoupling(ValidationError):
    """A configuration error of a type defined outside the package."""


def stream_branches(seed, run_dir, n):
    """Branches of n events drawn in one vectorized call from the stream
    default_rng(seed) and looked up in the CDF of the run's probabilities:
    the reference for an ensemble sampled event by event."""
    probs = json.loads((Path(run_dir) / "probabilities.json").read_text())
    cdf = np.cumsum(probs["geometric"])
    u = np.random.default_rng(seed).random(n)
    return np.minimum(np.searchsorted(cdf, u, side="right"),
                      len(cdf) - 1).tolist()


def ensemble_branches(run_dir, name="collapse.jsonl"):
    records = [json.loads(line) for line in
               (Path(run_dir) / name).read_text().splitlines()]
    assert [r["event"] for r in records] == list(range(len(records)))
    return [r["branch"] for r in records]


def assert_canonical_jsonl(path):
    """Every line is exactly what json.dumps writes for its record."""
    lines = path.read_text().splitlines()
    assert lines
    for line in lines:
        assert line == json.dumps(json.loads(line))


def oracle_branches(decomp, seed, n):
    """The branches of n events: one vectorized draw of default_rng(seed)
    looked up in the CDF of the decomposition the ensemble samples."""
    cdf = np.cumsum(decomp.probabilities)
    u = np.random.default_rng(seed).random(n)
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(decomp) - 1)


def oracle_lines(decomp, seed, n):
    """The n lines of an ensemble: json.dumps of each record, with the
    branch from `oracle_branches` and the Born weight of the decomposition
    the ensemble samples."""
    return [json.dumps({"event": i, "branch": int(b),
                        "p": decomp.probabilities[b]}) + "\n"
            for i, b in enumerate(oracle_branches(decomp, seed, n))]


def check_ensemble_lines(tmp_path, monkeypatch, base, name, coefficients,
                         seed, n):
    """Run `base` with these coefficients, seed and n events; its artifact
    `name` must hold exactly the oracle lines."""
    seen = []
    real = scenarios.sample_collapse

    def spy(decomp, u):
        seen.append(decomp)
        return real(decomp, u)

    monkeypatch.setattr(scenarios, "sample_collapse", spy)
    text = (base.replace("coefficients: [0.6, 0.8]",
                         f"coefficients: {coefficients}")
            .replace("seed: 7", f"seed: {seed}")
            .replace("seed: 11", f"seed: {seed}")
            .replace("n_samples: 400", f"n_samples: {n}")
            .replace("n_samples: 1500", f"n_samples: {n}")
            .replace("n_points: 2048", "n_points: 1024"))
    if base is COLLAPSE:
        text += "grid: {x_min: -40.0, x_max: 120.0, n_points: 1024}\n"
    else:
        text = text.replace("dt: 0.01", "dt: 0.05")
    manifest = run(parse_config(text), str(tmp_path))
    assert manifest.error is None
    decomp = seen[0]
    assert len(seen) == n and all(x is decomp for x in seen)
    assert len(decomp) == len(json.loads(coefficients))
    assert (Path(manifest.run_dir) / name).read_text() == \
        "".join(oracle_lines(decomp, seed, n))


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(FREE)
        assert cfg.scenario == "free_spread"
        assert (cfg.grid.x_min, cfg.grid.x_max, cfg.grid.n_points) == \
            (-40.0, 40.0, 1024)
        assert cfg.physics.mass == 1.0 and cfg.physics.hbar == 1.0
        assert cfg.evolution.dt == 0.001
        assert cfg.seed is None

    def test_unknown_section_key(self):
        with pytest.raises(ParseError):
            parse_config("scenario: free_spread\nphysics: {hbar2: 1.0}\n")

    def test_unknown_top_level_key(self):
        with pytest.raises(ParseError):
            parse_config("scenario: free_spread\nbogus: 1\n")

    def test_unknown_scenario(self):
        with pytest.raises(ParseError):
            parse_config("scenario: frobnicate\n")

    def test_unnormalized_coefficients(self):
        with pytest.raises(ValidationError):
            parse_config("scenario: cat_gate\ncoefficients: [0.6, 0.8001]\n")

    @pytest.mark.parametrize("scenario", ["cat_gate", "measurement_run"])
    def test_coefficient_norm_tolerance_is_the_object_states(self, scenario):
        # |sum |c|^2 - 1| = 6.8e-9 exceeds NORM_TOL, which CompositeState
        # applies inside run; parsing must reject what run would.
        with pytest.raises(ValidationError, match="coefficient norm"):
            parse_config(f"scenario: {scenario}\n"
                         "coefficients: [0.70710678, 0.70710678]\n")

    @pytest.mark.parametrize("scenario, snippet, key", [
        ("measurement_run",
         "coefficients: [0.6, 0.8]\nevolution: {n_steps: 7}",
         "evolution.n_steps"),
        ("born_ensemble",
         "coefficients: [0.6, 0.8]\nevolution: {dt: 0.05, n_steps: 7}",
         "evolution.n_steps"),
        ("free_spread", "potential: {kind: harmonic, omega: 2.0}",
         "potential"),
    ])
    def test_a_key_the_scenario_ignores_is_a_parse_error(
            self, scenario, snippet, key):
        seed = "seed: 1\n" if "seed" in scenarios.REGISTRY[scenario].reads \
            else ""
        with pytest.raises(ParseError, match=f"{scenario!r} ignores {key}"):
            parse_config(f"scenario: {scenario}\n{seed}{snippet}\n")

    @pytest.mark.parametrize("scenario", ["free_spread", "harmonic_coherent",
                                          "cat_gate"])
    def test_a_scenario_that_draws_nothing_refuses_a_seed(self, scenario):
        parse_config(check_text(scenario))
        with pytest.raises(ParseError, match=f"{scenario!r} ignores seed$"):
            parse_config(f"{check_text(scenario)}seed: 1\n")

    @pytest.mark.parametrize("scenario, snippet, section", [
        ("cat_gate", "coupling: {tau: 99.0}", "coupling"),
        ("cat_gate", "evolution: {dt: 0.5, n_steps: 7}", "evolution"),
        ("cat_gate", "potential: {kind: harmonic, omega: 2.0}", "potential"),
        ("collapse_sample", "potential: {kind: double_well}", "potential"),
        ("collapse_sample", "evolution: {n_steps: 3}", "evolution"),
    ])
    def test_a_section_the_scenario_does_not_read_is_a_parse_error(
            self, scenario, snippet, section):
        text = f"scenario: {scenario}\n{scenarios.REGISTRY[scenario].check_config}"
        parse_config(f"{text}{section}: {{}}\n")  # an empty section is absent
        with pytest.raises(ParseError,
                           match=f"{scenario!r} ignores {section}"):
            parse_config(f"{text}{snippet}\n")

    def test_a_coupling_that_overruns_the_grid_is_refused(self):
        with pytest.raises(ValidationError, match=(
                r"^coupling overruns the grid: branch 7 ends at x=125 with "
                r"width 1: boundary mass ")):
            parse_config(OVERRUN)

    @pytest.mark.parametrize("potential", ["", DEFAULT_TRAP, FREE_POTENTIAL],
                             ids=["default_trap", "explicit_trap", "free"])
    @pytest.mark.parametrize("coefficients, short, long", COLLAPSE_BOUNDS,
                             ids=["d2", "d3"])
    def test_a_coupling_that_can_never_collapse_is_refused(
            self, potential, coefficients, short, long):
        """Under the default trap or a free potential, adjacent pointers
        tau apart overlap by exp(-tau^2 / 8) at the end: above the limit
        `measure` applies below sigma sqrt(8 ln(1 / overlap_limit(d)))."""
        limit = overlap_limit(coefficients.count(",") + 1)
        with pytest.raises(ValidationError, match=re.escape(
                f"coupling can never collapse: branches {short:g} apart "
                f"overlap by {math.exp(-short**2 / 8):.3g} "
                f"(limit {limit:.3g})")):
            parse_config(coupled(short, potential, coefficients))
        parse_config(coupled(long, potential, coefficients))

    def test_the_collapse_bound_scales_with_packet_sigma(self):
        """At sigma = 2 the d = 2 bound is 24.28: the free pointers' |phi^|^2
        keeps its initial width while they spread."""
        for potential in ("", FREE_POTENTIAL):
            text = coupled("TAU", potential) + "packet: {sigma: 2.0}\n"
            with pytest.raises(ValidationError, match="never collapse"):
                parse_config(text.replace("TAU", "24.25"))
            parse_config(text.replace("TAU", "24.3"))

    @pytest.mark.parametrize("potential, refused", [
        ("", False),
        (FREE_POTENTIAL, True),
        (DEFAULT_TRAP, False)])
    def test_free_coupling_is_judged_at_its_spread_width(self, potential,
                                                        refused):
        """At tau = 40 the trap's branches, given or not, keep width 1 and
        end at 20 and 60; free ones spread to width hypot(1, 20), which puts
        branch 0 on the lower edge."""
        text = check_text("measurement_run") + "coupling: {tau: 40.0}\n"
        if refused:
            with pytest.raises(ValidationError, match="branch 0 ends at x=20 "
                               "with width 20.02"):
                parse_config(text + potential)
        else:
            parse_config(text + potential)

    @pytest.mark.parametrize("text, branch, end", [
        (WRAPAROUND, 3, 140), (FAST_CHAIN.replace("TAU", "30"), 1, 170),
        (FAST_CHAIN.replace("TAU", "17.3") + DEFAULT_TRAP, 1, 106.5)],
        ids=["wraparound", "wraps_back_inside", "explicit_default_trap"])
    def test_an_overrun_is_refused_however_the_branch_ends(self, text,
                                                           branch, end):
        """A branch is judged at its unwrapped final center, so one that
        crosses x_max mid-run is refused even where the periodic grid would
        bring it back inside (140 is -20 and 170 is 10 on [-40, 120]), and
        the default trap written out is judged like the default."""
        with pytest.raises(ValidationError, match=(
                f"^coupling overruns the grid: branch {branch} ends at "
                f"x={end:g} with width 1: ")):
            parse_config(text)

    @pytest.mark.parametrize("text", [
        FAST_CHAIN.replace("TAU", "30"),
        FAST_CHAIN.replace("TAU", "30").replace("dt: 0.05", "dt: 0.2"),
        FAST_CHAIN.replace("TAU", "2") + FREE_POTENTIAL,
        FAST_CHAIN.replace("TAU", "20") + FREE_POTENTIAL],
        ids=["trap_tau30", "trap_dt", "free_tau2", "free_tau20"])
    def test_a_packet_too_narrow_for_the_grid_is_refused(self, text):
        """sigma = 0.3 < 4 dx = 0.625 is refused before any other bound,
        under the trap and under a free potential alike, whether or not its
        spread width (33.3 at tau = 20) would overrun the grid, and before
        the dt bound of the omega = 5.56 trap that sigma sets (0.113)."""
        with pytest.raises(ValidationError, match=(
                r"^packet sigma=0\.3 is below 4\*dx=0\.625; the grid cannot "
                r"resolve the packet$")):
            parse_config(text + "packet: {sigma: 0.3}\n")

    def test_a_packet_that_breathes_below_4_dx_is_judged_at_4_dx(self):
        """sigma = 2 in the omega = 1 trap breathes to width 0.25 at
        t = pi / 2, below 4 dx = 0.3125 on the default grid, and still
        evolves to its forecast width: the end check judges a packet 4 dx
        wide there instead of refusing to build a narrower one."""
        cfg = parse_config("scenario: harmonic_coherent\npacket: {sigma: 2.0}"
                           "\nevolution: {dt: 0.001, n_steps: 1571}\n")
        assert scenarios.forecast(cfg, 1.571)[2] < cfg.grid.min_sigma

    def test_no_standard_config_is_refused_as_an_overrun(self):
        """Every check config, and every benchmark workload config at both
        sizes, parses; the chain configs pass through the overrun check."""
        texts = {name: check_text(name) for name in scenarios.SCENARIOS}
        texts.update((f"{name}-{small}-{seed}",
                      WORKLOADS.config_text(w.config(seed, small)))
                     for name, w in WORKLOADS.WORKLOADS.items()
                     for small in (True, False) for seed in (1, 5))
        chains = [label for label, text in texts.items()
                  if parse_config(text).coupling is not None]
        assert sorted(chains) == ["born_ensemble", "chain-False-1",
                                  "chain-False-5", "chain-True-1",
                                  "chain-True-5", "measurement_run"]

    def test_configs_of_inputs_read_parse_as_before(self):
        texts = [check_text(name) for name in scenarios.SCENARIOS]
        texts += [WORKLOADS.config_text(w.config(seed, small))
                  for w in WORKLOADS.WORKLOADS.values()
                  for small in (True, False) for seed in (1, 5)]
        for text in texts:
            cfg = parse_config(text)
            assert cfg == parsed_before_reads(text), text
            assert cfg.echo == yaml.safe_load(text)

    @pytest.mark.parametrize("kind", POTENTIAL_FIELDS)
    def test_each_potential_kind_parses_to_its_factory(self, kind):
        fields = {name: 2.0 + i
                  for i, name in enumerate(POTENTIAL_FIELDS[kind])}
        section = yaml.safe_dump({"kind": kind, **fields},
                                 default_flow_style=True)
        # on the check grid, where the free chain's spread branches fit
        cfg = parse_config(f"{check_text('measurement_run')}"
                           f"potential: {section}")
        assert cfg.potential == getattr(Potential, kind)(**fields)

    @pytest.mark.parametrize("section, kind", [
        ("{kind: tabulated}", "'tabulated'"),
        ("{kind: Harmonic, omega: 1.0}", "'Harmonic'"),
        ("{omega: 1.0}", "None")])
    def test_a_potential_kind_outside_the_fields_is_refused(self, section,
                                                           kind):
        with pytest.raises(ParseError,
                           match=f"unknown potential kind {kind}"):
            parse_config("scenario: measurement_run\nseed: 1\n"
                         f"coefficients: [0.6, 0.8]\npotential: {section}\n")

    def test_complex_coefficient_forms(self):
        cfg = parse_config(
            "scenario: cat_gate\ncoefficients: [[0.0, 0.6], 0.8]\n")
        assert cfg.coefficients[0] == 0.6j
        assert cfg.coefficients[1] == 0.8
        # PyYAML reads an unquoted 6e-1 as a string; it is the float 0.6.
        cfg = parse_config("scenario: cat_gate\n"
                           "coefficients: [6e-1, [0.0, 8e-1]]\n")
        assert cfg.coefficients == (0.6, 0.8j)

    def test_stochastic_requires_seed(self):
        with pytest.raises(ValidationError):
            parse_config("scenario: collapse_sample\ncoefficients: [1.0]\n")

    def test_readme_config_block_lists_every_key(self):
        """The yaml block under "Config format" in README.md shows every key
        the parser accepts: each single-constructor section its
        constructor's keys, `potential` its kind's, and every top-level key."""
        readme = (Path(__file__).resolve().parent.parent / "README.md"
                  ).read_text()
        section = readme.split("## Config format", 1)[1]
        block = yaml.safe_load(section.split("```yaml\n", 1)[1]
                               .split("```", 1)[0])
        assert set(block) == ({"scenario"} | set(scenarios._SECTIONS)
                              | set(scenarios._KEYS))
        for name, factory in scenarios._SECTIONS.items():
            if isinstance(factory, dict):
                fields = POTENTIAL_FIELDS[block[name]["kind"]]
                assert set(block[name]) == {"kind", *fields}, name
            else:
                keys = inspect.signature(factory).parameters
                assert set(block[name]) == set(keys), name

    def test_measurement_requires_coefficients(self):
        with pytest.raises(ValidationError):
            parse_config("scenario: measurement_run\nseed: 1\n")

    @pytest.mark.parametrize("snippet, key", [
        ("grid: {n_points: abc}", "grid.n_points"),
        ("physics: {mass: null}", "physics.mass"),
        ("seed: true", "seed"),
        ("grid: {n_points: 1024.9}", "grid.n_points"),
        ("seed: 3.9", "seed"),
        ("n_samples: 10.7", "n_samples"),
        ("evolution: {n_steps: 99.5}", "evolution.n_steps"),
        ("gate: {eta: yes}", "gate.eta"),
        ("packet: {sigma: [1.0]}", "packet.sigma"),
        ("grid: {x_max: .inf}", "grid.x_max"),
        ("coefficients: [.nan]", "coefficients"),
        ("coefficients: [[true, 0.0]]", "coefficients"),
        ("potential: {kind: free, omega: 3}", "omega"),
        ("potential: {kind: harmonic, barrier_height: 1}", "barrier_height"),
    ])
    def test_bad_value_is_a_parse_error_naming_the_key(self, snippet, key):
        with pytest.raises(ParseError, match=key):
            parse_config(f"scenario: free_spread\n{snippet}\n")

    def test_nan_coefficient_string_is_a_parse_error(self):
        with pytest.raises(ParseError, match="^coefficients must be a "
                           "finite number, got 'nan'$"):
            parse_config("scenario: cat_gate\ncoefficients: ['nan']\n")

    @pytest.mark.parametrize("value", ['"0.6+0.8j"', '"1e400"'])
    def test_a_coefficient_string_that_is_no_finite_number_is_refused(
            self, value):
        """A coefficient is a number or an [re, im] pair; a complex literal
        is not a third spelling, and a string that overflows is refused like
        `.inf`."""
        with pytest.raises(ParseError, match="^coefficients must be a finite "
                           "number, got '"):
            parse_config(f"scenario: collapse_sample\nseed: 1\n"
                         f"coefficients: [{value}]\n")

    @pytest.mark.parametrize("scenario", scenarios.SCENARIOS)
    def test_physics_mass_is_read_only_where_a_packet_evolves(self,
                                                             scenario):
        """physics.hbar too: a packet that does not evolve reads neither."""
        for key in ("mass", "hbar"):
            text = f"{check_text(scenario)}physics: {{{key}: 2.0}}\n"
            if scenario in ("cat_gate", "collapse_sample"):
                with pytest.raises(ParseError, match=(
                        f"^scenario '{scenario}' ignores physics.{key}$")):
                    parse_config(text)
                assert parse_config(check_text(scenario)).physics is None
            else:
                assert (parse_config(text).physics
                        == PhysicalParams(**{key: 2.0}))

    def test_numeric_strings_and_exact_integers(self):
        cfg = parse_config("scenario: free_spread\n"
                           "evolution: {dt: 1e-3, n_steps: 10}\n"
                           "grid: {n_points: 1024.0}\n")
        assert cfg.evolution.dt == 0.001
        assert cfg.grid.n_points == 1024
        assert isinstance(cfg.grid.n_points, int)
        cfg = parse_config(f"{check_text('collapse_sample')}"
                           "seed: 18446744073709551615\n")
        assert cfg.seed == 18446744073709551615
        cfg = parse_config(f"{check_text('collapse_sample')}"
                           "seed: '18446744073709551615'\n")
        assert cfg.seed == 18446744073709551615
        # PyYAML reads 1e3 and 1.0e3 (no exponent sign) as strings.
        cfg = parse_config("scenario: collapse_sample\n"
                           "coefficients: [0.6, 0.8]\nseed: 1\n"
                           "n_samples: 1e3\n")
        assert cfg.n_samples == 1000 and isinstance(cfg.n_samples, int)
        cfg = parse_config("scenario: free_spread\n"
                           "evolution: {dt: 1e-3, n_steps: 1.0e2}\n")
        assert cfg.evolution.n_steps == 100
        assert isinstance(cfg.evolution.n_steps, int)
        for value in ("2.5e0", "1e400"):
            with pytest.raises(ParseError, match=(
                    f"^evolution.n_steps must be an integer, got '{value}'$")):
                parse_config("scenario: free_spread\n"
                             f"evolution: {{n_steps: {value}}}\n")

    def test_optional_sections_follow_the_registry(self):
        assert parse_config(CAT).evolution is None
        assert parse_config(CAT).coupling is None
        cfg = parse_config(BORN)
        assert cfg.coupling == scenarios.CouplingConfig()
        assert cfg.potential is None


class TestScenarioRuns:
    def test_free_spread(self, tmp_path):
        manifest = run(parse_config(FREE), str(tmp_path))
        assert manifest.ok, [a.detail for a in manifest.assertions]
        run_dir = tmp_path / manifest.run_dir.split("/")[-1]
        lines = (run_dir / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == DIAG_HEADER
        assert len(lines) == 2 + 1000  # header + t=0 + one row per step

    @pytest.mark.parametrize("record_every, calls", [(1, 201), (3, 68)])
    def test_free_spread_summarises_each_state_once(
            self, tmp_path, monkeypatch, record_every, calls):
        """One summary per diagnostics row of the 200-step check config;
        spreading_law reuses the last row when it holds the final state and
        summarises the final state itself only when it does not."""
        seen = []
        real = scenarios.packet_summary

        def counting(psi, *args, **kwargs):
            seen.append(psi)
            return real(psi, *args, **kwargs)

        monkeypatch.setattr(scenarios, "packet_summary", counting)
        text = ("scenario: free_spread\n"
                + scenarios.REGISTRY["free_spread"].check_config)
        cfg = parse_config(text.replace(
            "}", f", record_every: {record_every}}}"))
        manifest = run(cfg, str(tmp_path))
        assert manifest.ok, [a.detail for a in manifest.assertions]
        assert len(seen) == calls

    @pytest.mark.parametrize("shift, failed", [
        (0.0, []), (0.02, ["branch_0_frequency"])])
    def test_ensemble_frequency_band(self, tmp_path, monkeypatch, shift,
                                     failed):
        """A correct sampler passes at seed 451, where its branch 1 lies 3.3
        sigma out.  One that moves `shift` of probability from branch 0 to
        branch 1 fails: branch 0 lands 6.9 sigma low, while branch 1, which
        the seed had put 0.008 low, lands 4.8 sigma high, inside 5.10."""
        real = scenarios.sample_collapse

        def shifted(decomp, u):
            branch = real(decomp, u)
            moved = branch == 0 and u >= decomp.branch_cuts[0] - shift
            return 1 if moved else branch

        monkeypatch.setattr(scenarios, "sample_collapse", shifted)
        manifest = run(parse_config(ENSEMBLE_451), str(tmp_path))
        assert manifest.error is None
        assert [a.name for a in manifest.assertions if not a.passed] == failed

    def test_manifest_lists_only_existing_artifacts(self, tmp_path):
        manifest = run(parse_config(FREE), str(tmp_path))
        run_dir = tmp_path / manifest.run_dir.split("/")[-1]
        doc = json.loads((run_dir / "manifest.json").read_text())
        assert doc["artifacts"]
        for name in doc["artifacts"]:
            assert (run_dir / name).exists()

    def test_manifest_records_environment(self, tmp_path):
        manifest = run(parse_config(COLLAPSE), str(tmp_path))
        doc = json.loads((Path(manifest.run_dir) / "manifest.json")
                         .read_text())
        assert doc["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "system": platform.system(), "machine": platform.machine(),
            "cpu_count": os.cpu_count()}

    def test_harmonic_coherent(self, tmp_path):
        cfg = parse_config("scenario: harmonic_coherent\n"
                           "potential: {kind: harmonic, omega: 1.0}\n"
                           "evolution: {dt: 0.001, n_steps: 6284}\n")
        manifest = run(cfg, str(tmp_path))
        assert manifest.ok, [a.detail for a in manifest.assertions]

    def test_cat_gate(self, tmp_path):
        manifest = run(parse_config(CAT), str(tmp_path))
        assert manifest.ok, [a.detail for a in manifest.assertions]
        run_dir = tmp_path / manifest.run_dir.split("/")[-1]
        verdicts = json.loads((run_dir / "verdicts.json").read_text())
        assert verdicts["branch_0"] and verdicts["branch_1"]
        assert not verdicts["superposition"]

    def test_collapse_sample(self, tmp_path):
        manifest = run(parse_config(COLLAPSE), str(tmp_path))
        assert manifest.ok, [a.detail for a in manifest.assertions]
        run_dir = tmp_path / manifest.run_dir.split("/")[-1]
        probs = json.loads((run_dir / "probabilities.json").read_text())
        assert probs["geometric"] == pytest.approx([0.36, 0.64], abs=1e-8)
        branches = ensemble_branches(run_dir)
        assert len(branches) == 400
        assert branches == stream_branches(7, run_dir, 400)
        assert_canonical_jsonl(run_dir / "collapse.jsonl")

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_collapse_sample_draws_one_stream(self, tmp_path, seed):
        # Three branches, one with a complex coefficient.
        cfg = parse_config(COLLAPSE.replace(
            "coefficients: [0.6, 0.8]",
            "coefficients: [[0.0, 0.48], 0.6, 0.64]\n"
            "grid: {x_min: -40.0, x_max: 120.0, n_points: 1024}")
            .replace("seed: 7", f"seed: {seed}"))
        manifest = run(cfg, str(tmp_path))
        assert manifest.ok, [a.detail for a in manifest.assertions]
        assert ensemble_branches(manifest.run_dir) == \
            stream_branches(seed, manifest.run_dir, 400)

    def test_measurement_run(self, tmp_path):
        manifest = run(parse_config(MEASUREMENT), str(tmp_path))
        assert manifest.ok, [a.detail for a in manifest.assertions]
        run_dir = tmp_path / manifest.run_dir.split("/")[-1]
        doc = json.loads((run_dir / "summary.json").read_text())
        assert doc["t_star"] == pytest.approx(1.0, rel=0.1)
        assert doc["outcome_branch"] in (0, 1)
        assert doc["seed"] == 3

    def test_born_ensemble(self, tmp_path):
        manifest = run(parse_config(BORN), str(tmp_path))
        assert manifest.ok, [a.detail for a in manifest.assertions]
        run_dir = tmp_path / manifest.run_dir.split("/")[-1]
        doc = json.loads((run_dir / "summary.json").read_text())
        assert doc["n_samples"] == 1500
        assert sum(doc["frequencies"]) == pytest.approx(1.0, abs=1e-12)
        branches = ensemble_branches(run_dir, "outcomes.jsonl")
        assert len(branches) == 1500
        assert doc["frequencies"] == [branches.count(i) / 1500
                                      for i in range(2)]
        assert_canonical_jsonl(run_dir / "outcomes.jsonl")

    @pytest.mark.parametrize("coefficients", ["[0.0, 1.0]", "[1.0, 0.0]"])
    def test_born_ensemble_of_an_eigenstate(self, tmp_path, coefficients):
        """Measuring an eigenstate: the re-extracted weight of the |c| = 1
        branch can round above 1, yet its binomial band is zero wide and
        every event picks it."""
        cfg = parse_config(check_text("born_ensemble").replace(
            "[0.6, 0.8]", coefficients))
        manifest = run(cfg, str(tmp_path))
        assert manifest.ok, [a.detail for a in manifest.assertions]
        doc = json.loads((Path(manifest.run_dir) / "summary.json").read_text())
        assert doc["frequencies"] == json.loads(coefficients)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("coefficients", [
        "[[0.0, 0.6], 0.8]",
        "[[0.0, 0.48], 0.6, [0.384, -0.512]]",
        "[0.6, [0.24, 0.32], 0.4, [0.0, -0.4], 0.4]",
    ], ids=["d2", "d3", "d5"])
    @pytest.mark.parametrize("base, name", [(COLLAPSE, "collapse.jsonl"),
                                            (BORN, "outcomes.jsonl")],
                             ids=["collapse_sample", "born_ensemble"])
    def test_ensemble_lines_match_vectorized_oracle(
            self, tmp_path, monkeypatch, base, name, coefficients, seed):
        check_ensemble_lines(tmp_path, monkeypatch, base, name,
                             coefficients, seed, 400)

    @pytest.mark.parametrize("n", [10000, 10001])
    @pytest.mark.parametrize("base, name", [(COLLAPSE, "collapse.jsonl"),
                                            (BORN, "outcomes.jsonl")],
                             ids=["collapse_sample", "born_ensemble"])
    def test_long_ensemble_lines_match_vectorized_oracle(
            self, tmp_path, monkeypatch, base, name, n):
        """10 000 events: the file is written across many buffer flushes;
        10 001 also writes the first 5-digit event index."""
        check_ensemble_lines(tmp_path, monkeypatch, base, name,
                             "[[0.0, 0.48], 0.6, [0.384, -0.512]]", 5, n)

    @pytest.mark.parametrize("n", BLOCK_EDGES, ids=BLOCK_EDGE_IDS)
    @pytest.mark.parametrize("base, name", [(COLLAPSE, "collapse.jsonl"),
                                            (BORN, "outcomes.jsonl")],
                             ids=["collapse_sample", "born_ensemble"])
    def test_block_edge_lines_match_vectorized_oracle(
            self, tmp_path, monkeypatch, base, name, n):
        check_ensemble_lines(tmp_path, monkeypatch, base, name,
                             "[[0.0, 0.48], 0.6, [0.384, -0.512]]", 5, n)

    @pytest.mark.parametrize("n", [1] + BLOCK_EDGES,
                             ids=["1"] + BLOCK_EDGE_IDS)
    def test_ensemble_draws_its_stream_in_blocks(self, tmp_path,
                                                  monkeypatch, n):
        """One random(m) call per DRAW_BLOCK events, and the stream ends
        where random(n) would."""
        real = np.random.default_rng
        made = []

        def counting_rng(seed):
            made.append(CountingGenerator(real(seed)))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        manifest = run(parse_config(
            COLLAPSE.replace("n_samples: 400", f"n_samples: {n}")
            + "grid: {x_min: -40.0, x_max: 120.0, n_points: 1024}\n"),
            str(tmp_path))
        assert manifest.error is None
        [rng] = made
        assert rng.calls == -(-n // B)
        assert rng.generator.random() == real(7).random(n + 1)[-1]

    def test_failed_ensemble_keeps_the_events_it_wrote(
            self, tmp_path, monkeypatch):
        seen = []
        real = scenarios.sample_collapse

        def fails_on_call_1001(decomp, u):
            seen.append(decomp)
            if len(seen) == 1001:
                raise ValidationError("sampler failed")
            return real(decomp, u)

        monkeypatch.setattr(scenarios, "sample_collapse", fails_on_call_1001)
        manifest = run(parse_config(
            COLLAPSE.replace("n_samples: 400", "n_samples: 2000")),
            str(tmp_path))
        assert manifest.error_type is ValidationError
        assert "collapse.jsonl" in manifest.artifacts
        text = (Path(manifest.run_dir) / "collapse.jsonl").read_text()
        assert text == "".join(oracle_lines(seen[0], 7, 1000))

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B, 3 * B + 1],
                             ids=["1", "B-1", "B", "B+1", "2B", "3B+1"])
    def test_each_block_writes_and_counts_the_oracle_events(
            self, tmp_path, monkeypatch, n):
        """collapse.jsonl holds the oracle lines, and the frequencies that
        the ensemble checks and returns are np.bincount of the oracle
        branches over n."""
        seen, returned = [], []
        real_pick, real_ensemble = (scenarios.sample_collapse,
                                    scenarios._sample_ensemble)

        def pick(decomp, u):
            seen.append(decomp)
            return real_pick(decomp, u)

        def ensemble(*args):
            returned.append(real_ensemble(*args))
            return returned[-1]

        monkeypatch.setattr(scenarios, "sample_collapse", pick)
        monkeypatch.setattr(scenarios, "_sample_ensemble", ensemble)
        manifest = run(parse_config(
            COLLAPSE.replace("n_samples: 400", f"n_samples: {n}")),
            str(tmp_path))
        assert manifest.error is None
        decomp = seen[0]
        assert len(seen) == n and all(x is decomp for x in seen)
        assert (Path(manifest.run_dir) / "collapse.jsonl").read_text() == \
            "".join(oracle_lines(decomp, 7, n))
        counts = np.bincount(oracle_branches(decomp, 7, n),
                             minlength=len(decomp))
        assert returned == [(counts / n).tolist()]

    @pytest.mark.parametrize("k", [1, B, B + 1, 1001],
                             ids=["1", "B", "B+1", "1001"])
    def test_a_failed_pick_keeps_exactly_the_events_before_it(
            self, tmp_path, monkeypatch, k):
        """A sample_collapse failure on call k, first or last of its block
        or inside one, leaves the k - 1 oracle lines before it."""
        seen = []
        real = scenarios.sample_collapse

        def fails_on_call_k(decomp, u):
            seen.append(decomp)
            if len(seen) == k:
                raise ValidationError("sampler failed")
            return real(decomp, u)

        monkeypatch.setattr(scenarios, "sample_collapse", fails_on_call_k)
        manifest = run(parse_config(
            COLLAPSE.replace("n_samples: 400", "n_samples: 2000")),
            str(tmp_path))
        assert manifest.error_type is ValidationError
        assert len(seen) == k and "collapse.jsonl" in manifest.artifacts
        assert (Path(manifest.run_dir) / "collapse.jsonl").read_text() == \
            "".join(oracle_lines(seen[0], 7, k - 1))

    def test_ensemble_heap_does_not_grow_with_its_events(self, tmp_path):
        """100 000 events at N = 1024 peak under 4 MiB of traced heap; an
        ensemble that held every event would need about 18 MiB."""
        cfg = parse_config(
            COLLAPSE.replace("n_samples: 400", "n_samples: 100000"))
        tracemalloc.start()
        try:
            manifest = run(cfg, str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert manifest.ok, manifest.error
        assert len(ensemble_branches(manifest.run_dir)) == 100000
        assert peak < 4 * 2**20

    def test_narrow_coupling_fails_before_stepping(self, tmp_path):
        """Branches 2 apart, below 3 apparatus widths, in a trap that the
        forecast does not judge: validate_apparatus refuses them, at
        parsing and, with the coupling set after parsing, in the run."""
        with pytest.raises(ValidationError, match="^coupling too short"):
            parse_config(coupled(2.0, breathing_trap(0.3)))
        cfg = parse_config(coupled(12.0, breathing_trap(0.3)))
        manifest = run(dataclasses.replace(
            cfg, coupling=CouplingConfig(tau=2.0)), str(tmp_path))
        assert not manifest.ok
        assert manifest.error.startswith(
            "ValidationError: coupling too short: branches end 2 apart")
        # failure happens during setup: no diagnostics rows were produced
        run_dir = tmp_path / manifest.run_dir.split("/")[-1]
        diag = run_dir / "diagnostics.csv"
        assert not diag.exists() or len(diag.read_text().splitlines()) <= 1

    def test_pointer_check_uses_the_overlap_limit_of_measure(self,
                                                            tmp_path):
        """In the breathing trap at omega = 0.3 the sigma = 1 pointers have
        the momentum width sigma_p^2 = cos^2(w t) / 4 + (w sin(w t))^2 at
        t = 12, and branches 12 apart overlap by exp(-(12 sigma_p)^2 / 2)
        = 1.44e-7: inside 1e-6, but above the limit of 1e-8 at d = 2 that
        measure applies, so the run fails there, and only there."""
        manifest = run(parse_config(coupled(12.0, breathing_trap(0.3))),
                       str(tmp_path))
        assert manifest.error_type is NotWeaklyInterfering
        assert manifest.error.endswith("(limit 1e-08)")
        pair, worst = re.search(r"branches (\S+) overlap by (\S+) ",
                                manifest.error).groups()
        assert pair == "0,1"
        assert 1e-8 < float(worst) < 1e-6
        wt = 0.3 * 12.0
        sigma_p2 = math.cos(wt) ** 2 / 4 + (0.3 * math.sin(wt)) ** 2
        assert float(worst) == pytest.approx(math.exp(-72.0 * sigma_p2),
                                             rel=0.01)
        assert not [a for a in manifest.assertions
                    if a.name == "pointer_distinguishability"]

    def test_a_trap_that_widens_the_momentum_collapses(self, tmp_path):
        """At omega = 0.6 the pointers' momentum width has grown to 0.565
        by t = 12, so branches 12 apart overlap by 1e-10 and measure
        applies where the default trap's 12 would be refused."""
        manifest = run(parse_config(coupled(12.0, breathing_trap(0.6))),
                       str(tmp_path))
        assert manifest.ok, manifest.error

    @pytest.mark.parametrize("tau, fits", [(17.25, True), (17.3, False)])
    def test_the_overrun_refusal_agrees_with_the_run_time_guard(
            self, tmp_path, tau, fits):
        """parse_config refuses exactly the chain whose run, with its
        coupling set after parsing, ends in BoundaryClipping at its last
        step."""
        text = FAST_CHAIN.replace("TAU", str(tau))
        if not fits:
            with pytest.raises(ValidationError, match="branch 1 ends at"):
                parse_config(text)
        else:
            parse_config(text)
        cfg = parse_config(FAST_CHAIN.replace("TAU", "17.25"))
        manifest = run(dataclasses.replace(
            cfg, coupling=CouplingConfig(shift_velocity=5.0, tau=tau)),
            str(tmp_path))
        assert manifest.ok is fits
        if not fits:
            assert manifest.error.startswith("BoundaryClipping")
            assert manifest.error.endswith(f"in branch 1 at t={tau}")

    def test_failed_chain_keeps_its_diagnostics_rows(self, tmp_path):
        """WRAPAROUND, which parse_config refuses, with its tau = 40
        coupling set after parsing an in-grid tau."""
        cfg = parse_config(WRAPAROUND.replace("tau: 40.0", "tau: 15.0"))
        manifest = run(dataclasses.replace(
            cfg, coupling=CouplingConfig(shift_velocity=1.0, tau=40.0)),
            str(tmp_path))
        assert manifest.error.startswith("BoundaryClipping")
        assert "t=28.8" in manifest.error
        assert "diagnostics.csv" in manifest.artifacts
        lines = (Path(manifest.run_dir) / "diagnostics.csv").read_text() \
            .splitlines()
        assert lines[0] == DIAG_HEADER
        # every 10th step of dt=0.05 until the step that hit the edge
        times = [float(line.split(",")[0]) for line in lines[1:]]
        assert times == pytest.approx([0.5 * i for i in range(58)])

    def test_the_chain_norm_column_reads_the_evolved_branches(
            self, tmp_path, monkeypatch):
        """Each step scales every co-moving frame by 1 + 1e-10, so row i of
        a record_every = 1 chain reads the composite norm (1 + 1e-10)^i,
        until the step guard stops the run."""
        real_step = measurement.step

        def leaky_step(psi, *args):
            out = real_step(psi, *args)
            return WaveFunction(out.grid, out.amplitudes * (1.0 + 1e-10))

        monkeypatch.setattr(measurement, "step", leaky_step)
        cfg = parse_config(check_text("measurement_run").replace(
            "record_every: 10", "record_every: 1"))
        manifest = run(cfg, str(tmp_path))
        with open(Path(manifest.run_dir) / "diagnostics.csv") as fh:
            norms = [float(row["norm"]) for row in csv.DictReader(fh)]
        assert len(norms) >= 2
        assert norms == pytest.approx(
            [(1.0 + 1e-10) ** i for i in range(len(norms))], rel=0, abs=1e-14)

    def test_chain_moments_follow_physics_hbar(self, tmp_path):
        # The sigma = 1 apparatus packet in its coherent trap keeps
        # std p = hbar / (2 sigma) = 0.25, up to the Strang error of
        # dt = 0.05, and std x * std p = hbar / 2.
        cfg = parse_config(HBAR_HALF)
        manifest = run(cfg, str(tmp_path))
        assert manifest.ok, manifest.error
        with open(Path(manifest.run_dir) / "diagnostics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 31
        for row in rows:
            assert float(row["std_p"]) == pytest.approx(0.25, rel=1e-4)
            assert float(row["uncertainty_product"]) == pytest.approx(
                0.25, rel=1e-6)

    def test_free_chain_widths_follow_the_spreading_law(self, tmp_path):
        # Branch 0 of a free-coupling chain spreads like a lone packet:
        # std x = sqrt(1 + (hbar t / (2 m sigma))^2) in every row.
        cfg = parse_config(coupled(15.0, FREE_POTENTIAL))
        manifest = run(cfg, str(tmp_path))
        assert manifest.ok, manifest.error
        with open(Path(manifest.run_dir) / "diagnostics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 31
        for row in rows:
            t = float(row["t"])
            assert abs(float(row["std_x"]) - math.hypot(1.0, 0.5 * t)) <= 1e-9

    def test_free_packet_wrapping_the_grid_fails(self):
        """At momentum 8 the packet would end at x = 40, past x_max = 20, so
        parse_config refuses it; `evolve`, given the same packet, stops
        where it reaches the edge region of [-20, 20], within two time
        units, rather than letting it wrap round the periodic grid."""
        with pytest.raises(ValidationError, match=(
                r"^packets overrun the grid: branch 0 ends at x=40 with "
                r"width 2\.69258: boundary mass 1 exceeds 1e-08$")):
            parse_config(FREE_WRAP)
        cfg = parse_config(FREE_WRAP.replace("n_steps: 500", "n_steps: 100"))
        (psi,) = scenarios._packets(cfg)
        with pytest.raises(BoundaryClipping, match=r" at step 1\d\d$"):
            evolve(psi, Potential.free(), cfg.physics,
                   EvolutionConfig(dt=0.01, n_steps=500))

    def test_unexpected_error_leaves_manifest_and_propagates(
            self, tmp_path, monkeypatch):
        def disk_full(psi, path):
            raise OSError("disk full")

        monkeypatch.setattr(scenarios, "write_snapshot", disk_full)
        with pytest.raises(OSError, match="disk full"):
            run(parse_config(FREE), str(tmp_path))
        (run_dir,) = tmp_path.iterdir()
        doc = json.loads((run_dir / "manifest.json").read_text())
        assert doc["error"] == "OSError: disk full"
        assert doc["error_type"] == "OSError"

    def test_byte_identical_determinism(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            manifest = run(parse_config(COLLAPSE), str(out))
            assert manifest.ok
        name = next(out_a.iterdir()).name
        for artifact in ("collapse.jsonl", "probabilities.json"):
            assert (out_a / name / artifact).read_bytes() == \
                (out_b / name / artifact).read_bytes()

    def test_measurement_diagnostics_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(parse_config(MEASUREMENT), str(out)).ok
        name = next(out_a.iterdir()).name
        assert (out_a / name / "diagnostics.csv").read_bytes() == \
            (out_b / name / "diagnostics.csv").read_bytes()


class TestCli:
    def _write(self, tmp_path, text, name="cfg.yaml"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_simulate_pass_exit_0(self, tmp_path, capsys):
        rc = main(["simulate", self._write(tmp_path, FREE),
                   "--out", str(tmp_path / "runs")])
        assert rc == 0
        assert "[PASS] spreading_law" in capsys.readouterr().out

    def test_simulate_parse_error_exit_2(self, tmp_path):
        rc = main(["simulate", self._write(tmp_path, "scenario: nope\n")])
        assert rc == 2

    def test_simulate_bad_value_exit_2(self, tmp_path, capsys):
        bad = self._write(tmp_path, "scenario: free_spread\n"
                          "grid: {n_points: abc}\n")
        assert main(["simulate", bad, "--out", str(tmp_path / "runs")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_simulate_config_error_in_manifest_exit_2(self, tmp_path,
                                                      monkeypatch):
        """A ValidationError raised in the run, here validate_apparatus on a
        coupling the runner shortens after parsing, is written to the
        manifest and exits 2."""
        entry = scenarios.REGISTRY["measurement_run"]

        def shortened(cfg, manifest):
            entry.runner(dataclasses.replace(
                cfg, coupling=CouplingConfig(tau=2.0)), manifest)

        monkeypatch.setitem(scenarios.REGISTRY, "measurement_run",
                            entry._replace(runner=shortened))
        good = coupled(12.0, breathing_trap(0.3))
        rc = main(["simulate", self._write(tmp_path, good),
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        (run_dir,) = (tmp_path / "runs").iterdir()
        doc = json.loads((run_dir / "manifest.json").read_text())
        assert doc["error_type"] == "ValidationError"
        assert doc["error"].startswith("ValidationError: coupling too short")

    @pytest.mark.parametrize("potential", ["", FREE_POTENTIAL],
                             ids=["default_trap", "free"])
    @pytest.mark.parametrize("coefficients, short, long", COLLAPSE_BOUNDS,
                             ids=["d2", "d3"])
    def test_a_coupling_that_can_never_collapse_exits_2_before_any_step(
            self, tmp_path, capsys, potential, coefficients, short, long):
        """The shorter coupling is refused before a run directory exists;
        the next whole step longer runs to its measurement."""
        out = str(tmp_path / "runs")
        text = coupled(short, potential, coefficients)
        assert main(["simulate", self._write(tmp_path, text), "--out",
                     out]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: coupling can never collapse: branches {short:g} "
            "apart overlap by ")
        assert not (tmp_path / "runs").exists()
        text = coupled(long, potential, coefficients)
        assert main(["simulate", self._write(tmp_path, text), "--out",
                     out]) == 0
        assert "[PASS] transition_detected" in capsys.readouterr().out

    def test_d_sep_is_an_unknown_coupling_key(self, tmp_path, capsys):
        text = check_text("measurement_run") + "coupling: {d_sep: 10.0}\n"
        rc = main(["simulate", self._write(tmp_path, text),
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: unknown keys in 'coupling': ['d_sep']\n")

    @pytest.mark.parametrize("sigma", [1.0, 0.5])
    def test_the_minimal_cat_gate_config_passes(self, tmp_path, capsys,
                                                sigma):
        """With packet.center unset, branch 0 sits at 12 sigma, the check
        config's center, far enough from the origin to pass the gate."""
        text = ("scenario: cat_gate\ncoefficients: [0.6, 0.8]\n"
                f"packet: {{sigma: {sigma}}}\n")
        rc = main(["simulate", self._write(tmp_path, text),
                   "--out", str(tmp_path / "runs")])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "[PASS] branch_0_is_packet" in out

    @pytest.mark.parametrize("error, code", [
        (ValidationError, 2), (ParseError, 2), (NarrowCoupling, 2),
        (TransitionNotReached, 1)])
    def test_simulate_exit_code_follows_the_error_type(
            self, tmp_path, monkeypatch, error, code):
        def fail(cfg, manifest):
            raise error("ValidationError: a message is not a type")

        entry = scenarios.REGISTRY["free_spread"]
        monkeypatch.setitem(scenarios.REGISTRY, "free_spread",
                            entry._replace(runner=fail))
        rc = main(["simulate", self._write(tmp_path, FREE),
                   "--out", str(tmp_path / "runs")])
        assert rc == code
        (run_dir,) = (tmp_path / "runs").iterdir()
        doc = json.loads((run_dir / "manifest.json").read_text())
        assert doc["error_type"] == error.__name__

    @pytest.mark.parametrize("text, args", [
        (COLLAPSE.replace("seed: 7", "seed: -1"), []),
        (COLLAPSE, ["--seed", "-1"])], ids=["config", "override"])
    def test_simulate_negative_seed_exit_2(self, tmp_path, capsys, text, args):
        rc = main(["simulate", self._write(tmp_path, text), *args,
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("args", [[], ["--out", "elsewhere"]],
                             ids=["no_out", "out"])
    def test_output_dir_is_an_unknown_key(self, tmp_path, monkeypatch,
                                          capsys, args):
        """The output root is --out, else ./runs; a config cannot name it."""
        monkeypatch.chdir(tmp_path)
        path = self._write(tmp_path, f"{FREE}output_dir: out\n")
        assert main(["simulate", path, *args]) == 2
        assert capsys.readouterr().err == (
            "config error: unknown top-level keys: ['output_dir']\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]

    def test_an_empty_out_exits_2_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        """--out "" is a config error, not read as the working
        directory."""
        monkeypatch.chdir(tmp_path)
        path = self._write(tmp_path, COLLAPSE)
        assert main(["simulate", path, "--out", ""]) == 2
        assert capsys.readouterr().err.startswith("config error: --out ")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]

    @pytest.mark.parametrize("env", ["", "elsewhere"])
    def test_simulate_output_root_ignores_the_environment(
            self, tmp_path, monkeypatch, env):
        """Without --out the run goes under ./runs, whatever QCOLLAPSE_OUT
        holds: the root has those two names only."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("QCOLLAPSE_OUT", env)
        assert main(["simulate", self._write(tmp_path, FREE)]) == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert (run_dir / "manifest.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["cfg.yaml", "runs"]

    def test_simulate_seed_override(self, tmp_path, capsys):
        rc = main(["simulate", self._write(tmp_path, COLLAPSE),
                   "--seed", "99", "--out", str(tmp_path / "runs")])
        assert rc == 0
        (run_dir,) = (tmp_path / "runs").iterdir()
        assert run_dir.name.endswith("seed99")

    @pytest.mark.parametrize("scenario", ["free_spread", "harmonic_coherent",
                                          "cat_gate"])
    def test_simulate_seed_is_refused_where_nothing_draws(
            self, tmp_path, capsys, scenario):
        rc = main(["simulate", self._write(tmp_path, check_text(scenario)),
                   "--seed", "5", "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: scenario {scenario!r} ignores seed\n")
        assert not (tmp_path / "runs").exists()

    def test_sample_is_not_a_command(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", self._write(tmp_path, COLLAPSE), "--n-runs", "2"])
        assert exc.value.code == 2
        assert "invalid choice: 'sample'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, reason", [
        ("scenario: harmonic_coherent\npotential: {kind: double_well}\n",
         "harmonic_coherent needs a harmonic potential"),
        ("scenario: harmonic_coherent\nevolution: {dt: 0.01}\n"
         "potential: {kind: harmonic, omega: 100.0}\n",
         "dt=0.01 exceeds 0.1 * (2 pi / omega) for omega=100.0"),
        (check_text("measurement_run").replace("dt: 0.05", "dt: 0.5")
         + "potential: {kind: harmonic, omega: 2.0, center: 20.0}\n",
         "dt=0.5 exceeds 0.1 * (2 pi / omega) for omega=2.0"),
        ("scenario: free_spread\npacket: {momentum: 20.0}\n",
         "|momentum|=20.0 exceeds Nyquist headroom "
         f"{math.pi / (4 * 80 / 1024)}"),
        (check_text("measurement_run").replace("x_max: 120.0", "x_max: 20.0")
         + "potential: {kind: harmonic, omega: 0.5, center: 0.0}\n",
         "packets overrun the grid: branch 0 sits at x=20 with width 1: "
         "boundary mass 0.997 exceeds 1e-08"),
        (coupled(2.0, breathing_trap(0.3)),
         "coupling too short: branches end 2 apart, below 3 * apparatus "
         "sigma=1.0"),
        (FREE + "evolution: {dt: 0.2, n_steps: 100}\n",
         "packets overrun the grid: branch 0 ends at x=0 with width 10.0499: "
         "boundary mass 0.00027 exceeds 1e-08"),
        ("scenario: harmonic_coherent\npacket: {sigma: 0.35}\n"
         f"evolution: {{dt: {math.pi / 200!r}, n_steps: 100}}\n"
         "potential: {kind: harmonic, omega: 1.0, center: 30.0}\n",
         "packets overrun the grid: branch 0 ends at x=30 with width 1.42857: "
         "boundary mass 1.43e-05 exceeds 1e-08"),
        ("scenario: harmonic_coherent\npacket: {center: 15.0}\n"
         "grid: {x_min: -20.0, x_max: 40.0, n_points: 1024}\n"
         "evolution: {dt: 0.01, n_steps: 600, record_every: 50}\n",
         "packets overrun the grid: branch 0 turns at x=-15 with width 1: "
         "boundary mass 0.0206 exceeds 1e-08"),
        ("scenario: harmonic_coherent\npacket: {sigma: 0.35, center: 27.0}\n"
         f"evolution: {{dt: {math.pi / 200!r}, n_steps: 400}}\n"
         "potential: {kind: harmonic, omega: 1.0, center: 30.0}\n",
         "packets overrun the grid: branch 0 breathes at x=30 with width "
         "1.42857: boundary mass 1.43e-05 exceeds 1e-08")],
        ids=["double_well", "harmonic_dt", "chain_dt", "momentum",
             "chain_start_off_grid", "chain_too_short", "free_spread_at_T",
             "harmonic_coherent_at_T", "harmonic_coherent_turn",
             "harmonic_coherent_breathes"])
    def test_an_input_the_run_would_refuse_exits_2_before_the_run(
            self, tmp_path, capsys, text, reason):
        """The potential the scenario steps under and the packet's momentum
        against the Nyquist headroom pi / (4 dx) (10.05 on the default grid)
        are judged at parsing, and so is what `forecast` says the run would
        meet. Each of those six cases ran into a run-time guard: the
        chain's start packet at 20 = x_max under a trap the forecast does
        not judge (BoundaryClipping, exit 1); the chain whose branches end
        2 apart (validate_apparatus, exit 2 after its run directory
        existed); the free packet spread to width 10.05 at t = 20
        (BoundaryClipping at step 57, exit 1); the sigma = 0.35 packet that
        swings to the trap center 30 at t = pi / 2 and breathes to width
        1 / 0.7 there (BoundaryClipping at step 96, exit 1); the packet at
        15 that fits the grid [-20, 40] at its start and at its end
        15 cos 6, but turns at -15 on the way (BoundaryClipping at step
        253, exit 1); the sigma = 0.35 packet at 27 that fits at its start,
        its turn at 33 and its end, but breathes to width 1 / 0.7 as it
        passes the trap center 30 at t = pi / 2 (BoundaryClipping at step
        72, exit 1)."""
        rc = main(["simulate", self._write(tmp_path, text),
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {reason}\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("text, reason", MALFORMED, ids=MALFORMED_IDS)
    def test_a_malformed_input_exits_2_with_its_message(
            self, tmp_path, capsys, text, reason):
        rc = main(["simulate", self._write(tmp_path, text),
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {reason}\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("scenario, extra, center, mass", [
        ("cat_gate", "", 44, "1"), ("collapse_sample", "seed: 1\n", 32,
                                     "3.48e-05")],
        ids=["cat_gate", "collapse_sample"])
    def test_branch_packets_off_the_grid_exit_2_naming_the_branch(
            self, tmp_path, capsys, scenario, extra, center, mass):
        """Three branches 16 sigma apart from the scenario's first center
        put branch 2 at or past the default grid's edge x = 40."""
        text = (f"scenario: {scenario}\n{extra}"
                "coefficients: [0.48, 0.6, 0.64]\n")
        rc = main(["simulate", self._write(tmp_path, text),
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: packets overrun the grid: branch 2 sits at "
            f"x={center} with width 1: boundary mass {mass} exceeds 1e-08\n")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("scenario", ["free_spread",
                                          "harmonic_coherent"])
    def test_a_single_packet_off_the_grid_exits_2_naming_branch_0(
            self, tmp_path, capsys, scenario):
        """A packet at x = 39, 1 sigma inside the default grid's edge, is
        refused at parsing, before the run's BoundaryClipping."""
        text = f"scenario: {scenario}\npacket: {{center: 39.0}}\n"
        rc = main(["simulate", self._write(tmp_path, text),
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "config error: packets overrun the grid: branch 0 sits at x=39 "
            "with width 1: boundary mass ")
        assert not (tmp_path / "runs").exists()

    def test_a_coupling_that_overruns_the_grid_exits_2_before_any_step(
            self, tmp_path, capsys):
        rc = main(["simulate", self._write(tmp_path, OVERRUN),
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "config error: coupling overruns the grid: branch 7 ends at x=125")
        assert not (tmp_path / "runs").exists()

    def test_a_branch_with_no_amplitude_left_is_refused_for_the_grid(
            self, tmp_path, capsys):
        """FAST_CHAIN at tau = 30 ends branch 1 at x = 170, so far past
        x_max = 120 that every amplitude of it underflows to zero."""
        text = FAST_CHAIN.replace("TAU", "30")
        rc = main(["simulate", self._write(tmp_path, text),
                   "--out", str(tmp_path / "runs")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == ("config error: coupling overruns the grid: branch 1 "
                       "ends at x=170 with width 1: no amplitude is left on "
                       "the grid\n")
        assert "normalize" not in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("scenario", scenarios.SCENARIOS)
    def test_an_unresolvable_packet_exits_2_before_the_run(
            self, tmp_path, capsys, scenario):
        """sigma = 0.3 is below 4 dx (0.3125 on the default grid, 0.625 on
        the chain's): every scenario makes a packet of that width, so the
        config is refused with no run directory, not left to the run's
        GridTooCoarse."""
        text = check_text(scenario)
        text = (text.replace("packet: {", "packet: {sigma: 0.3, ")
                if "packet: {" in text else text + "packet: {sigma: 0.3}\n")
        rc = main(["simulate", self._write(tmp_path, text),
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "config error: packet sigma=0.3 is below 4*dx=")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("text, branch", [
        (WRAPAROUND, 3), (FAST_CHAIN.replace("TAU", "17.3") + DEFAULT_TRAP, 1)],
        ids=["wraparound", "explicit_default_trap"])
    def test_a_branch_that_crosses_the_edge_exits_2_before_any_step(
            self, tmp_path, capsys, text, branch):
        rc = main(["simulate", self._write(tmp_path, text),
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"config error: coupling overruns the grid: branch {branch} ")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("scenario", ["cat_gate", "measurement_run",
                                          "born_ensemble"])
    def test_one_coefficient_is_refused_where_branches_are_compared(
            self, tmp_path, capsys, scenario):
        """With one branch there is no order parameter and no cat: the
        config is refused before anything runs."""
        text = check_text(scenario).replace("[0.6, 0.8]", "[1.0]")
        rc = main(["simulate", self._write(tmp_path, text),
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: scenario {scenario!r} needs at least 2 "
            "coefficients, got 1\n")
        assert not (tmp_path / "runs").exists()

    def test_one_coefficient_collapse_sample_runs(self, tmp_path):
        text = check_text("collapse_sample").replace("[0.6, 0.8]", "[1.0]")
        assert main(["simulate", self._write(tmp_path, text),
                     "--out", str(tmp_path / "runs")]) == 0

    def test_taylor_tol_is_an_unknown_gate_key(self, tmp_path, capsys):
        text = check_text("cat_gate") + "gate: {taylor_tol: 0.05}\n"
        rc = main(["simulate", self._write(tmp_path, text),
                   "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert "unknown keys in 'gate': ['taylor_tol']" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("scenario, snippet, key", IGNORED)
    def test_an_input_the_scenario_ignores_exits_2(
            self, tmp_path, capsys, scenario, snippet, key):
        path = self._write(tmp_path, f"{check_text(scenario)}{snippet}\n")
        rc = main(["simulate", path, "--out", str(tmp_path / "runs")])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"config error: scenario {scenario!r} ignores {key}\n"
        assert not (tmp_path / "runs").exists()
        with pytest.raises(ParseError,
                           match=re.escape(f"{scenario!r} ignores {key}")):
            parse_config(f"{check_text(scenario)}{snippet}\n")

    @pytest.mark.parametrize("separation", [3.0, 10.0, 11.0, 12.0])
    def test_overlapping_branches_are_refused_at_parsing(
            self, tmp_path, capsys, params, separation):
        """Branches 3 to 12 sigma apart overlap by exp(-sep^2 / 8), 0.325 to
        1.52e-8, above overlap_limit(2) = 1e-8: the figure `decompose`
        raises NotWeaklyInterfering with, so the config exits 2 with it and
        no run directory, not 1 after the run."""
        path = self._write(tmp_path, check_text("collapse_sample")
                           + f"packet: {{separation: {separation}}}\n")
        rc = main(["simulate", path, "--out", str(tmp_path / "runs")])
        overlap = f"{math.exp(-separation**2 / 8):.3g}"
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: packets cannot be decomposed: branches "
            f"{separation:g} apart overlap by {overlap} (limit 1e-08)\n")
        assert not (tmp_path / "runs").exists()
        grid = Grid1D()
        packets = [make_gaussian(grid, x, 1.0, 0.0, params)
                   for x in (0.0, separation)]
        with pytest.raises(NotWeaklyInterfering, match=re.escape(
                f"branches 0,1 overlap by {overlap} (limit 1e-08)")):
            decompose(superpose(zip((0.6, 0.8), packets)), packets)

    def test_check_exit_0(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] geometric_probabilities" in out
        assert "FAIL" not in out

    def test_check_fails_on_a_broken_scenario(self, monkeypatch, capsys):
        monkeypatch.setattr(scenarios, "sample_collapse", lambda d, u: 0)
        assert main(["check"]) == 1
        assert "[FAIL] branch_1_frequency" in capsys.readouterr().out

    def test_check_runs_every_scenario_and_leaves_nothing(
            self, tmp_path, monkeypatch, capsys):
        cwd, temp = tmp_path / "cwd", tmp_path / "temp"
        cwd.mkdir()
        temp.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        for name in scenarios.SCENARIOS:
            assert f"{name}, run a:\n" in out and f"{name}, run b:\n" in out
        assert out.count("[PASS] repeat_byte_identity") == 6
        assert list(cwd.iterdir()) == [] and list(temp.iterdir()) == []
