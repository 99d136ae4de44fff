"""Named scenarios, strict config parsing and artifact emission.

A run is fully determined by (config, seed): diagnostics CSV, snapshots and
collapse records are byte-identical across repeats on one platform.  Each run
gets its own directory named by the config hash and seed, so ensembles never
collide.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
import yaml

from . import collapse as collapse_mod
from .collapse import RNG_ALGORITHM, decompose, sample_collapse
from .diagnostics import (
    GateConfig,
    order_parameters,
    packet_summary,
    positive_position,
    wave_packet_gate,
)
from .errors import ParseError, QCollapseError, ValidationError
from .grid import (
    Grid1D,
    PhysicalParams,
    WaveFunction,
    make_gaussian,
    superpose,
    write_snapshot,
)
from .measurement import (
    CouplingConfig,
    ObjectState,
    apparatus_decomposition,
    measure,
    pointer_distinguishability,
    premeasurement,
    von_neumann_evolve,
)
from .propagate import EvolutionConfig, Potential, evolve

SCENARIOS = ("free_spread", "harmonic_coherent", "cat_gate",
             "collapse_sample", "measurement_run", "born_ensemble")
STOCHASTIC = ("collapse_sample", "measurement_run", "born_ensemble")

OUTPUT_ENV_VAR = "QCOLLAPSE_OUT"

DIAG_HEADER = ("t,norm,exp_x,std_x,exp_p,std_p,uncertainty_product,"
               "min_separation,critical_value,transition_flag")


@dataclass(frozen=True)
class PacketSpec:
    center: Optional[float] = None
    sigma: float = 1.0
    momentum: float = 0.0
    separation: Optional[float] = None

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValidationError("packet sigma must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    grid: Grid1D
    physics: PhysicalParams
    gate: GateConfig
    packet: PacketSpec
    evolution: Optional[EvolutionConfig]
    coupling: Optional[CouplingConfig]
    potential: Optional[Potential]
    coefficients: Optional[Tuple[complex, ...]]
    seed: Optional[int]
    n_samples: int
    output_dir: Optional[str]
    echo: Dict[str, Any] = field(default_factory=dict, compare=False)


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str


@dataclass
class RunManifest:
    scenario: str
    config: Dict[str, Any]
    generator: str
    run_dir: str
    artifacts: List[str]
    wall_time_s: float
    assertions: List[Assertion]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(a.passed for a in self.assertions)

    def write(self, path: Path) -> None:
        doc = {
            "scenario": self.scenario,
            "config": self.config,
            "generator": self.generator,
            "run_dir": self.run_dir,
            "artifacts": sorted(self.artifacts),
            "wall_time_s": self.wall_time_s,
            "assertions": [asdict(a) for a in self.assertions],
            "error": self.error,
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Config parsing

def _section(raw: Dict[str, Any], name: str, allowed: Sequence[str]
             ) -> Dict[str, Any]:
    sec = raw.pop(name, None)
    if sec is None:
        return {}
    if not isinstance(sec, dict):
        raise ParseError(f"section {name!r} must be a mapping")
    unknown = set(sec) - set(allowed)
    if unknown:
        raise ParseError(f"unknown keys in {name!r}: {sorted(unknown)}")
    return sec


def _coerce_complex(value: Any) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise ParseError(f"cannot parse complex number {value!r}") from exc
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ParseError(f"cannot parse complex number {value!r}")


def parse_config(text: str) -> ScenarioConfig:
    """Strictly parse a YAML scenario config, rejecting unknown keys."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("config must be a mapping")
    raw = dict(raw)
    echo: Dict[str, Any] = json.loads(json.dumps(raw, default=str))

    scenario = raw.pop("scenario", None)
    if scenario not in SCENARIOS:
        raise ParseError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")

    g = _section(raw, "grid", ("x_min", "x_max", "n_points"))
    grid = Grid1D(x_min=float(g.get("x_min", -40.0)),
                  x_max=float(g.get("x_max", 40.0)),
                  n_points=int(g.get("n_points", 1024)))

    ph = _section(raw, "physics", ("mass", "hbar"))
    physics = PhysicalParams(mass=float(ph.get("mass", 1.0)),
                             hbar=float(ph.get("hbar", 1.0)))

    ga = _section(raw, "gate", ("eta", "k", "taylor_tol", "mass_threshold"))
    gate = GateConfig(eta=float(ga.get("eta", 10.0)),
                      k=float(ga.get("k", 1.0)),
                      taylor_tol=float(ga.get("taylor_tol", 0.05)),
                      mass_threshold=float(ga.get("mass_threshold", 0.99)))

    pa = _section(raw, "packet", ("center", "sigma", "momentum", "separation"))
    packet = PacketSpec(
        center=None if pa.get("center") is None else float(pa["center"]),
        sigma=float(pa.get("sigma", 1.0)),
        momentum=float(pa.get("momentum", 0.0)),
        separation=None if pa.get("separation") is None
        else float(pa["separation"]))

    ev = _section(raw, "evolution", ("dt", "n_steps", "record_every"))
    evolution = None
    if ev or scenario in ("free_spread", "harmonic_coherent",
                          "measurement_run", "born_ensemble"):
        evolution = EvolutionConfig(dt=float(ev.get("dt", 0.001)),
                                    n_steps=int(ev.get("n_steps", 1000)),
                                    record_every=int(ev.get("record_every", 1)))

    co = _section(raw, "coupling", ("shift_velocity", "d_sep", "tau"))
    coupling = None
    if co or scenario in ("measurement_run", "born_ensemble"):
        coupling = CouplingConfig(
            shift_velocity=float(co.get("shift_velocity", 1.0)),
            d_sep=float(co.get("d_sep", 10.0)),
            tau=float(co.get("tau", 15.0)))

    po = _section(raw, "potential",
                  ("kind", "omega", "center", "barrier_height",
                   "well_separation"))
    potential = None
    if po:
        kind = po.get("kind")
        if kind == "free":
            potential = Potential.free()
        elif kind == "harmonic":
            potential = Potential.harmonic(omega=float(po.get("omega", 1.0)),
                                           center=float(po.get("center", 0.0)))
        elif kind == "double_well":
            potential = Potential.double_well(
                barrier_height=float(po.get("barrier_height", 1.0)),
                well_separation=float(po.get("well_separation", 4.0)))
        else:
            raise ParseError(f"unknown potential kind {kind!r}")

    coefficients = None
    if "coefficients" in raw:
        clist = raw.pop("coefficients")
        if not isinstance(clist, (list, tuple)) or not clist:
            raise ParseError("coefficients must be a non-empty list")
        coefficients = tuple(_coerce_complex(c) for c in clist)
        total = sum(abs(c) ** 2 for c in coefficients)
        if abs(total - 1.0) > 1e-8:
            raise ValidationError(
                f"coefficient norm^2 = {total} deviates from 1")

    seed = raw.pop("seed", None)
    if seed is not None:
        seed = int(seed)
    if scenario in STOCHASTIC and seed is None:
        raise ValidationError(f"scenario {scenario!r} requires a seed")

    n_samples = int(raw.pop("n_samples", 10000))
    if n_samples < 1:
        raise ValidationError("n_samples must be positive")
    output_dir = raw.pop("output_dir", None)

    if raw:
        raise ParseError(f"unknown top-level keys: {sorted(raw)}")
    if scenario in ("cat_gate", "collapse_sample", "measurement_run",
                    "born_ensemble") and coefficients is None:
        raise ValidationError(f"scenario {scenario!r} requires coefficients")

    return ScenarioConfig(scenario=scenario, grid=grid, physics=physics,
                          gate=gate, packet=packet, evolution=evolution,
                          coupling=coupling, potential=potential,
                          coefficients=coefficients, seed=seed,
                          n_samples=n_samples, output_dir=output_dir,
                          echo=echo)


def load_config(path) -> ScenarioConfig:
    return parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# Run orchestration

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return f"{value:.17g}"


class _DiagnosticsWriter:
    def __init__(self, path: Path):
        self.path = path
        self._rows = [DIAG_HEADER]

    def row(self, t, norm, summary, min_sep=None, critical=None,
            transition=None):
        self._rows.append(",".join([
            _fmt(t), _fmt(norm), _fmt(summary.exp_x), _fmt(summary.std_x),
            _fmt(summary.exp_p), _fmt(summary.std_p),
            _fmt(summary.uncertainty_product), _fmt(min_sep), _fmt(critical),
            _fmt(transition)]))

    def flush(self):
        self.path.write_text("\n".join(self._rows) + "\n")


def _config_hash(cfg: ScenarioConfig) -> str:
    blob = json.dumps(cfg.echo, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:8]


def resolve_output_root(cfg: ScenarioConfig,
                        out_override: Optional[str]) -> Path:
    if out_override:
        return Path(out_override)
    if cfg.output_dir:
        return Path(cfg.output_dir)
    env = os.environ.get(OUTPUT_ENV_VAR)
    if env:
        return Path(env)
    return Path.cwd() / "runs"


def _branch_centers(cfg: ScenarioConfig, d: int) -> List[float]:
    base = 0.0 if cfg.packet.center is None else cfg.packet.center
    sep = cfg.packet.separation
    if sep is None:
        sep = 16.0 * cfg.packet.sigma
    return [base + n * sep for n in range(d)]


def _branch_packets(cfg: ScenarioConfig) -> List[WaveFunction]:
    centers = _branch_centers(cfg, len(cfg.coefficients))
    return [make_gaussian(cfg.grid, c, cfg.packet.sigma, cfg.packet.momentum,
                          cfg.physics) for c in centers]


def run(cfg: ScenarioConfig, out_override: Optional[str] = None) -> RunManifest:
    """Execute the named scenario; the manifest is written even on failure,
    and an exception other than a QCollapseError is then re-raised."""
    root = resolve_output_root(cfg, out_override)
    seed_part = "noseed" if cfg.seed is None else f"seed{cfg.seed}"
    run_dir = root / f"{cfg.scenario}-{_config_hash(cfg)}-{seed_part}"
    run_dir.mkdir(parents=True, exist_ok=True)

    manifest = RunManifest(scenario=cfg.scenario, config=cfg.echo,
                           generator=RNG_ALGORITHM, run_dir=str(run_dir),
                           artifacts=[], wall_time_s=0.0, assertions=[])
    start = time.perf_counter()
    runner = {
        "free_spread": _run_free_spread,
        "harmonic_coherent": _run_harmonic_coherent,
        "cat_gate": _run_cat_gate,
        "collapse_sample": _run_collapse_sample,
        "measurement_run": _run_measurement,
        "born_ensemble": _run_born_ensemble,
    }[cfg.scenario]
    failure = None
    try:
        runner(cfg, run_dir, manifest)
    except Exception as exc:
        manifest.error = f"{type(exc).__name__}: {exc}"
        failure = exc
    manifest.wall_time_s = time.perf_counter() - start
    manifest.write(run_dir / "manifest.json")
    manifest.artifacts.append("manifest.json")
    if failure is not None and not isinstance(failure, QCollapseError):
        raise failure
    return manifest


def _check(manifest: RunManifest, name: str, passed: bool, detail: str):
    manifest.assertions.append(Assertion(name=name, passed=bool(passed),
                                         detail=detail))


def _evolve_and_record(cfg, run_dir, manifest, psi: WaveFunction,
                       v: Potential, on_summary=None) -> WaveFunction:
    """Evolve psi under v with snapshots and one diagnostics row at t=0 and
    per record; `on_summary(t, summary)` also sees each record after t=0."""
    write_snapshot(psi, run_dir / "snapshot_initial.csv")
    diag = _DiagnosticsWriter(run_dir / "diagnostics.csv")
    diag.row(0.0, psi.norm(), packet_summary(psi, cfg.gate, cfg.physics))

    def observer(t, state):
        summary = packet_summary(state, cfg.gate, cfg.physics)
        diag.row(t, state.norm(), summary)
        if on_summary is not None:
            on_summary(t, summary)

    final = evolve(psi, v, cfg.physics, cfg.evolution, observer)
    diag.flush()
    write_snapshot(final, run_dir / "snapshot_final.csv")
    manifest.artifacts += ["diagnostics.csv", "snapshot_initial.csv",
                           "snapshot_final.csv"]
    return final


def _run_free_spread(cfg, run_dir, manifest):
    center = 0.0 if cfg.packet.center is None else cfg.packet.center
    psi = make_gaussian(cfg.grid, center, cfg.packet.sigma,
                        cfg.packet.momentum, cfg.physics)
    final = _evolve_and_record(cfg, run_dir, manifest, psi, Potential.free())
    t_final = cfg.evolution.dt * cfg.evolution.n_steps
    sigma = cfg.packet.sigma
    rate = cfg.physics.hbar * t_final / (2.0 * cfg.physics.mass * sigma**2)
    expected = sigma * math.sqrt(1.0 + rate**2)
    got = packet_summary(final, cfg.gate, cfg.physics).std_x
    _check(manifest, "spreading_law", abs(got - expected) <= 1e-6,
           f"std_x(t={t_final}) = {got:.12g}, analytic {expected:.12g}")


def _run_harmonic_coherent(cfg, run_dir, manifest):
    v = cfg.potential or Potential.harmonic(omega=1.0)
    if v.kind != "harmonic":
        raise ValidationError("harmonic_coherent needs a harmonic potential")
    center = 3.0 if cfg.packet.center is None else cfg.packet.center
    psi = make_gaussian(cfg.grid, center, cfg.packet.sigma, 0.0, cfg.physics)
    x0 = center - v.center
    worst = 0.0

    def track(t, summary):
        nonlocal worst
        classical = v.center + x0 * math.cos(v.omega * t)
        worst = max(worst, abs(summary.exp_x - classical))

    _evolve_and_record(cfg, run_dir, manifest, psi, v, track)
    _check(manifest, "classical_trajectory", worst <= 1e-5,
           f"max |<x>(t) - x0 cos(w t)| = {worst:.3g}")


def _run_cat_gate(cfg, run_dir, manifest):
    packets = _branch_packets(cfg)
    cat = superpose(zip(cfg.coefficients, packets))
    verdicts = {}

    def gate(psi):
        summary = packet_summary(psi, cfg.gate, cfg.physics)
        return wave_packet_gate(psi, [positive_position(summary)], cfg.gate,
                                cfg.physics)

    for i, p in enumerate(packets):
        verdict = gate(p)
        verdicts[f"branch_{i}"] = verdict.is_wave_packet
        _check(manifest, f"branch_{i}_is_packet", verdict.is_wave_packet,
               f"ratio rows: {[(r, e) for _, r, e in verdict.per_observable]}")
    cat_verdict = gate(cat)
    verdicts["superposition"] = cat_verdict.is_wave_packet
    _check(manifest, "superposition_not_packet", not cat_verdict.is_wave_packet,
           f"cat verdict {cat_verdict.is_wave_packet}")
    (run_dir / "verdicts.json").write_text(
        json.dumps(verdicts, indent=2, sort_keys=True) + "\n")
    write_snapshot(cat, run_dir / "snapshot_cat.csv")
    manifest.artifacts += ["verdicts.json", "snapshot_cat.csv"]


def _binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def _sample_ensemble(cfg, decomp, path: Path, manifest) -> List[float]:
    """Sample cfg.n_samples collapse events, event i on seed cfg.seed + i.

    Writes one JSON line per event to `path`, checks every branch frequency
    against its 3-sigma binomial band and returns the frequencies.
    """
    counts = [0] * len(decomp)
    lines = []
    for seed in range(cfg.seed, cfg.seed + cfg.n_samples):
        event = sample_collapse(decomp, seed)
        counts[event.branch_index] += 1
        # Same bytes as json.dumps of {"seed", "branch", "p"}: a finite
        # float encodes as its repr.
        lines.append(f'{{"seed": {event.seed}, "branch": '
                     f'{event.branch_index}, "p": {event.probability!r}}}')
    path.write_text("\n".join(lines) + "\n")
    manifest.artifacts.append(path.name)
    freqs = [c / cfg.n_samples for c in counts]
    for i, (pi, fi) in enumerate(zip(decomp.probabilities, freqs)):
        tol = _binomial_3sigma(float(pi), cfg.n_samples)
        _check(manifest, f"branch_{i}_frequency", abs(fi - pi) <= tol,
               f"freq {fi:.5f} vs p {pi:.5f} (3-sigma {tol:.5f})")
    return freqs


def _run_collapse_sample(cfg, run_dir, manifest):
    packets = _branch_packets(cfg)
    psi = superpose(zip(cfg.coefficients, packets))
    decomp = decompose(psi, packets, cfg.gate, cfg.physics,
                       expected_coefficients=cfg.coefficients)
    p = decomp.probabilities
    (run_dir / "probabilities.json").write_text(json.dumps({
        "geometric": [float(x) for x in p],
        "measure_quotient": [float(x)
                             for x in collapse_mod.measure_quotients(decomp)],
        "generator": RNG_ALGORITHM,
    }, indent=2, sort_keys=True) + "\n")
    manifest.artifacts.append("probabilities.json")
    _sample_ensemble(cfg, decomp, run_dir / "collapse.jsonl", manifest)


def _measurement_setup(cfg):
    obj = ObjectState(np.array(cfg.coefficients))
    sigma = cfg.packet.sigma
    center = (20.0 * sigma if cfg.packet.center is None
              else cfg.packet.center)
    apparatus = make_gaussian(cfg.grid, center, sigma, 0.0, cfg.physics)
    # Default confinement: the trap whose coherent width equals sigma, so the
    # pointer packets keep their shape while translating.
    v = cfg.potential or Potential.harmonic(
        omega=cfg.physics.hbar / (2.0 * cfg.physics.mass * sigma**2),
        center=center)
    composite = premeasurement(obj, apparatus, cfg.gate, cfg.physics)
    return composite, v


def _run_measurement_core(cfg, run_dir, manifest):
    composite, v = _measurement_setup(cfg)
    diag = _DiagnosticsWriter(run_dir / "diagnostics.csv")
    # Branch packets are individually normalized, so the composite norm is
    # the coefficient norm.
    norm = float(np.sqrt((np.abs(np.array(cfg.coefficients)) ** 2).sum()))
    ticks = itertools.count()

    def observer(t, summaries):
        if next(ticks) % cfg.evolution.record_every == 0:
            ops = order_parameters(summaries) if len(summaries) > 1 else None
            sep = ops.min_pairwise_separation if ops else None
            crit = ops.critical_value if ops else None
            flag = ops.transition if ops else None
            diag.row(t, norm, summaries[0], sep, crit, flag)

    evolved, report = von_neumann_evolve(composite, cfg.coupling, v,
                                         cfg.physics, cfg.evolution.dt,
                                         observer=observer)
    diag.flush()
    manifest.artifacts.append("diagnostics.csv")
    _check(manifest, "transition_detected", report.t_star is not None,
           f"t_star = {report.t_star}")
    return evolved, report


def _write_chain_summary(cfg, run_dir, manifest, report, **fields):
    """summary.json: the chain's common fields plus the scenario's own."""
    doc = {
        "object_dim": len(cfg.coefficients),
        "coefficients": [[c.real, c.imag] for c in cfg.coefficients],
        "t_star": report.t_star,
        "critical_value": report.series[-1][2] if report.series else None,
        "seed": cfg.seed,
        **fields,
    }
    (run_dir / "summary.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")
    manifest.artifacts.append("summary.json")


def _run_measurement(cfg, run_dir, manifest):
    evolved, report = _run_measurement_core(cfg, run_dir, manifest)
    offdiag = pointer_distinguishability(evolved)
    worst = float(np.max(np.abs(offdiag - np.eye(len(offdiag)))))
    _check(manifest, "pointer_distinguishability", worst <= 1e-6,
           f"max off-diagonal overlap {worst:.3g}")
    outcome = measure(evolved, report, cfg.seed, cfg.gate, cfg.physics)
    expected = tuple(abs(c) ** 2 for c in cfg.coefficients)
    mix_err = max(abs(a - b)
                  for a, b in zip(outcome.object_mixture, expected))
    _check(manifest, "born_mixture", mix_err <= 1e-12,
           f"max |mixture - |c|^2| = {mix_err:.3g}")
    _write_chain_summary(cfg, run_dir, manifest, report,
                         outcome_branch=outcome.realized_object_index)
    write_snapshot(outcome.apparatus_state, run_dir / "snapshot_pointer.csv")
    manifest.artifacts.append("snapshot_pointer.csv")


def _run_born_ensemble(cfg, run_dir, manifest):
    evolved, report = _run_measurement_core(cfg, run_dir, manifest)
    decomp = apparatus_decomposition(evolved, cfg.gate, cfg.physics)
    freqs = _sample_ensemble(cfg, decomp, run_dir / "outcomes.jsonl",
                             manifest)
    _write_chain_summary(cfg, run_dir, manifest, report,
                         n_samples=cfg.n_samples, frequencies=freqs)
