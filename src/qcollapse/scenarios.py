"""Named scenarios, strict config parsing and artifact emission.

A run is fully determined by (config, seed): diagnostics CSV, snapshots and
collapse records are byte-identical across repeats on one platform.  Each run
gets its own directory named by the config hash and seed, so ensembles never
collide.
"""
from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import math
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np
import yaml

from .collapse import RNG_ALGORITHM, overlap_limit, sample_collapse
from .diagnostics import GateConfig, packet_summary, position_gate
from .errors import (BoundaryClipping, ParseError, QCollapseError,
                     ValidationError)
from .grid import (
    NORM_TOL,
    Grid1D,
    PhysicalParams,
    WaveFunction,
    check_unit_weights,
    make_gaussian,
    superpose,
    write_snapshot,
)
from .measurement import (
    CompositeState,
    CouplingConfig,
    apparatus_decomposition,
    measure,
    premeasurement,
    von_neumann_evolve,
)
from .propagate import POTENTIAL_FIELDS, EvolutionConfig, Potential, evolve

# Chance per run that the branch-frequency check fails a correct sampler.
FREQUENCY_FALSE_ALARM = 1e-6
# Doubles an ensemble takes from its stream per rng.random(m) call.
DRAW_BLOCK = 512

DIAG_HEADER = ("t,norm,exp_x,std_x,exp_p,std_p,uncertainty_product,"
               "min_separation,critical_value,transition_flag")


def json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class PacketSpec:
    center: Optional[float] = None
    sigma: float = 1.0
    momentum: float = 0.0
    separation: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValidationError("packet sigma must be positive and finite")
        if not all(math.isfinite(value)
                   for value in (self.center, self.momentum, self.separation)
                   if value is not None):
            raise ValidationError(
                "packet center, momentum and separation must be finite")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    grid: Grid1D
    physics: Optional[PhysicalParams]
    gate: Optional[GateConfig]
    packet: PacketSpec
    evolution: Optional[EvolutionConfig]
    coupling: Optional[CouplingConfig]
    potential: Optional[Potential]
    coefficients: Optional[Tuple[complex, ...]]
    seed: Optional[int]
    n_samples: int
    echo: Dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        # np.random.default_rng would reject a negative seed only once the
        # run builds its generator; the CLI's --seed is parsed as a config
        # seed, so it is refused here too.
        if self.seed is not None and self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if self.n_samples < 1:
            raise ValidationError("n_samples must be positive")


# Where a run happened, for manifest.json.  platform.platform() is avoided:
# on Linux it reads the interpreter binary to find the libc version.
ENVIRONMENT = {"python": platform.python_version(), "numpy": np.__version__,
               "system": platform.system(), "machine": platform.machine(),
               "cpu_count": os.cpu_count()}


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
    # The class of the exception that ended the run; the file records its name.
    error_type: Optional[type] = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(a.passed for a in self.assertions)

    def write(self, path: Path) -> None:
        error_type = self.error_type and self.error_type.__name__
        path.write_text(json_text({**asdict(self), "error_type": error_type,
                                   "artifacts": sorted(self.artifacts),
                                   "environment": ENVIRONMENT}))


class Scenario(NamedTuple):
    """A scenario's runner, the inputs it reads beyond ACCEPTED (top-level
    keys, sections or `section.key`s), the body of its check config and the
    fewest coefficients it runs on.  parse_config builds a section only
    where read, requires a read key with no default, rejects any input
    neither list names and refuses fewer coefficients."""
    runner: Callable[[ScenarioConfig, RunManifest], None]
    reads: Tuple[str, ...]
    check_config: str
    min_coefficients: int = 0


# ---------------------------------------------------------------------------
# Config parsing

# Inputs every scenario accepts.
ACCEPTED = ("scenario", "grid", "packet.sigma", "packet.center")
# Config section -> its constructor, whose keyword defaults are the section's
# keys and defaults: an int default makes an integer key, any other a float
# key, only a key whose default is None may be null, and a section is None
# where the scenario does not read it.  A dict maps the section's `kind`,
# which has no default, to the constructor.
_SECTIONS = {"grid": Grid1D, "physics": PhysicalParams, "gate": GateConfig,
             "packet": PacketSpec, "evolution": EvolutionConfig,
             "coupling": CouplingConfig,
             "potential": {kind: getattr(Potential, kind)
                           for kind in POTENTIAL_FIELDS}}


def _coerce(name: str, value: Any, kind: type) -> Any:
    """`value` as `kind` (int or float), or a ParseError naming `name`.

    Numeric strings count (PyYAML reads `1e-3` as a string), an int's
    exactly when int() reads it, else through float ("1e3").  Booleans,
    non-finite numbers and, for an int, a fractional part do not: they are
    rejected rather than truncated.
    """
    what = "an integer" if kind is int else "a finite number"
    try:
        number = value
        if isinstance(value, str):
            try:
                number = kind(value)
            except ValueError:
                number = float(value)
        if (isinstance(number, int) and not isinstance(number, bool)
                or isinstance(number, float) and math.isfinite(number)
                and (kind is float or number.is_integer())):
            return kind(number)
    except (ValueError, OverflowError):
        pass
    raise ParseError(f"{name} must be {what}, got {value!r}")


def _build(name: str, section: Any, factory, required: bool):
    """factory(**section), each key coerced like the factory's default for
    it; None for an absent or empty section that is not required or whose
    factory is a dict, which has no defaults to build from."""
    section = {} if section is None else section
    if not isinstance(section, dict):
        raise ParseError(f"section {name!r} must be a mapping")
    if not (section or required and not isinstance(factory, dict)):
        return None
    if isinstance(factory, dict):
        section = dict(section)
        kind = section.pop("kind", None)
        if not isinstance(kind, str) or kind not in factory:
            raise ParseError(f"unknown {name} kind {kind!r}")
        factory = factory[kind]
    defaults = {p.name: p.default
                for p in inspect.signature(factory).parameters.values()}
    unknown = set(section) - set(defaults)
    if unknown:
        raise ParseError(f"unknown keys in {name!r}: {sorted(unknown)}")
    values = {}
    for key, value in section.items():
        default = defaults[key]
        if value is not None or default is not None:
            value = _coerce(f"{name}.{key}", value,
                            int if isinstance(default, int) else float)
        values[key] = value
    return factory(**values)


def _coerce_complex(value: Any) -> complex:
    """A coefficient: a number or an [re, im] pair, each coerced as a float."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(*(_coerce("coefficients", v, float) for v in value))
    return complex(_coerce("coefficients", value, float))


def _coefficients(value: Any) -> Tuple[complex, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ParseError("coefficients must be a non-empty list")
    coefficients = tuple(_coerce_complex(c) for c in value)
    check_unit_weights(coefficients, NORM_TOL, "coefficient norm^2")
    return coefficients


# Top-level key -> (parser of a value set, value when absent).
_KEYS = {"coefficients": (_coefficients, None),
         "seed": (lambda v: v if v is None else _coerce("seed", v, int), None),
         "n_samples": (lambda v: _coerce("n_samples", v, int), 10000)}


def _ignored(echo: Dict[str, Any], reads: Tuple[str, ...]):
    """Each input set in `echo`, as `key` or `section.key`, that `reads`
    names neither itself nor by its section."""
    for name, value in echo.items():
        if name not in reads and value is not None:
            paths = ([f"{name}.{key}" for key in value]
                     if isinstance(value, dict) else [name])
            yield from (path for path in paths if path not in reads)


def parse_config(text: str, seed: Optional[int] = None) -> ScenarioConfig:
    """Strictly parse a YAML config: unknown or ignored inputs are errors.
    A `seed` given here replaces the config's before parsing."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("config must be a mapping")
    raw = dict(raw) if seed is None else {**raw, "seed": seed}
    echo: Dict[str, Any] = json.loads(json.dumps(raw, default=str))

    scenario = raw.pop("scenario", None)
    if scenario not in SCENARIOS:
        raise ParseError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    reads = REGISTRY[scenario].reads
    read = {r.split(".")[0] for r in ACCEPTED + reads}
    values = {name: _build(name, raw.pop(name, None), factory, name in read)
              for name, factory in _SECTIONS.items()}
    values.update((key, parse(raw.pop(key)) if key in raw else absent)
                  for key, (parse, absent) in _KEYS.items())
    if raw:
        raise ParseError(f"unknown top-level keys: {sorted(raw)}")
    cfg = ScenarioConfig(scenario=scenario, **values, echo=echo)
    for key in reads:
        if key in _KEYS and values[key] is None:
            raise ValidationError(f"scenario {scenario!r} requires {key}")
    least = REGISTRY[scenario].min_coefficients
    if len(cfg.coefficients or ()) < least:
        raise ValidationError(f"scenario {scenario!r} needs at least {least} "
                              f"coefficients, got {len(cfg.coefficients)}")
    ignored = next(_ignored(echo, ACCEPTED + reads), None)
    if ignored:
        raise ParseError(f"scenario {scenario!r} ignores {ignored}")
    _refuse_forecast(cfg)
    return cfg


def forecast(cfg: ScenarioConfig,
             t: float = 0.0) -> Optional[Tuple[float, float, float]]:
    """(center of packet 0, spacing to the next, common width) at time t:
    at t = 0 packet.center, else 20 sigma (chain), 12 sigma (cat_gate, clear
    of the gate's origin dependence), 3 (harmonic_coherent) or 0, spaced v t
    (chain) or packet.separation, else 16 sigma; at t > 0 a Gaussian's closed
    form in free space or a harmonic trap, None for the chain's other traps."""
    p, phys, chain = cfg.packet, cfg.physics, cfg.coupling
    center = p.center if p.center is not None else {
        "cat_gate": 12.0 * p.sigma, "harmonic_coherent": 3.0}.get(
        cfg.scenario, 0.0 if chain is None else 20.0 * p.sigma)
    gap = (chain.shift_velocity * t if chain is not None
           else 16.0 * p.sigma if p.separation is None else p.separation)
    if t == 0.0:
        return center, gap, p.sigma
    v, rate = _potential(cfg), phys.hbar / (2.0 * phys.mass * p.sigma)
    if v.kind == "free":
        return (center + p.momentum * t / phys.mass, gap,
                p.sigma * math.hypot(1.0, rate * t / p.sigma))
    if v.kind != "harmonic" or chain and v != _chain_potential(cfg):
        return None
    wt = v.omega * t
    return (v.center + (center - v.center) * math.cos(wt), gap,
            math.hypot(p.sigma * math.cos(wt), rate * math.sin(wt) / v.omega))


def _packets(cfg: ScenarioConfig, branches=range(1), t: float = 0.0,
             when: str = "sits") -> List[WaveFunction]:
    """The Gaussians of the config's momentum where `forecast` places
    `branches` at time t, at least 4 dx wide after t = 0 (a narrower one
    fits where that one does), in natural units where physics is not read.
    One off the grid is a ValidationError naming its branch, `when`, x and
    width; GridTooCoarse passes as is."""
    x, gap, s = forecast(cfg, t)
    s = max(s, cfg.grid.min_sigma) if t else s
    what = "coupling overruns" if cfg.coupling and t else "packets overrun"
    packets = []
    for n in branches:
        try:
            packets.append(make_gaussian(cfg.grid, x + n * gap, s,
                                         cfg.packet.momentum,
                                         cfg.physics or PhysicalParams()))
        except BoundaryClipping as exc:
            raise ValidationError(f"{what} the grid: branch {n} {when} at "
                                  f"x={x + n * gap:g} with width {s:g}: "
                                  f"{exc}") from exc
    return packets


def _chain_potential(cfg: ScenarioConfig) -> Potential:
    """The chain's default confinement: the trap whose coherent width is
    packet.sigma, so the pointer packets keep their shape while translating."""
    return Potential.harmonic(
        omega=cfg.physics.hbar / (2.0 * cfg.physics.mass * cfg.packet.sigma**2),
        center=forecast(cfg)[0])


def _potential(cfg: ScenarioConfig) -> Potential:
    """The potential the scenario steps under: potential if given, else the
    chain's `_chain_potential`, harmonic_coherent's omega = 1 trap, or free
    space.  ValidationError unless harmonic_coherent's is harmonic."""
    if cfg.coupling is not None:
        return cfg.potential or _chain_potential(cfg)
    if cfg.scenario != "harmonic_coherent":
        return Potential.free()
    v = cfg.potential or Potential.harmonic(omega=1.0)
    if v.kind != "harmonic":
        raise ValidationError("harmonic_coherent needs a harmonic potential")
    return v


def _refuse_forecast(cfg: ScenarioConfig) -> None:
    """ValidationError where `forecast` says the run must fail: a start
    packet the grid cannot resolve or hold, a dt `evolve` refuses, a chain
    below `validate_apparatus`; where it reaches T, branches (|phi^|^2 of
    width sigma) overlapping beyond what `measure` or `decompose` allows, or
    packet 0 or d - 1 off the grid at a turn, T or a quarter turn."""
    p, ev, chain = cfg.packet, cfg.evolution, cfg.coupling
    d = len(cfg.coefficients or [p])  # else one packet
    _packets(cfg, range(1 if chain else d))  # a chain's branches start as one
    v = _potential(cfg)
    if ev is not None:
        ev.validate_against(v)
    if chain is not None:
        chain.validate_apparatus(p.sigma, ev.dt)
    t = ev.dt * (chain.n_steps(ev.dt) if chain else ev.n_steps) if ev else 0.0
    if (end := forecast(cfg, t)) is None:
        return  # left to the run-time guards
    gap = end[1]
    why = ("coupling can never collapse" if chain
           else "packets cannot be decomposed")
    limit, overlap = overlap_limit(d), math.exp(-(gap / p.sigma)**2 / 8)
    if d > 1 and cfg.scenario != "cat_gate" and overlap > limit:
        raise ValidationError(f"{why}: branches {gap:g} apart overlap by "
                              f"{overlap:.3g} (limit {limit:.3g})")
    # A center is extreme at a turn or T, a trapped width at a quarter turn.
    turn = math.pi / v.omega if v.kind == "harmonic" and not chain else math.inf
    for when, at in (("turns", turn), ("ends", t), ("breathes", turn / 2)):
        if 0 < at <= t:
            _packets(cfg, sorted({0, d - 1}), at, when)


def load_config(path, seed: Optional[int] = None) -> ScenarioConfig:
    return parse_config(Path(path).read_text(), seed)


# ---------------------------------------------------------------------------
# Run orchestration

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return f"{value:.17g}"


def _emit(manifest: RunManifest, name: str, content) -> None:
    """Write artifact `name` into the run directory and list it: a
    WaveFunction as a snapshot, anything else as text."""
    path = Path(manifest.run_dir) / name
    if isinstance(content, WaveFunction):
        write_snapshot(content, path)
    else:
        path.write_text(content)
    manifest.artifacts.append(name)


@contextmanager
def _artifact(manifest: RunManifest, name: str):
    """Open artifact `name` for writing, list it and yield the handle, so a
    failed run keeps whatever it wrote."""
    with (Path(manifest.run_dir) / name).open("w") as fh:
        manifest.artifacts.append(name)
        yield fh


@contextmanager
def _diagnostics_csv(manifest: RunManifest):
    """Write diagnostics.csv as it is produced: the header on opening, then
    each row through the yielded writer."""
    with _artifact(manifest, "diagnostics.csv") as fh:
        fh.write(DIAG_HEADER + "\n")

        def row(t, norm, s, min_sep=None, critical=None, transition=None):
            fh.write(",".join(map(_fmt, (
                t, norm, s.exp_x, s.std_x, s.exp_p, s.std_p,
                s.uncertainty_product, min_sep, critical, transition))) + "\n")
        yield row


def _config_hash(cfg: ScenarioConfig) -> str:
    blob = json.dumps(cfg.echo, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:8]


def run(cfg: ScenarioConfig, out_override: Optional[str] = None) -> RunManifest:
    """Execute the named scenario; the manifest is written even on failure,
    and an exception other than a QCollapseError is then re-raised."""
    root = Path(out_override or Path.cwd() / "runs")
    seed_part = "noseed" if cfg.seed is None else f"seed{cfg.seed}"
    run_dir = root / f"{cfg.scenario}-{_config_hash(cfg)}-{seed_part}"
    run_dir.mkdir(parents=True, exist_ok=True)

    manifest = RunManifest(scenario=cfg.scenario, config=cfg.echo,
                           generator=RNG_ALGORITHM, run_dir=str(run_dir),
                           artifacts=[], wall_time_s=0.0, assertions=[])
    start = time.perf_counter()
    failure = None
    try:
        REGISTRY[cfg.scenario].runner(cfg, manifest)
    except Exception as exc:
        manifest.error = f"{type(exc).__name__}: {exc}"
        manifest.error_type = type(exc)
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


def _evolve_and_record(cfg, manifest, psi: WaveFunction,
                       v: Potential) -> Tuple[WaveFunction, list]:
    """Evolve psi under v with snapshots and one diagnostics row at t=0 and
    per record; returns the final state and the (t, PacketSummary) records,
    one per row."""
    _emit(manifest, "snapshot_initial.csv", psi)
    records = []
    with _diagnostics_csv(manifest) as row:

        def observer(t, state):
            summary = packet_summary(state, params=cfg.physics)
            records.append((t, summary))
            row(t, summary.norm, summary)

        observer(0.0, psi)
        final = evolve(psi, v, cfg.physics, cfg.evolution, observer)
    _emit(manifest, "snapshot_final.csv", final)
    return final, records


def _run_free_spread(cfg, manifest):
    (psi,) = _packets(cfg)
    final, records = _evolve_and_record(cfg, manifest, psi, _potential(cfg))
    t_final = cfg.evolution.dt * cfg.evolution.n_steps
    expected = forecast(cfg, t_final)[2]
    t_last, last = records[-1]
    got = (last if t_last == t_final
           else packet_summary(final, params=cfg.physics)).std_x
    _check(manifest, "spreading_law", abs(got - expected) <= 1e-6,
           f"std_x(t={t_final}) = {got:.12g}, analytic {expected:.12g}")


def _run_harmonic_coherent(cfg, manifest):
    (psi,) = _packets(cfg)
    _, records = _evolve_and_record(cfg, manifest, psi, _potential(cfg))
    worst = max(abs(s.exp_x - forecast(cfg, t)[0]) for t, s in records)
    _check(manifest, "classical_trajectory", worst <= 1e-5,
           f"max |<x>(t) - c - (x0 - c) cos(w t)| = {worst:.3g}")


def _run_cat_gate(cfg, manifest):
    packets = _packets(cfg, range(len(cfg.coefficients)))
    cat = superpose(zip(cfg.coefficients, packets))
    verdicts = {}
    for i, p in enumerate(packets):
        verdict = position_gate(p, cfg.gate)
        verdicts[f"branch_{i}"] = verdict.is_wave_packet
        _check(manifest, f"branch_{i}_is_packet", verdict.is_wave_packet,
               f"ratio {verdict.ratio:.6g}")
    cat_verdict = position_gate(cat, cfg.gate)
    verdicts["superposition"] = cat_verdict.is_wave_packet
    _check(manifest, "superposition_not_packet", not cat_verdict.is_wave_packet,
           f"cat verdict {cat_verdict.is_wave_packet}")
    _emit(manifest, "verdicts.json", json_text(verdicts))
    _emit(manifest, "snapshot_cat.csv", cat)


def _sample_ensemble(cfg, decomp, manifest, name: str) -> List[float]:
    """Sample cfg.n_samples collapse events from one PCG64 stream,
    np.random.default_rng(cfg.seed), in blocks of up to DRAW_BLOCK events:
    one rng.random(m) draw, one sample_collapse pick per double, one write
    to artifact `name` of the block's JSON lines, one f-string each (also
    when a pick fails, so a failed run keeps exactly its earlier events),
    and one count per branch.  The stream ends where rng.random(n_samples)
    would.  Checks each branch frequency against its binomial band, z sigma
    wide (z splits FREQUENCY_FALSE_ALARM over the d branches); returns the
    frequencies."""
    from statistics import NormalDist  # 5 ms to import; only needed here
    rng = np.random.default_rng(cfg.seed)
    counts = [0] * len(decomp)
    # The bytes of json.dumps({"event": i, "branch": n, "p": w_n}): a finite
    # float encodes as its repr, so each branch's line tail is built once.
    tails = [f', "branch": {n}, "p": {w!r}}}\n'
             for n, w in enumerate(decomp.probabilities)]
    with _artifact(manifest, name) as fh:
        for start in range(0, cfg.n_samples, DRAW_BLOCK):
            block = rng.random(min(DRAW_BLOCK, cfg.n_samples - start)).tolist()
            picks = []
            try:
                for u in block:
                    picks.append(sample_collapse(decomp, u))
            finally:
                fh.write("".join([f'{{"event": {i}{tails[n]}'
                                  for i, n in enumerate(picks, start)]))
            counts = [c + picks.count(n) for n, c in enumerate(counts)]
    freqs = [c / cfg.n_samples for c in counts]
    z = NormalDist().inv_cdf(1.0 - FREQUENCY_FALSE_ALARM / (2 * len(freqs)))
    for i, (pi, fi) in enumerate(zip(decomp.probabilities, freqs)):
        pi = min(pi, 1.0)  # a re-extracted |c|^2 = 1 can round to 1 + 2e-14
        tol = z * math.sqrt(pi * (1.0 - pi) / cfg.n_samples)
        _check(manifest, f"branch_{i}_frequency", abs(fi - pi) <= tol,
               f"freq {fi:.5f} vs p {pi:.5f} ({z:.2f}-sigma {tol:.5f})")
    return freqs


def _run_collapse_sample(cfg, manifest):
    packets = _packets(cfg, range(len(cfg.coefficients)))
    decomp = apparatus_decomposition(
        CompositeState(cfg.coefficients, packets))
    p = decomp.probabilities
    worst = max(abs(pn - abs(c) ** 2) for pn, c in zip(p, cfg.coefficients))
    _check(manifest, "geometric_probabilities", worst <= 1e-8,
           f"max |p_n - |c_n|^2| = {worst:.3g}")
    _emit(manifest, "probabilities.json", json_text({
        "geometric": list(p),
        "generator": RNG_ALGORITHM}))
    _sample_ensemble(cfg, decomp, manifest, "collapse.jsonl")


def _run_measurement_core(cfg, manifest):
    """The chain up to its transition: premeasurement of the apparatus
    packet, coupling with one diagnostics row per record (the composite norm
    sqrt(sum |c_n|^2 |a_n|^2) of the lab-frame branches a_n, branch 0's
    moments and the order parameters), and the transition check."""
    (apparatus,) = _packets(cfg)
    v = _potential(cfg)
    composite = premeasurement(cfg.coefficients, apparatus, cfg.gate)
    weights = np.abs(composite.coefficients) ** 2
    ticks = itertools.count()
    with _diagnostics_csv(manifest) as row:

        def observer(t, summaries, ops):
            if next(ticks) % cfg.evolution.record_every == 0:
                norm = math.sqrt(sum(w * s.norm**2
                                     for w, s in zip(weights, summaries)))
                row(t, norm, summaries[0], ops.min_pairwise_separation,
                    ops.critical_value, ops.transition)

        evolved, report = von_neumann_evolve(composite, cfg.coupling, v,
                                             cfg.physics, cfg.evolution.dt,
                                             observer=observer)
    _check(manifest, "transition_detected", report.t_star is not None,
           f"t_star = {report.t_star}")
    return evolved, report


def _write_chain_summary(cfg, manifest, report, **fields):
    """summary.json: the chain's common fields plus the scenario's own."""
    _emit(manifest, "summary.json", json_text({
        "object_dim": len(cfg.coefficients),
        "coefficients": [[c.real, c.imag] for c in cfg.coefficients],
        "t_star": report.t_star,
        "critical_value": report.critical_value,
        "seed": cfg.seed,
        **fields}))


def _run_measurement(cfg, manifest):
    evolved, report = _run_measurement_core(cfg, manifest)
    outcome = measure(evolved, report, cfg.seed)
    _write_chain_summary(cfg, manifest, report,
                         outcome_branch=outcome.branch)
    _emit(manifest, "snapshot_pointer.csv", outcome.apparatus_state)


def _run_born_ensemble(cfg, manifest):
    evolved, report = _run_measurement_core(cfg, manifest)
    decomp = apparatus_decomposition(evolved)
    freqs = _sample_ensemble(cfg, decomp, manifest, "outcomes.jsonl")
    _write_chain_summary(cfg, manifest, report,
                         n_samples=cfg.n_samples, frequencies=freqs)


_CHAIN = ("seed", "coefficients", "physics", "gate", "evolution.dt",
          "evolution.record_every", "coupling", "potential")
_CHAIN_CHECK = ("coefficients: [0.6, 0.8]\n"
                "grid: {x_min: -40.0, x_max: 120.0, n_points: 1024}\n"
                "evolution: {dt: 0.05, record_every: 10}\n")
_BRANCHES = ("coefficients", "packet.separation")
REGISTRY: Dict[str, Scenario] = {
    "free_spread": Scenario(
        _run_free_spread, ("physics", "evolution", "packet.momentum"),
        "evolution: {dt: 0.01, n_steps: 200}\n"),
    "harmonic_coherent": Scenario(
        _run_harmonic_coherent, ("physics", "evolution", "potential.kind",
                                 "potential.omega", "potential.center"),
        "evolution: {n_steps: 1000, record_every: 50}\n"),
    "cat_gate": Scenario(_run_cat_gate, _BRANCHES + ("gate",),
                         "coefficients: [0.6, 0.8]\n"
                         "packet: {center: 12.0, separation: 14.0}\n",
                         min_coefficients=2),
    "collapse_sample": Scenario(
        _run_collapse_sample, _BRANCHES + ("seed", "n_samples"),
        "coefficients: [0.6, 0.8]\nseed: 7\nn_samples: 400\n"),
    "measurement_run": Scenario(_run_measurement, _CHAIN,
                                _CHAIN_CHECK + "seed: 3\n",
                                min_coefficients=2),
    "born_ensemble": Scenario(_run_born_ensemble, _CHAIN + ("n_samples",),
                              _CHAIN_CHECK + "seed: 11\nn_samples: 1500\n",
                              min_coefficients=2),
}
SCENARIOS = tuple(REGISTRY)
