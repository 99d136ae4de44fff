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

from .collapse import RNG_ALGORITHM, decompose, sample_collapse
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
    physics: PhysicalParams
    gate: Optional[GateConfig]
    packet: PacketSpec
    evolution: Optional[EvolutionConfig]
    coupling: Optional[CouplingConfig]
    potential: Optional[Potential]
    coefficients: Optional[Tuple[complex, ...]]
    seed: Optional[int]
    n_samples: int
    output_dir: Optional[str]
    echo: Dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        # np.random.default_rng would reject a negative seed only once the
        # run builds its generator; a seed passed to dataclasses.replace
        # (the CLI's --seed) comes through here too.
        if self.seed is not None and self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if self.n_samples < 1:
            raise ValidationError("n_samples must be positive")
        out = self.output_dir
        if out == "" or not isinstance(out, (str, type(None))):
            raise ParseError(f"output_dir {out!r} is not a non-empty string")


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

# Inputs every scenario accepts; `seed` also names the run directory.
ACCEPTED = ("scenario", "grid", "physics", "packet.sigma", "packet.center",
            "seed", "output_dir")
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

    Numeric strings count (PyYAML reads `1e-3` as a string).  Booleans,
    non-finite numbers and, for an int, a fractional part do not: they are
    rejected rather than truncated.
    """
    what = "an integer" if kind is int else "a finite number"
    try:
        number = kind(value) if isinstance(value, str) else value
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
    """A coefficient: a number, an [re, im] pair or a string like "0.6+0j"."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(*(_coerce("coefficients", v, float) for v in value))
    if not isinstance(value, str):
        return complex(_coerce("coefficients", value, float))
    try:
        return complex(value.replace(" ", ""))
    except ValueError as exc:
        raise ParseError(f"cannot parse complex number {value!r}") from exc


def _coefficients(value: Any) -> Tuple[complex, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ParseError("coefficients must be a non-empty list")
    coefficients = tuple(_coerce_complex(c) for c in value)
    check_unit_weights(coefficients, NORM_TOL, "coefficient norm^2")
    return coefficients


# Top-level key -> (parser of a value set, value when absent).
_KEYS = {"coefficients": (_coefficients, None),
         "seed": (lambda v: v if v is None else _coerce("seed", v, int), None),
         "n_samples": (lambda v: _coerce("n_samples", v, int), 10000),
         "output_dir": (lambda v: v, None)}


def _ignored(echo: Dict[str, Any], reads: Tuple[str, ...]):
    """Each input set in `echo`, as `key` or `section.key`, that `reads`
    names neither itself nor by its section."""
    for name, value in echo.items():
        if name not in reads and value is not None:
            paths = ([f"{name}.{key}" for key in value]
                     if isinstance(value, dict) else [name])
            yield from (path for path in paths if path not in reads)


def parse_config(text: str) -> ScenarioConfig:
    """Strictly parse a YAML config: unknown or ignored inputs are errors."""
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
    if cfg.coupling is not None:
        _refuse_overrun(cfg)
    return cfg


def _chain_center(cfg: ScenarioConfig) -> float:
    """The chain's apparatus center: packet.center, else 20 sigma."""
    return 20.0 * cfg.packet.sigma if cfg.packet.center is None \
        else cfg.packet.center


def _chain_potential(cfg: ScenarioConfig) -> Potential:
    """The chain's default confinement: the trap whose coherent width is
    packet.sigma, so the pointer packets keep their shape while translating."""
    return Potential.harmonic(
        omega=cfg.physics.hbar / (2.0 * cfg.physics.mass * cfg.packet.sigma**2),
        center=_chain_center(cfg))


def _refuse_overrun(cfg: ScenarioConfig) -> None:
    """ValidationError if the chain's first or last branch would end where
    make_gaussian's boundary guard fails, or with no amplitude left on the
    grid, judged where the final branches are Gaussians: under the default
    coherent trap, given or not, or a free potential.  Branches move right
    and free ones only spread, so the final branches 0 and d - 1, placed at
    their unwrapped centers, reach furthest towards the edges: a branch that
    crosses x_max mid-run is refused too.  A packet.sigma below
    make_gaussian's bound `grid.min_sigma` is left to the run-time
    GridTooCoarse, whatever its spread width."""
    if (cfg.potential not in (None, _chain_potential(cfg), Potential.free())
            or cfg.packet.sigma < cfg.grid.min_sigma):
        return  # left to the run-time guards
    phys, s = cfg.physics, cfg.packet.sigma
    t = cfg.coupling.n_steps(cfg.evolution.dt) * cfg.evolution.dt
    if cfg.potential == Potential.free():  # sigma spreads over t
        s = math.hypot(s, phys.hbar * t / (2.0 * phys.mass * s))
    for n in (0, len(cfg.coefficients) - 1):
        center = _chain_center(cfg) + n * cfg.coupling.shift_velocity * t
        try:
            make_gaussian(cfg.grid, center, s, params=phys)
        except (BoundaryClipping, ValidationError) as exc:
            # A ValidationError: every amplitude underflowed, so the
            # normalization met the zero state before the boundary guard.
            reason = exc if isinstance(exc, BoundaryClipping) \
                else "no amplitude is left on the grid"
            raise ValidationError(
                f"coupling overruns the grid: branch {n} ends at x={center:g} "
                f"with width {s:g}: {reason}") from exc


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


def resolve_output_root(cfg: ScenarioConfig,
                        out_override: Optional[str]) -> Path:
    return Path(out_override or cfg.output_dir or Path.cwd() / "runs")


def _packets(cfg: ScenarioConfig, default_center: float,
             count: int = 1) -> List[WaveFunction]:
    """`count` Gaussians of the config's sigma and momentum: the first at
    packet.center (else `default_center`), each next one packet.separation
    (else 16 sigma) to the right."""
    p = cfg.packet
    center = default_center if p.center is None else p.center
    sep = 16.0 * p.sigma if p.separation is None else p.separation
    return [make_gaussian(cfg.grid, center + n * sep, p.sigma, p.momentum,
                          cfg.physics) for n in range(count)]


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
    (psi,) = _packets(cfg, 0.0)
    final, records = _evolve_and_record(cfg, manifest, psi, Potential.free())
    t_final = cfg.evolution.dt * cfg.evolution.n_steps
    sigma = cfg.packet.sigma
    rate = cfg.physics.hbar * t_final / (2.0 * cfg.physics.mass * sigma**2)
    expected = sigma * math.sqrt(1.0 + rate**2)
    t_last, last = records[-1]
    got = (last if t_last == t_final
           else packet_summary(final, params=cfg.physics)).std_x
    _check(manifest, "spreading_law", abs(got - expected) <= 1e-6,
           f"std_x(t={t_final}) = {got:.12g}, analytic {expected:.12g}")


def _run_harmonic_coherent(cfg, manifest):
    v = cfg.potential or Potential.harmonic(omega=1.0)
    if v.kind != "harmonic":
        raise ValidationError("harmonic_coherent needs a harmonic potential")
    center = 3.0 if cfg.packet.center is None else cfg.packet.center
    (psi,) = _packets(cfg, center)
    x0 = center - v.center
    _, records = _evolve_and_record(cfg, manifest, psi, v)
    worst = max(abs(s.exp_x - (v.center + x0 * math.cos(v.omega * t)))
                for t, s in records)
    _check(manifest, "classical_trajectory", worst <= 1e-5,
           f"max |<x>(t) - x0 cos(w t)| = {worst:.3g}")


def _run_cat_gate(cfg, manifest):
    packets = _packets(cfg, 0.0, len(cfg.coefficients))
    cat = superpose(zip(cfg.coefficients, packets))
    verdicts = {}
    for i, p in enumerate(packets):
        verdict = position_gate(p, cfg.gate, cfg.physics)
        verdicts[f"branch_{i}"] = verdict.is_wave_packet
        _check(manifest, f"branch_{i}_is_packet", verdict.is_wave_packet,
               f"ratio {verdict.ratio:.6g}")
    cat_verdict = position_gate(cat, cfg.gate, cfg.physics)
    verdicts["superposition"] = cat_verdict.is_wave_packet
    _check(manifest, "superposition_not_packet", not cat_verdict.is_wave_packet,
           f"cat verdict {cat_verdict.is_wave_packet}")
    _emit(manifest, "verdicts.json", json_text(verdicts))
    _emit(manifest, "snapshot_cat.csv", cat)


def _sample_ensemble(cfg, decomp, manifest, name: str) -> List[float]:
    """Sample cfg.n_samples collapse events from one PCG64 stream,
    np.random.default_rng(cfg.seed), in blocks of up to DRAW_BLOCK events:
    one rng.random(m) draw, one sample_collapse pick per double, one write
    of the block's JSON lines to artifact `name` (also when a pick fails,
    so a failed run keeps exactly its earlier events) and one count per
    branch.  The stream ends where rng.random(n_samples) would.  Checks each
    branch frequency against its binomial band, z sigma wide (z splits
    FREQUENCY_FALSE_ALARM over the d branches); returns the frequencies."""
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
                    picks.append(sample_collapse(decomp, u).branch_index)
            finally:
                fh.write("".join('{"event": ' + str(i) + tails[n]
                                 for i, n in enumerate(picks, start)))
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
    packets = _packets(cfg, 0.0, len(cfg.coefficients))
    psi = superpose(zip(cfg.coefficients, packets))
    decomp = decompose(psi, packets, cfg.physics,
                       expected_coefficients=cfg.coefficients)
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
    (apparatus,) = _packets(cfg, _chain_center(cfg))
    v = cfg.potential or _chain_potential(cfg)
    composite = premeasurement(cfg.coefficients, apparatus, cfg.gate,
                               cfg.physics)
    weights = np.abs(composite.coefficients) ** 2
    ticks = itertools.count()
    with _diagnostics_csv(manifest) as row:

        def observer(t, summaries, ops):
            if next(ticks) % cfg.evolution.record_every == 0:
                norm = math.sqrt(sum(w * s.norm**2
                                     for w, s in zip(weights, summaries)))
                row(t, norm, summaries[0], *(() if ops is None else (
                    ops.min_pairwise_separation, ops.critical_value,
                    ops.transition)))

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
    outcome = measure(evolved, report, cfg.seed, cfg.physics)
    _write_chain_summary(cfg, manifest, report,
                         outcome_branch=outcome.event.branch_index)
    _emit(manifest, "snapshot_pointer.csv", outcome.apparatus_state)


def _run_born_ensemble(cfg, manifest):
    evolved, report = _run_measurement_core(cfg, manifest)
    decomp = apparatus_decomposition(evolved, cfg.physics)
    freqs = _sample_ensemble(cfg, decomp, manifest, "outcomes.jsonl")
    _write_chain_summary(cfg, manifest, report,
                         n_samples=cfg.n_samples, frequencies=freqs)


_CHAIN = ("seed", "coefficients", "gate", "evolution.dt",
          "evolution.record_every", "coupling", "potential")
_CHAIN_CHECK = ("coefficients: [0.6, 0.8]\n"
                "grid: {x_min: -40.0, x_max: 120.0, n_points: 1024}\n"
                "evolution: {dt: 0.05, record_every: 10}\n")
_BRANCHES = ("coefficients", "packet.momentum", "packet.separation")
REGISTRY: Dict[str, Scenario] = {
    "free_spread": Scenario(_run_free_spread, ("evolution", "packet.momentum"),
                            "evolution: {dt: 0.01, n_steps: 200}\n"),
    "harmonic_coherent": Scenario(
        _run_harmonic_coherent, ("evolution", "potential"),
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
