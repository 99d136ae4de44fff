"""Object + apparatus measurement chain.

The object is a finite-dimensional system expanded in the eigenbasis of the
measured observable; the apparatus is a grid wave packet.  The coupling
translates the branch-n pointer packet at velocity n * shift_velocity: each
branch evolves in its own co-moving frame under the one potential and is
moved rigidly into the lab frame.  The inter-branch separation (the order
parameter) grows continuously until it crosses the critical value set by the
packet widths.  Measurement then samples a self-collapse on the apparatus and
records the induced mixture on the object; the exact composite state is never
modified.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .collapse import (
    COEFF_NORM_TOL,
    CollapseEvent,
    SuperpositionDecomposition,
    apply_self_collapse,
    decompose,
    sample_collapse,
)
from .diagnostics import (GateConfig, order_parameters, packet_summary,
                          position_gate)
from .errors import ApparatusNotReady, TransitionNotReached, ValidationError
from .grid import (NORM_TOL, PhysicalParams, WaveFunction, check_edge_mass,
                   check_unit_weights, superpose)
from .propagate import EvolutionConfig, Potential, step, translate

# Relative rounding slack of a measured width: a sigma0 = 1 packet at x = 20
# on [-40, 120] with N = 1024 measures std x = 1 + 2.8e-14.
_WIDTH_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class ObjectState:
    """Finite-dimensional state in the measured observable's eigenbasis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 1:
            raise ValidationError("object amplitudes must be a 1-D vector")
        check_unit_weights(amps, NORM_TOL, "object norm^2")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True, eq=False)
class CompositeState:
    """Branches (object index n, c_n, apparatus packet) of sum c_n |n> x |a_n>."""

    branches: Tuple[Tuple[int, complex, WaveFunction], ...]

    def __post_init__(self):
        branches = tuple((int(n), complex(c), s) for n, c, s in self.branches)
        object.__setattr__(self, "branches", branches)
        check_unit_weights(self.coefficients, COEFF_NORM_TOL, "sum |c_n|^2")

    def __len__(self) -> int:
        return len(self.branches)

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([c for _, c, _ in self.branches])

    @property
    def apparatus_states(self) -> List[WaveFunction]:
        return [s for _, _, s in self.branches]


@dataclass(frozen=True)
class CouplingConfig:
    shift_velocity: float = 1.0
    d_sep: float = 10.0
    tau: float = 15.0

    def __post_init__(self):
        if not 0 < self.shift_velocity < math.inf:
            raise ValidationError("shift_velocity must be positive and finite")
        if not (0 < self.d_sep < math.inf and 0 < self.tau < math.inf):
            raise ValidationError("d_sep and tau must be positive and finite")
        # not tau * v < d_sep, which rounds below d_sep at tau = d_sep / v
        if self.tau < self.d_sep / self.shift_velocity:
            raise ValidationError(
                "coupling too short: tau * shift_velocity < d_sep")

    def validate_apparatus(self, sigma: float) -> None:
        if self.d_sep < 3.0 * sigma * (1.0 - _WIDTH_RTOL):
            raise ValidationError(
                f"d_sep={self.d_sep} below 3 * apparatus sigma={sigma}")


@dataclass(frozen=True)
class TransitionReport:
    """Earliest persistent order-parameter crossing, if any, plus the series."""

    t_star: Optional[float]
    series: Tuple[Tuple[float, float, float], ...]  # (t, min_sep, critical)


@dataclass(frozen=True)
class MeasurementOutcome:
    event: CollapseEvent
    apparatus_state: WaveFunction
    object_mixture: Tuple[float, ...]


def premeasurement(obj: ObjectState, apparatus_ready: WaveFunction,
                   gate_cfg: GateConfig = GateConfig(),
                   params: PhysicalParams = PhysicalParams()) -> CompositeState:
    """Product state: every object branch shares the ready apparatus packet,
    which must pass `position_gate`."""
    if not position_gate(apparatus_ready, gate_cfg, params).is_wave_packet:
        raise ApparatusNotReady("apparatus state fails the wave-packet gate")
    return CompositeState(branches=tuple(
        (n, c, apparatus_ready) for n, c in enumerate(obj.amplitudes)))


def von_neumann_evolve(state: CompositeState, cfg: CouplingConfig,
                       v: Potential, params: PhysicalParams, dt: float,
                       observer=None) -> Tuple[CompositeState, TransitionReport]:
    """Couple object and apparatus for the least whole number of steps n with
    n * dt >= tau (to 1e-9 of a step's rounding slack), so the branches end
    at least the d_sep apart that CouplingConfig validated.

    Branch n drifts at velocity n * shift_velocity inside the potential,
    which rides along with it.  Since T(a) S_{V(x-a)} = S_V T(a) for a rigid
    shift T and a split step S, branch n is evolved in its co-moving frame
    under the one static potential, of any kind, and is seen in the lab
    frame as that state translated by
    n * shift_velocity * t.  Confining potentials therefore hold the packet
    shape while its center translates.  The coefficients are carried
    unchanged.  `observer`, if given, receives (t, per-branch PacketSummary
    list, OrderParameters or None for a single branch) at every step.  As in
    `evolve`, dt must be positive and resolve a harmonic period, and
    `check_edge_mass` guards every lab-frame branch at every step.  The
    summaries and the apparatus width check take `params`, so momentum
    moments follow physics.hbar.
    """
    EvolutionConfig(dt=dt, n_steps=0).validate_against(v)
    cfg.validate_apparatus(
        packet_summary(state.apparatus_states[0], params=params).std_x)
    n_steps = math.ceil(cfg.tau / dt - 1e-9)
    frames = list(state.branches)  # (n, c_n, branch n in its co-moving frame)
    series: list = []

    def sample(t: float) -> list:
        """The lab-frame branches at time t, guarded, summarised, observed."""
        lab = []
        for n, c, phi in frames:
            shift = n * cfg.shift_velocity * t
            psi = translate(phi, shift) if shift != 0.0 else phi
            check_edge_mass(psi.amplitudes, psi.grid, " in branch %d at t=%r",
                            n, t)
            lab.append((n, c, psi))
        summaries = [packet_summary(s, params=params) for _, _, s in lab]
        ops = order_parameters(summaries) if len(summaries) >= 2 else None
        if observer is not None:
            observer(t, summaries, ops)
        if ops is not None:
            series.append((t, ops.min_pairwise_separation, ops.critical_value))
        return lab

    branches = sample(0.0)
    for i in range(1, n_steps + 1):
        frames = [(n, c, step(phi, v, params, dt)) for n, c, phi in frames]
        branches = sample(i * dt)
    final = CompositeState(branches=tuple(branches))
    return final, detect_transition(series)


def detect_transition(series: Sequence[Tuple[float, float, float]]
                      ) -> TransitionReport:
    """Earliest crossing min_sep >= critical that persists to the end."""
    series = tuple(series)
    t_star = None
    for t, sep, crit in reversed(series):
        if sep >= crit:
            t_star = t
        else:
            break
    return TransitionReport(t_star=t_star, series=series)


def apparatus_decomposition(state: CompositeState,
                            params: PhysicalParams = PhysicalParams()
                            ) -> SuperpositionDecomposition:
    """`decompose` of the apparatus superposition over its branch packets."""
    coeffs = state.coefficients
    basis = state.apparatus_states
    psi2 = superpose(zip(coeffs, basis))
    return decompose(psi2, basis, params, expected_coefficients=coeffs)


def measure(state: CompositeState, report: TransitionReport, seed: int,
            params: PhysicalParams = PhysicalParams()) -> MeasurementOutcome:
    """Self-collapse on the apparatus, relative collapse on the object.

    The realized branch is the sample_collapse pick of the first double of
    np.random.default_rng(seed) on `apparatus_decomposition(state, params)`.
    Requires a detected transition; before that the pointer packets are not
    weakly interfering and collapse semantics do not apply.  The composite
    state is read, never modified.
    """
    if report.t_star is None:
        raise TransitionNotReached(
            "order parameter never crossed its critical value")
    decomp = apparatus_decomposition(state, params)
    event = sample_collapse(decomp, np.random.default_rng(seed).random())
    realized = apply_self_collapse(decomp, event)
    mixture = tuple(float(abs(c) ** 2) for c in state.coefficients)
    return MeasurementOutcome(event=event, apparatus_state=realized,
                              object_mixture=mixture)
