"""Object + apparatus measurement chain.

The object is a finite-dimensional system expanded in the eigenbasis of the
measured observable; the apparatus is a grid wave packet.  The composite
sum_n c_n |n> x |a_n> is held as columns: the object's amplitudes c_n and one
apparatus packet a_n per branch, branch n at position n.  The coupling
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
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .collapse import (
    SuperpositionDecomposition,
    apply_self_collapse,
    decompose,
    sample_collapse,
)
from .diagnostics import (GateConfig, OrderParameters, order_parameters,
                          packet_summary, position_gate)
from .errors import ApparatusNotReady, TransitionNotReached, ValidationError
from .grid import (NORM_TOL, PhysicalParams, WaveFunction, _frozen,
                   check_edge_mass, check_unit_weights, superpose)
from .propagate import EvolutionConfig, Potential, step, translate

# Relative rounding slack of a measured width: a sigma0 = 1 packet at x = 20
# on [-40, 120] with N = 1024 measures std x = 1 + 2.8e-14.
_WIDTH_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class CompositeState:
    """sum_n c_n |n> x |a_n>: the object's amplitudes c_n in the measured
    observable's eigenbasis, a read-only 1-D complex128 array of unit norm,
    and the apparatus packet a_n of each branch n."""

    coefficients: np.ndarray
    apparatus_states: Tuple[WaveFunction, ...]

    def __post_init__(self):
        amps = np.array(self.coefficients, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 1:
            raise ValidationError("object amplitudes must be a 1-D vector")
        check_unit_weights(amps, NORM_TOL, "object norm^2")
        states = tuple(self.apparatus_states)
        if len(states) != amps.size:
            raise ValidationError(f"{len(states)} apparatus packets for "
                                  f"{amps.size} coefficients")
        object.__setattr__(self, "coefficients", _frozen(amps))
        object.__setattr__(self, "apparatus_states", states)

    def __len__(self) -> int:
        return len(self.apparatus_states)


@dataclass(frozen=True, kw_only=True)
class CouplingConfig:
    shift_velocity: float = 1.0
    tau: float = 15.0

    def __post_init__(self):
        if not (0 < self.shift_velocity < math.inf and 0 < self.tau < math.inf):
            raise ValidationError(
                "shift_velocity and tau must be positive and finite")

    def n_steps(self, dt: float) -> int:
        """The fewest steps n with n * dt >= tau, to 1e-9 of a step."""
        return math.ceil(self.tau / dt - 1e-9)

    def validate_apparatus(self, sigma: float, dt: float) -> None:
        """Adjacent branches must end v * n_steps(dt) * dt >= 3 sigma apart."""
        separation = self.shift_velocity * (self.n_steps(dt) * dt)
        if separation < 3.0 * sigma * (1.0 - _WIDTH_RTOL):
            raise ValidationError(f"coupling too short: branches end "
                                  f"{separation:g} apart, below 3 * "
                                  f"apparatus sigma={sigma}")


class TransitionReport(NamedTuple):
    """t_star, the time since which the order parameter has stayed at or
    above its critical value (None while below), and the latest critical
    value; both None before any order parameter is folded in."""

    t_star: Optional[float] = None
    critical_value: Optional[float] = None

    def after(self, t: float, ops: OrderParameters) -> "TransitionReport":
        """This report with `ops` at time t folded in: a step at or above
        critical keeps t_star or starts it at t, one below discards it."""
        start = t if self.t_star is None else self.t_star
        return TransitionReport(start if ops.transition else None,
                                ops.critical_value)


@dataclass(frozen=True)
class MeasurementOutcome:
    branch: int
    apparatus_state: WaveFunction
    object_mixture: Tuple[float, ...]


def premeasurement(amplitudes, apparatus_ready: WaveFunction,
                   gate_cfg: GateConfig = GateConfig()) -> CompositeState:
    """Product state: every object branch of `amplitudes` shares the ready
    apparatus packet, which must pass `position_gate`."""
    composite = CompositeState(
        amplitudes, (apparatus_ready,) * np.size(amplitudes))
    if not position_gate(apparatus_ready, gate_cfg).is_wave_packet:
        raise ApparatusNotReady("apparatus state fails the wave-packet gate")
    return composite


def von_neumann_evolve(state: CompositeState, cfg: CouplingConfig,
                       v: Potential, params: PhysicalParams, dt: float,
                       observer=None) -> Tuple[CompositeState, TransitionReport]:
    """Couple object and apparatus for `cfg.n_steps(dt)` steps.

    Branch n drifts at velocity n * shift_velocity inside the potential,
    which rides along with it.  Since T(a) S_{V(x-a)} = S_V T(a) for a rigid
    shift T and a split step S, branch n is evolved in its co-moving frame
    under the one static potential, of any kind, and is seen in the lab
    frame as that state translated by n * shift_velocity * t.  Confining
    potentials therefore hold the packet shape while its center translates.
    The coefficients are carried unchanged.  `observer`, if given, receives
    (t, per-branch PacketSummary list, OrderParameters or None for a single
    branch) at every step, and the returned TransitionReport is `after`
    folded over the same steps.  As in `evolve`, dt must be positive and
    resolve a harmonic period, and `check_edge_mass` guards every lab-frame
    branch at every step.  The observer's summaries take `params`, so
    their momentum moments follow physics.hbar.
    """
    EvolutionConfig(dt=dt, n_steps=0).validate_against(v)
    cfg.validate_apparatus(packet_summary(state.apparatus_states[0]).std_x, dt)
    frames = state.apparatus_states  # branch n in its co-moving frame
    report = TransitionReport()
    for i in range(cfg.n_steps(dt) + 1):
        if i:
            frames = [step(phi, v, params, dt) for phi in frames]
        t, lab = i * dt, []  # the lab-frame branches at t, each guarded
        for n, phi in enumerate(frames):
            shift = n * cfg.shift_velocity * t
            psi = translate(phi, shift) if shift != 0.0 else phi
            check_edge_mass(psi.amplitudes, psi.grid, " in branch %d at t=%r",
                            n, t)
            lab.append(psi)
        summaries = [packet_summary(s, params=params) for s in lab]
        ops = order_parameters(summaries) if len(summaries) >= 2 else None
        if observer is not None:
            observer(t, summaries, ops)
        if ops is not None:
            report = report.after(t, ops)
    return CompositeState(state.coefficients, lab), report


def apparatus_decomposition(state: CompositeState
                            ) -> SuperpositionDecomposition:
    """`decompose` of the apparatus superposition over its branch packets."""
    coeffs, basis = state.coefficients, state.apparatus_states
    psi2 = superpose(zip(coeffs, basis))
    return decompose(psi2, basis, expected_coefficients=coeffs)


def measure(state: CompositeState, report: TransitionReport,
            seed: int) -> MeasurementOutcome:
    """Self-collapse on the apparatus, relative collapse on the object.

    The realized branch is the sample_collapse pick of the first double of
    np.random.default_rng(seed) on `apparatus_decomposition(state)`.
    Requires a detected transition; before that the pointer packets are not
    weakly interfering and collapse semantics do not apply.  The composite
    state is read, never modified.
    """
    if report.t_star is None:
        raise TransitionNotReached(
            "order parameter never crossed its critical value")
    decomp = apparatus_decomposition(state)
    branch = sample_collapse(decomp, np.random.default_rng(seed).random())
    mixture = tuple(float(abs(c) ** 2) for c in state.coefficients)
    return MeasurementOutcome(branch, apply_self_collapse(decomp, branch),
                              mixture)
