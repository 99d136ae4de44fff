"""Packet summaries, the classicality gate and order parameters.

Everything here is a pure read-only function over immutable states.  The
wave-packet gate quantifies the usual ">>" dominance condition as a
configurable ratio threshold, so verdicts are reproducible.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import (NonHermitianResidue, ObservableNotPositiveOnSupport,
                     ValidationError)
from .grid import PhysicalParams, WaveFunction, _amplitude_norm

HERMITICITY_TOL = 1e-6
VARIANCE_CLAMP_TOL = 1e-9
# Containment width multiplier used by the gate's "practically certainly
# placed" test; +-3 std x covers 99.7% of a Gaussian, the default
# mass_threshold of 0.99 is meaningless at the bare interval width.
GATE_CONTAINMENT_K = 6.0


@dataclass(frozen=True)
class PacketSummary:
    """Position/momentum moments plus the support interval of a state, and
    its norm sqrt(sum |a|^2 dx), as `WaveFunction.norm` computes it."""

    exp_x: float
    std_x: float
    exp_p: float
    std_p: float
    support: Tuple[float, float]
    mass_in_support: float
    norm: float

    @property
    def uncertainty_product(self) -> float:
        return self.std_x * self.std_p


@dataclass(frozen=True)
class GateConfig:
    """Thresholds quantifying the wave-packet approximation conditions."""

    eta: float = 10.0          # dominance ratio standing in for ">>"
    k: float = 1.0             # support interval width multiplier
    mass_threshold: float = 0.99

    def __post_init__(self):
        if not 1 < self.eta < math.inf:
            raise ValidationError("eta must exceed 1 and be finite")
        if not 0 < self.k < math.inf:
            raise ValidationError("k must be positive and finite")
        if not 0.5 < self.mass_threshold < 1:
            raise ValidationError("mass_threshold must lie in (0.5, 1)")


@dataclass(frozen=True)
class GateVerdict:
    """The gate's decision and the evidence for each of its criteria."""

    is_wave_packet: bool
    ratio: float            # <A> / std A, vs eta
    mass_in_support: float  # in the containment interval, vs mass_threshold


@dataclass(frozen=True)
class OrderParameters:
    """Minimum pairwise packet separation against its critical value."""

    min_pairwise_separation: float
    critical_value: float

    @property
    def transition(self) -> bool:
        return self.min_pairwise_separation >= self.critical_value


def _support_slice(x: np.ndarray, lo: float, hi: float) -> slice:
    """The grid points lo <= x <= hi of the ascending grid x, as a slice."""
    return slice(int(x.searchsorted(lo, side="left")),
                 int(x.searchsorted(hi, side="right")))


def _hermitian_real(val: complex) -> float:
    """Real part of an expectation value, its imaginary residue checked."""
    if not abs(val.imag) <= HERMITICITY_TOL:  # also rejects nan
        raise NonHermitianResidue(
            f"imaginary residue {val.imag:.3g} exceeds {HERMITICITY_TOL}")
    if not math.isfinite(val.real):
        raise ValidationError(f"expectation value {val.real} is not finite")
    return val.real


def _clamped_std(second_moment: float, mean: float) -> float:
    """sqrt(<A^2> - <A>^2), clamped at zero with a warning on real excursions."""
    var = second_moment - mean**2
    if not math.isfinite(var):
        raise ValidationError(f"variance {var} is not finite")
    if var < 0:
        if var < -VARIANCE_CLAMP_TOL:
            warnings.warn(
                f"negative variance {var:.3g} clamped to zero", RuntimeWarning)
        var = 0.0
    return math.sqrt(var)


def packet_summary(psi: WaveFunction, k: float = 1.0,
                   params: PhysicalParams = PhysicalParams()) -> PacketSummary:
    """Moments, the support interval (<x> +- k std x / 2) and its mass.

    Position reads psi's amplitudes a: <x> = Re vdot(a, x a) dx and
    <x^2> = |x a|^2 dx.  Momentum p = hbar k reads phi = psi.spectrum (F a,
    computed once per state, or handed on by `translate`) with the Parseval
    weight dx/N (sum |phi|^2 dx/N = sum |a|^2 dx): <p> = Re vdot(phi, k phi)
    hbar dx/N and <p^2> = |k phi|^2 hbar^2 dx/N.  Each mean has its
    imaginary residue checked.  The support mass is |a|^2 dx summed over
    the grid points inside the closed support interval.
    """
    a, grid = psi.amplitudes, psi.grid
    dx, xa = grid.dx, grid.x * a
    exp_x = _hermitian_real(complex(np.vdot(a, xa)) * dx)
    sx = _clamped_std(float(np.vdot(xa, xa).real) * dx, exp_x)
    phi, hbar, weight = psi.spectrum, params.hbar, dx / grid.n_points
    kphi = grid.k * phi
    exp_p = _hermitian_real(complex(np.vdot(phi, kphi)) * hbar * weight)
    sp = _clamped_std(float(np.vdot(kphi, kphi).real) * hbar**2 * weight,
                      exp_p)

    half = 0.5 * k * sx
    lo, hi = exp_x - half, exp_x + half
    inside = a[_support_slice(grid.x, lo, hi)]
    mass = float(np.vdot(inside, inside).real) * dx
    return PacketSummary(exp_x=exp_x, std_x=sx, exp_p=exp_p, std_p=sp,
                         support=(lo, hi), mass_in_support=min(mass, 1.0),
                         norm=_amplitude_norm(a, dx))


def positive_position(summary: PacketSummary) -> float:
    """The shift C of the gate observable A(x) = x + C: the smallest C (plus
    one width) keeping A positive on the gate's support interval.

    C = max(0, std x / 10 - lo) + std x, where lo = summary.support[0] is the
    lower end of that interval, so `summary` must be taken with the gate's
    own config.  Keeping the shift minimal is what lets the dominance ratio
    discriminate: a narrow packet at center >> width passes, while a broad
    or multi-humped state has <A> comparable to its own width and fails.
    """
    lo, sx = summary.support[0], summary.std_x
    return max(0.0, 0.1 * sx - lo) + sx


def position_gate(psi: WaveFunction, cfg: GateConfig = GateConfig(),
                  params: PhysicalParams = PhysicalParams()) -> GateVerdict:
    """The wave-packet gate on A(x) = x + positive_position(summary) of
    psi's own summary: the readiness test of the apparatus packet and of
    each `cat_gate` state.

    The verdict depends on where the coordinate origin lies, as the paper's
    condition <A> >> std A for a positive A does.  With lo = <x> - k std x / 2,
    the ratio is <x> / std x + 1 when lo >= std x / 10 and 1.1 + k / 2
    otherwise.  So a std x = 1 Gaussian on [-40, 120], N = 2048, fails at
    centers -20, 0 and 5 (ratios 1.6, 1.6 and 6) and passes at 10, 20 and
    60 (11, 21 and 61) against eta = 10; moving grid and packet together by
    15 turns the ratio 6 into 21.  At the origin, k = 17 fails at 9.6 and
    k = 18 passes at 10.1.  At center 9 the ratio is eta in exact
    arithmetic, so rounding decides that verdict.
    """
    summary = packet_summary(psi, cfg.k, params)
    return wave_packet_gate(psi, positive_position(summary), cfg, params)


def wave_packet_gate(psi: WaveFunction, shift: float,
                     cfg: GateConfig = GateConfig(),
                     params: PhysicalParams = PhysicalParams()) -> GateVerdict:
    """Classicality gate on A(x) = x + shift: the dominance ratio
    <A> / std A = (<x> + shift) / std x against cfg.eta, and containment.

    A must be strictly positive on the support interval, which is the
    choosability condition that makes a failed ratio test meaningful; A is
    increasing, so that is A(lo) > 0 at its lower end lo.
    """
    summary = packet_summary(psi, cfg.k, params)
    # Containment is judged on a wide interval regardless of cfg.k; see
    # GATE_CONTAINMENT_K.
    mass = packet_summary(psi, max(cfg.k, GATE_CONTAINMENT_K),
                          params).mass_in_support
    lo, hi = summary.support
    if not lo + shift > 0.0:
        raise ObservableNotPositiveOnSupport(
            f"x + {shift} not strictly positive on support ({lo}, {hi})")
    sx = summary.std_x
    ratio = (summary.exp_x + shift) / sx if sx > 0 else math.inf
    return GateVerdict(mass >= cfg.mass_threshold and ratio >= cfg.eta,
                       ratio, mass)


def weak_interference(summaries: Sequence[PacketSummary]) -> np.ndarray:
    """Pairwise weak-interference matrix.

    Entry (n, m) is True iff |<x>_n - <x>_m| >= (std_n + std_m)/2 (inclusive).
    Diagonal is False by definition, so one packet gives [[False]].
    """
    centers = np.array([s.exp_x for s in summaries])
    widths = np.array([s.std_x for s in summaries])
    out = (np.abs(centers[:, None] - centers[None, :])
           >= 0.5 * (widths[:, None] + widths[None, :]))
    np.fill_diagonal(out, False)
    return out


def order_parameters(branch_summaries: Sequence[PacketSummary]) -> OrderParameters:
    """Min pairwise separation vs max pairwise half-width sum, of 2+ packets.

    The closest pair of centers is adjacent in sorted order and the largest
    half-width sum belongs to the two widest packets.  Rounding is monotone,
    so both equal the extremes over all pairs bit for bit.
    """
    centers = sorted(s.exp_x for s in branch_summaries)
    widths = sorted(s.std_x for s in branch_summaries)
    return OrderParameters(
        min_pairwise_separation=float(min(
            hi - lo for lo, hi in zip(centers, centers[1:]))),
        critical_value=float(0.5 * (widths[-1] + widths[-2])))
