"""Expectation values, packet summaries, classicality gates, order parameters.

Everything here is a pure read-only function over immutable states.  The
wave-packet gate quantifies the usual ">>" dominance condition as a
configurable ratio threshold and the Taylor-closure condition as a relative
tolerance, so verdicts are reproducible.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    NonHermitianResidue,
    ObservableNotPositiveOnSupport,
    TooFewPackets,
    ValidationError,
)
from .grid import PhysicalParams, WaveFunction

HERMITICITY_TOL = 1e-6
VARIANCE_CLAMP_TOL = 1e-9
# Containment width multiplier used by the gate's "practically certainly
# placed" test; +-3 std x covers 99.7% of a Gaussian, the default
# mass_threshold of 0.99 is meaningless at the bare interval width.
GATE_CONTAINMENT_K = 6.0


@dataclass(frozen=True)
class ObservableSpec:
    """Position polynomial A(x) = sum a_k x^k, momentum, or momentum squared."""

    kind: str
    coefficients: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("position_poly", "momentum", "momentum_squared"):
            raise ValidationError(f"unknown observable kind {self.kind!r}")
        if self.kind != "position_poly" and len(self.coefficients):
            raise ValidationError(f"{self.kind} takes no coefficients")
        if self.kind == "position_poly":
            coeffs = tuple(float(c) for c in self.coefficients)
            if not 1 <= len(coeffs) <= 9:
                raise ValidationError("position_poly needs 1 to 9 "
                                      f"coefficients, got {len(coeffs)}")
            if not all(np.isfinite(coeffs)):
                raise ValidationError("coefficients must be finite")
            object.__setattr__(self, "coefficients", coeffs)

    @staticmethod
    def position_poly(coefficients: Sequence[float]) -> "ObservableSpec":
        return ObservableSpec("position_poly", tuple(coefficients))

    @staticmethod
    def position(shift: float = 0.0) -> "ObservableSpec":
        """A(x) = x + shift."""
        return ObservableSpec("position_poly", (shift, 1.0))

    @staticmethod
    def momentum() -> "ObservableSpec":
        return ObservableSpec("momentum")

    @staticmethod
    def momentum_squared() -> "ObservableSpec":
        return ObservableSpec("momentum_squared")

    def classical_value(self, x: np.ndarray | float):
        if self.kind != "position_poly":
            raise ValidationError("classical_value only defined for position_poly")
        return np.polynomial.polynomial.polyval(x, self.coefficients)


@dataclass(frozen=True)
class PacketSummary:
    """Position/momentum moments plus the support interval of a state."""

    exp_x: float
    std_x: float
    exp_p: float
    std_p: float
    support: Tuple[float, float]
    mass_in_support: float

    @property
    def uncertainty_product(self) -> float:
        return self.std_x * self.std_p


@dataclass(frozen=True)
class GateConfig:
    """Thresholds quantifying the wave-packet approximation conditions."""

    eta: float = 10.0          # dominance ratio standing in for ">>"
    k: float = 1.0             # support interval width multiplier
    taylor_tol: float = 0.05   # relative tolerance for <A> ~ A(<x>)
    mass_threshold: float = 0.99

    def __post_init__(self):
        if not 1 < self.eta < math.inf:
            raise ValidationError("eta must exceed 1 and be finite")
        if not 0 < self.k < math.inf:
            raise ValidationError("k must be positive and finite")
        if not 0 < self.taylor_tol < 1:
            raise ValidationError("taylor_tol must lie in (0, 1)")
        if not 0.5 < self.mass_threshold < 1:
            raise ValidationError("mass_threshold must lie in (0.5, 1)")


@dataclass(frozen=True)
class GateVerdict:
    """The gate's decision and the evidence for each of its criteria."""

    is_wave_packet: bool
    ratio: float            # |<A>| / std A, vs eta
    taylor_error: float     # |<A> - A(<x>)| / |<A>|, vs taylor_tol
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


def _moment_pair(u: np.ndarray, au: np.ndarray, scale: float,
                 weight: float) -> Tuple[float, float]:
    """(<A>, <A^2>) = (Re vdot(u, au) scale weight, |au|^2 scale^2 weight),
    <A>'s imaginary residue checked: the one place the first two moments of
    an observable A = scale * (u -> au) are formed.  A position polynomial
    reads u = a (psi's amplitudes), au = A(x) a, scale 1 and weight dx; a
    momentum power p^n reads u = phi = psi.spectrum, au = k^n phi, scale
    hbar^n and the Parseval weight dx/N (sum |phi|^2 dx/N = sum |a|^2 dx)."""
    mean = _hermitian_real(complex(np.vdot(u, au)) * scale * weight)
    return mean, float(np.vdot(au, au).real) * scale**2 * weight


def _moments(psi: WaveFunction, a: ObservableSpec,
             params: PhysicalParams) -> Tuple[float, float]:
    """(<A>, <A^2>) by `_moment_pair`; a momentum power by Parseval on
    psi.spectrum, with no inverse FFT."""
    grid = psi.grid
    if a.kind == "position_poly":
        amps = psi.amplitudes
        return _moment_pair(amps, a.classical_value(grid.x) * amps, 1.0,
                            grid.dx)
    power = 1 if a.kind == "momentum" else 2
    phi = psi.spectrum
    return _moment_pair(phi, grid.k**power * phi, params.hbar**power,
                        grid.dx / grid.n_points)


def expectation(psi: WaveFunction, a: ObservableSpec,
                params: PhysicalParams = PhysicalParams()) -> float:
    """<A> = (psi, A psi) with the hermiticity residue checked and discarded."""
    return _moments(psi, a, params)[0]


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
    return float(np.sqrt(var))


def std_dev(psi: WaveFunction, a: ObservableSpec,
            params: PhysicalParams = PhysicalParams()) -> float:
    """sqrt(<A^2> - <A>^2), clamped at zero with a warning on real excursions."""
    mean, second = _moments(psi, a, params)
    return _clamped_std(second, mean)


def packet_summary(psi: WaveFunction, k: float = 1.0,
                   params: PhysicalParams = PhysicalParams()) -> PacketSummary:
    """Moments, the support interval (<x> +- k std x / 2) and its mass.

    One `_moment_pair` each for x, on psi's amplitudes a, and for p = hbar k,
    on phi = psi.spectrum (F a, computed once per state, or handed on by
    `translate`), so the moments equal `expectation` and `std_dev` of
    ObservableSpec.position() and .momentum() bit for bit.  The support
    mass is |a|^2 dx summed over the grid points inside the closed support
    interval.
    """
    a = psi.amplitudes
    grid = psi.grid
    exp_x, x2 = _moment_pair(a, grid.x * a, 1.0, grid.dx)
    sx = _clamped_std(x2, exp_x)
    phi = psi.spectrum
    exp_p, p2 = _moment_pair(phi, grid.k * phi, params.hbar,
                             grid.dx / grid.n_points)
    sp = _clamped_std(p2, exp_p)

    half = 0.5 * k * sx
    lo, hi = exp_x - half, exp_x + half
    inside = a[_support_slice(grid.x, lo, hi)]
    mass = float(np.vdot(inside, inside).real) * grid.dx
    return PacketSummary(exp_x=exp_x, std_x=sx, exp_p=exp_p, std_p=sp,
                         support=(lo, hi), mass_in_support=min(mass, 1.0))


def positive_position(summary: PacketSummary) -> ObservableSpec:
    """A(x) = x + C with the smallest C (plus one width) keeping A positive.

    C = max(0, std x / 10 - lo) + std x, where lo = summary.support[0] is the
    lower end of the interval the gate probes, so `summary` must be taken
    with the gate's own config.  Keeping the shift minimal is what lets the
    dominance ratio discriminate: a narrow packet at center >> width passes,
    while a broad or multi-humped state has |<A>| comparable to its own
    width and fails.
    """
    lo, sx = summary.support[0], summary.std_x
    return ObservableSpec.position(max(0.0, 0.1 * sx - lo) + sx)


def position_gate(psi: WaveFunction, cfg: GateConfig = GateConfig(),
                  params: PhysicalParams = PhysicalParams()) -> GateVerdict:
    """The wave-packet gate on the one observable positive_position(summary)
    of psi's own summary: the readiness test of the apparatus packet and of
    each `cat_gate` state."""
    summary = packet_summary(psi, cfg.k, params)
    return wave_packet_gate(psi, positive_position(summary), cfg, params)


def wave_packet_gate(psi: WaveFunction, obs: ObservableSpec,
                     cfg: GateConfig = GateConfig(),
                     params: PhysicalParams = PhysicalParams()) -> GateVerdict:
    """Classicality gate: dominance ratio, Taylor closure and containment.

    A position polynomial must be strictly positive on the support
    interval, which is the choosability condition that makes a failed ratio
    test meaningful.
    """
    summary = packet_summary(psi, cfg.k, params)
    # Containment is judged on a wide interval regardless of cfg.k; see
    # GATE_CONTAINMENT_K.
    mass = packet_summary(psi, max(cfg.k, GATE_CONTAINMENT_K),
                          params).mass_in_support
    if obs.kind == "position_poly":
        lo, hi = summary.support
        x = psi.grid.x
        probe = np.append(x[_support_slice(x, lo, hi)], summary.exp_x)
        if np.any(obs.classical_value(probe) <= 0.0):
            raise ObservableNotPositiveOnSupport(
                f"A(x) not strictly positive on support ({lo}, {hi})")
        classical = float(obs.classical_value(summary.exp_x))
    elif obs.kind == "momentum":
        classical = summary.exp_p
    else:
        classical = summary.exp_p**2
    mean, second = _moments(psi, obs, params)
    spread = _clamped_std(second, mean)
    ratio = abs(mean) / spread if spread > 0 else np.inf
    taylor_err = abs(mean - classical) / abs(mean) if mean != 0 else np.inf
    passed = (mass >= cfg.mass_threshold and ratio >= cfg.eta
              and taylor_err <= cfg.taylor_tol)
    return GateVerdict(passed, ratio, taylor_err, mass)


def weak_interference(summaries: Sequence[PacketSummary]) -> np.ndarray:
    """Pairwise weak-interference matrix.

    Entry (n, m) is True iff |<x>_n - <x>_m| >= (std_n + std_m)/2 (inclusive).
    Diagonal is False by definition.
    """
    if len(summaries) < 2:
        raise TooFewPackets("need at least two packet summaries")
    centers = np.array([s.exp_x for s in summaries])
    widths = np.array([s.std_x for s in summaries])
    out = (np.abs(centers[:, None] - centers[None, :])
           >= 0.5 * (widths[:, None] + widths[None, :]))
    np.fill_diagonal(out, False)
    return out


def order_parameters(branch_summaries: Sequence[PacketSummary]) -> OrderParameters:
    """Min pairwise separation vs the max pairwise half-width-sum threshold.

    The closest pair of centers is adjacent in sorted order and the largest
    half-width sum belongs to the two widest packets.  Rounding is monotone,
    so both equal the extremes over all pairs bit for bit.
    """
    if len(branch_summaries) < 2:
        raise TooFewPackets("need at least two packet summaries")
    centers = sorted(s.exp_x for s in branch_summaries)
    widths = sorted(s.std_x for s in branch_summaries)
    return OrderParameters(
        min_pairwise_separation=float(min(
            hi - lo for lo, hi in zip(centers, centers[1:]))),
        critical_value=float(0.5 * (widths[-1] + widths[-2])))
