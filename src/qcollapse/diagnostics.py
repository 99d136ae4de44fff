"""Expectation values, packet summaries, classicality gates and residuals.

Everything here is a pure read-only function over immutable states.  The
wave-packet gate quantifies the usual ">>" dominance condition as a
configurable ratio threshold and the Taylor-closure condition as a relative
tolerance, so verdicts are reproducible.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    NonHermitianResidue,
    NonUniformSampling,
    ObservableNotPositiveOnSupport,
    TooFewPackets,
    ValidationError,
)
from .grid import PhysicalParams, WaveFunction
from .propagate import Potential

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
        if self.kind == "position_poly":
            coeffs = tuple(float(c) for c in self.coefficients)
            if not coeffs or len(coeffs) > 9:
                raise ValidationError("position_poly degree must be <= 8")
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
    is_wave_packet: bool
    per_observable: Tuple[Tuple[ObservableSpec, float, float], ...]
    uncertainty_product: float
    mass_in_support: float


@dataclass(frozen=True)
class OrderParameters:
    """Minimum pairwise packet separation against its critical value."""

    min_pairwise_separation: float
    critical_value: float

    @property
    def transition(self) -> bool:
        return self.min_pairwise_separation >= self.critical_value


@dataclass(frozen=True)
class EhrenfestResiduals:
    """Ehrenfest and Newtonian-limit residuals at interior sample times."""

    times: np.ndarray
    residual_x: np.ndarray       # |m d<x>/dt - <p>|
    residual_p: np.ndarray       # |d<p>/dt + <dV/dx>|
    residual_newton: np.ndarray  # |d<p>/dt + dV(<x>)/d<x>|


def _support_slice(x: np.ndarray, lo: float, hi: float) -> slice:
    """The grid points lo <= x <= hi of the ascending grid x, as a slice."""
    return slice(int(np.searchsorted(x, lo, side="left")),
                 int(np.searchsorted(x, hi, side="right")))


def _hermitian_real(val: complex) -> float:
    """Real part of an expectation value, its imaginary residue checked."""
    if not abs(val.imag) <= HERMITICITY_TOL:  # also rejects nan
        raise NonHermitianResidue(
            f"imaginary residue {val.imag:.3g} exceeds {HERMITICITY_TOL}")
    if not math.isfinite(val.real):
        raise ValidationError(f"expectation value {val.real} is not finite")
    return val.real


def expectation(psi: WaveFunction, a: ObservableSpec,
                params: PhysicalParams = PhysicalParams()) -> float:
    """<A> = (psi, A psi) with the hermiticity residue checked and discarded;
    a momentum power p^n by Parseval on phi = psi.spectrum, vdot(phi, p^n
    phi) dx/N, with no inverse FFT."""
    dx = psi.grid.dx
    if a.kind == "position_poly":
        amps = psi.amplitudes
        val = complex(np.vdot(amps, a.classical_value(psi.grid.x) * amps)) * dx
    else:
        phi = psi.spectrum
        p = params.hbar * psi.grid.k
        power = 1 if a.kind == "momentum" else 2
        val = complex(np.vdot(phi, p**power * phi)) * dx / psi.grid.n_points
    return _hermitian_real(val)


def _second_moment(psi: WaveFunction, a: ObservableSpec,
                   params: PhysicalParams) -> float:
    dx = psi.grid.dx
    if a.kind == "position_poly":
        rho = psi.probability_density()
        vals = a.classical_value(psi.grid.x)
        return float(np.sum(vals**2 * rho)) * dx
    phi = psi.spectrum
    p = params.hbar * psi.grid.k
    power = 2 if a.kind == "momentum" else 4
    # Parseval: sum_k |phi_k|^2 * dx / N equals the norm^2.
    weight = (phi.real**2 + phi.imag**2) * dx / psi.grid.n_points
    return float(np.sum(p**power * weight))


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
    return _clamped_std(_second_moment(psi, a, params),
                        expectation(psi, a, params))


def packet_summary(psi: WaveFunction, cfg: GateConfig = GateConfig(),
                   params: PhysicalParams = PhysicalParams()) -> PacketSummary:
    """Moments, the support interval (<x> +- k std x / 2) and its mass.

    One fused pass over a = psi's amplitudes and phi = psi.spectrum (F a,
    computed once per state, or handed on by `translate`), with the
    wavenumbers k (p = hbar k):

        <x> = Re vdot(a, x a) dx               <x^2> = |x a|^2 dx
        <p> = hbar Re vdot(phi, k phi) dx/N    <p^2> = hbar^2 |k phi|^2 dx/N

    where dx/N is the Parseval weight (sum |phi|^2 dx/N = sum |a|^2 dx), so
    each second moment reuses the product formed for its first moment.  The
    imaginary parts of both first moments are checked against
    HERMITICITY_TOL as in `expectation`.  The support mass is |a|^2 dx
    summed over the grid points inside the closed support interval.
    """
    a = psi.amplitudes
    grid = psi.grid
    dx = grid.dx
    xa = grid.x * a
    exp_x = _hermitian_real(complex(np.vdot(a, xa)) * dx)
    sx = _clamped_std(float(np.vdot(xa, xa).real) * dx, exp_x)

    phi = psi.spectrum
    k_phi = grid.k * phi
    hbar = params.hbar
    weight = dx / grid.n_points
    exp_p = _hermitian_real(complex(np.vdot(phi, k_phi)) * hbar * weight)
    sp = _clamped_std(float(np.vdot(k_phi, k_phi).real) * hbar**2 * weight,
                      exp_p)

    half = 0.5 * cfg.k * sx
    lo, hi = exp_x - half, exp_x + half
    inside = a[_support_slice(grid.x, lo, hi)]
    mass = float(np.vdot(inside, inside).real) * dx
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
    summary = packet_summary(psi, cfg, params)
    return wave_packet_gate(psi, [positive_position(summary)], cfg, params)


def wave_packet_gate(psi: WaveFunction, observables: Sequence[ObservableSpec],
                     cfg: GateConfig = GateConfig(),
                     params: PhysicalParams = PhysicalParams()) -> GateVerdict:
    """Classicality gate: dominance ratio, Taylor closure and containment.

    Every position polynomial must be strictly positive on the support
    interval, which is the choosability condition that makes a failed ratio
    test meaningful.
    """
    observables = list(observables)
    if not observables:
        raise ValidationError("need at least one observable")
    summary = packet_summary(psi, cfg, params)
    # Containment is judged on a wide interval regardless of cfg.k; see
    # GATE_CONTAINMENT_K.
    wide = packet_summary(psi, replace(cfg, k=max(cfg.k, GATE_CONTAINMENT_K)),
                          params)
    lo, hi = summary.support
    grid_pts = psi.grid.x[_support_slice(psi.grid.x, lo, hi)]
    probe = np.append(grid_pts, summary.exp_x)

    rows = []
    passed = wide.mass_in_support >= cfg.mass_threshold
    for obs in observables:
        if obs.kind == "position_poly":
            if np.any(obs.classical_value(probe) <= 0.0):
                raise ObservableNotPositiveOnSupport(
                    f"A(x) not strictly positive on support ({lo}, {hi})")
            classical = float(obs.classical_value(summary.exp_x))
        elif obs.kind == "momentum":
            classical = summary.exp_p
        else:
            classical = summary.exp_p**2
        mean = expectation(psi, obs, params)
        spread = _clamped_std(_second_moment(psi, obs, params), mean)
        ratio = abs(mean) / spread if spread > 0 else np.inf
        taylor_err = abs(mean - classical) / abs(mean) if mean != 0 else np.inf
        rows.append((obs, ratio, taylor_err))
        passed = passed and ratio >= cfg.eta and taylor_err <= cfg.taylor_tol
    return GateVerdict(is_wave_packet=passed, per_observable=tuple(rows),
                       uncertainty_product=summary.uncertainty_product,
                       mass_in_support=wide.mass_in_support)


def _pairwise(summaries: Sequence[PacketSummary]
              ) -> Tuple[np.ndarray, np.ndarray]:
    """|<x>_n - <x>_m| and (std_n + std_m)/2 for every pair (n, m)."""
    if len(summaries) < 2:
        raise TooFewPackets("need at least two packet summaries")
    centers = np.array([s.exp_x for s in summaries])
    widths = np.array([s.std_x for s in summaries])
    return (np.abs(centers[:, None] - centers[None, :]),
            0.5 * (widths[:, None] + widths[None, :]))


def weak_interference(summaries: Sequence[PacketSummary]) -> np.ndarray:
    """Pairwise weak-interference matrix.

    Entry (n, m) is True iff |<x>_n - <x>_m| >= (std_n + std_m)/2 (inclusive).
    Diagonal is False by definition.
    """
    sep, crit = _pairwise(summaries)
    out = sep >= crit
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


def ehrenfest_residual(trajectory: Sequence[Tuple[float, WaveFunction]],
                       v: Potential,
                       params: PhysicalParams = PhysicalParams()
                       ) -> EhrenfestResiduals:
    """Centered-difference residuals of the Ehrenfest relations.

    residual_x and residual_p test the exact relations; residual_newton uses
    the classical force at <x> instead of the averaged force, which only
    agrees within the wave-packet approximation (or for linear forces).
    """
    if len(trajectory) < 3:
        raise ValidationError("need at least three trajectory samples")
    times = np.array([t for t, _ in trajectory])
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise NonUniformSampling("trajectory samples must be uniformly spaced")
    dt = float(dts[0])

    x_obs = ObservableSpec.position()
    p_obs = ObservableSpec.momentum()
    grid = trajectory[0][1].grid
    grad = v.gradient(grid, params)
    exp_x = np.empty(len(trajectory))
    exp_p = np.empty(len(trajectory))
    exp_f = np.empty(len(trajectory))
    for i, (_, psi) in enumerate(trajectory):
        exp_x[i] = expectation(psi, x_obs, params)
        exp_p[i] = expectation(psi, p_obs, params)
        exp_f[i] = float(np.sum(grad * psi.probability_density())) * grid.dx

    dxdt = (exp_x[2:] - exp_x[:-2]) / (2.0 * dt)
    dpdt = (exp_p[2:] - exp_p[:-2]) / (2.0 * dt)
    return EhrenfestResiduals(
        times=times[1:-1],
        residual_x=np.abs(params.mass * dxdt - exp_p[1:-1]),
        residual_p=np.abs(dpdt + exp_f[1:-1]),
        residual_newton=np.abs(dpdt + v.gradient_at(exp_x[1:-1], params)),
    )
