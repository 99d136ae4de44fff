"""Exact unitary time evolution by second-order Strang splitting.

One step applies exp(-iV dt/2h) . F^-1 exp(-i p^2 dt/2mh) F . exp(-iV dt/2h),
which preserves the norm by construction (every factor is a pure phase).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import UnstableStep, ValidationError
from .grid import (Grid1D, PhysicalParams, WaveFunction, _amplitude_norm,
                   _frozen, check_edge_mass)

# Allowed per-step drift of the norm from 1 before the step is declared
# unstable (double-precision FFT round-off is orders of magnitude below).
STEP_NORM_TOL = 1e-9
# Entries in the phase-factor cache: a run reuses a handful of
# (grid, potential, params, dt) keys, and one entry is 32 * n_points bytes.
PHASE_CACHE_SIZE = 16


@dataclass(frozen=True)
class Potential:
    """Time-independent potential V(x): free, harmonic, double-well or tabulated.

    A tabulated table must be finite and 1-D, and is stored as a tuple of
    floats, so the dataclass's own equality compares it by value.
    """

    kind: str
    omega: float = 0.0
    center: float = 0.0
    barrier_height: float = 0.0
    well_separation: float = 0.0
    # Left out of the hash, which every step's cached phase-factor lookup
    # computes: hashing N floats costs about what the cache saves.
    table: Optional[Tuple[float, ...]] = field(default=None, hash=False)

    def __post_init__(self):
        if self.kind not in ("free", "harmonic", "double_well", "tabulated"):
            raise ValidationError(f"unknown potential kind {self.kind!r}")
        if not all(map(math.isfinite, (self.omega, self.center,
                                       self.barrier_height,
                                       self.well_separation))):
            raise ValidationError("potential parameters must be finite")
        if self.kind == "harmonic" and self.omega <= 0:
            raise ValidationError("harmonic potential needs omega > 0")
        if self.kind == "double_well" and self.well_separation <= 0:
            raise ValidationError("double well needs well_separation > 0")
        if self.kind == "tabulated":
            table = np.asarray(self.table, dtype=np.float64)
            if table.ndim != 1 or not np.all(np.isfinite(table)):
                raise ValidationError("tabulated potential must be finite and 1-D")
            object.__setattr__(self, "table", tuple(table.tolist()))

    @staticmethod
    def free() -> "Potential":
        return Potential(kind="free")

    @staticmethod
    def harmonic(omega: float = 1.0, center: float = 0.0) -> "Potential":
        return Potential(kind="harmonic", omega=omega, center=center)

    @staticmethod
    def double_well(barrier_height: float = 1.0,
                    well_separation: float = 4.0) -> "Potential":
        return Potential(kind="double_well", barrier_height=barrier_height,
                         well_separation=well_separation)

    @staticmethod
    def tabulated(values) -> "Potential":
        return Potential(kind="tabulated", table=values)

    def values(self, grid: Grid1D, params: PhysicalParams) -> np.ndarray:
        x = grid.x
        if self.kind == "free":
            return np.zeros(grid.n_points)
        if self.kind == "harmonic":
            return 0.5 * params.mass * self.omega**2 * (x - self.center) ** 2
        if self.kind == "double_well":
            a = 0.5 * self.well_separation
            return self.barrier_height * ((x / a) ** 2 - 1.0) ** 2
        if len(self.table) != grid.n_points:
            raise ValidationError("tabulated potential does not match grid")
        return np.array(self.table)

    def gradient_at(self, x, params: PhysicalParams) -> np.ndarray:
        """Analytic dV/dx at any x; a tabulated potential has none."""
        if self.kind == "free":
            return np.zeros(np.shape(x))
        if self.kind == "harmonic":
            return params.mass * self.omega**2 * (x - self.center)
        if self.kind == "double_well":
            a = 0.5 * self.well_separation
            return self.barrier_height * 4.0 * (x / a**2) * ((x / a) ** 2 - 1.0)
        raise ValidationError("a tabulated potential has no analytic gradient")

    def gradient(self, grid: Grid1D, params: PhysicalParams) -> np.ndarray:
        """dV/dx on the grid; spectral for a tabulated potential."""
        if self.kind != "tabulated":
            return self.gradient_at(grid.x, params)
        return np.fft.ifft(1j * grid.k * np.fft.fft(self.values(grid, params))).real


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float = 0.001
    n_steps: int = 1000
    record_every: int = 1

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValidationError("dt must be positive and finite")
        if self.n_steps < 0:
            raise ValidationError("n_steps must be non-negative")
        if self.record_every < 1:
            raise ValidationError("record_every must be >= 1")

    def validate_against(self, v: Potential) -> None:
        if v.kind == "harmonic" and self.dt > 0.1 * (2.0 * math.pi / v.omega):
            raise ValidationError(
                f"dt={self.dt} exceeds 0.1 * (2 pi / omega) for omega={v.omega}")


# Keyed on (grid, potential, params, dt), all hashable values; a tabulated
# Potential hashes and compares by its table's values.  Every caller steps
# under one static potential (the measurement chain evolves each branch
# in its co-moving frame), so a run hits one entry per (potential, dt).
@lru_cache(maxsize=PHASE_CACHE_SIZE)
def _phase_factors(grid: Grid1D, v: Potential, params: PhysicalParams,
                   dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """(exp(-i V dt / 2 hbar), exp(-i hbar k^2 dt / 2m)), shared read-only."""
    half_v = np.exp(-0.5j * v.values(grid, params) * dt / params.hbar)
    kinetic = np.exp(-0.5j * params.hbar * grid.k**2 * dt / params.mass)
    return _frozen(half_v), _frozen(kinetic)


def _apply(amps: np.ndarray, half_v: np.ndarray, kinetic: np.ndarray) -> np.ndarray:
    """half_v * F^-1(kinetic * F(half_v * amps)) in one fresh read-only buffer.

    Each factor stays the left operand: numpy's complex multiply is not
    bitwise commutative, and this order gives the same bits as evaluating
    that expression out of place.  The `out=` argument of numpy.fft needs
    NumPy >= 2.0.  The buffer is frozen so WaveFunction can take it uncopied.
    """
    buf = half_v * amps
    np.fft.fft(buf, out=buf)
    np.multiply(kinetic, buf, out=buf)
    np.fft.ifft(buf, out=buf)
    np.multiply(half_v, buf, out=buf)
    return _frozen(buf)


def step(psi: WaveFunction, v: Potential, params: PhysicalParams,
         dt: float) -> WaveFunction:
    """One Strang-split step; negative dt steps backwards in time."""
    amps = _apply(psi.amplitudes, *_phase_factors(psi.grid, v, params, dt))
    norm = _amplitude_norm(amps, psi.grid.dx)
    if not abs(norm - 1.0) <= STEP_NORM_TOL:  # also catches a nan norm
        raise UnstableStep(f"norm drifted to {norm} in one step")
    return WaveFunction(psi.grid, amps)


def evolve(psi: WaveFunction, v: Potential, params: PhysicalParams,
           cfg: EvolutionConfig,
           observer: Optional[Callable[[float, WaveFunction], None]] = None
           ) -> WaveFunction:
    """Apply cfg.n_steps steps, invoking observer every record_every steps;
    each step's buffer must keep its norm and pass `check_edge_mass`."""
    cfg.validate_against(v)
    if cfg.n_steps == 0:
        return psi
    half_v, kinetic = _phase_factors(psi.grid, v, params, cfg.dt)
    amps = psi.amplitudes
    dx = psi.grid.dx
    for i in range(1, cfg.n_steps + 1):
        amps = _apply(amps, half_v, kinetic)
        norm = _amplitude_norm(amps, dx)
        if not abs(norm - 1.0) <= STEP_NORM_TOL:
            raise UnstableStep(f"norm drifted to {norm} at step {i}")
        check_edge_mass(amps, psi.grid, " at step %d", i)
        if observer is not None and i % cfg.record_every == 0:
            observer(i * cfg.dt, WaveFunction(psi.grid, amps))
    return WaveFunction(psi.grid, amps)


def translate(psi: WaveFunction, shift: float) -> WaveFunction:
    """Rigid spectral translation psi(x) -> psi(x - shift); exactly unitary.

    exp(-i k shift) is evaluated on k[0..N/2] only: numpy's wavenumbers obey
    k[N-m] = -k[m] exactly, so the other half is its conjugate, bit for bit.
    The result carries its spectrum exp(-i k shift) * psi.spectrum.
    """
    k, half = psi.grid.k, psi.grid.n_points // 2
    spectrum = np.empty_like(psi.spectrum)
    head = spectrum[:half + 1]
    head.real = 0.0
    np.multiply(k[:half + 1], -shift, out=head.imag)
    np.exp(head, out=head)
    np.conjugate(spectrum[half - 1:0:-1], out=spectrum[half + 1:])
    np.multiply(spectrum, psi.spectrum, out=spectrum)
    out = WaveFunction(psi.grid, _frozen(np.fft.ifft(spectrum)))
    out.__dict__["spectrum"] = _frozen(spectrum)  # fills the cached_property
    return out
