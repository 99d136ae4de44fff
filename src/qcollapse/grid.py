"""Uniform 1-D grid, complex field states, and canonical state construction.

States are immutable value objects: every operation returns a new
WaveFunction and never mutates its inputs; a state's FFT is cached.  The
grid is periodic, which is what makes the spectral propagator exactly
unitary; `check_edge_mass`, the one boundary guard, rejects states that put
noticeable mass near the boundary, at construction and during evolution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (BoundaryClipping, GridMismatch, GridTooCoarse,
                     ValidationError)

NORM_TOL = 1e-10
# check_edge_mass rejects > this much probability mass in the outer 5% of
# the grid, since periodic wrap-around would corrupt weak-interference tests.
EDGE_MASS_TOL = 1e-8
EDGE_FRACTION = 0.05


def _frozen(a: np.ndarray) -> np.ndarray:
    """`a` itself, made read-only."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid x_j = x_min + j*dx, j = 0..n_points-1."""

    x_min: float = -40.0
    x_max: float = 40.0
    n_points: int = 1024

    def __post_init__(self):
        n = self.n_points
        if n < 16 or (n & (n - 1)) != 0:
            raise ValidationError(
                f"n_points must be a power of two >= 16, got {n}")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValidationError("grid bounds must be finite")
        if not self.x_max > self.x_min:
            raise ValidationError("x_max must exceed x_min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def min_sigma(self) -> float:
        """The narrowest packet width the grid resolves, 4 dx."""
        return 4.0 * self.dx

    @cached_property
    def x(self) -> np.ndarray:
        return _frozen(self.x_min + self.dx * np.arange(self.n_points))

    @cached_property
    def k(self) -> np.ndarray:
        """Angular wavenumbers matching numpy's FFT ordering."""
        return _frozen(2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx))


@dataclass(frozen=True)
class PhysicalParams:
    """Mass and hbar; natural units by default."""

    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not (0 < self.mass < math.inf and 0 < self.hbar < math.inf):
            raise ValidationError("mass and hbar must be positive and finite")


def _amplitude_norm(amps: np.ndarray, dx: float) -> float:
    """sqrt(sum |a|^2 dx), the grid L2 norm of an amplitude array."""
    return math.sqrt(np.vdot(amps, amps).real * dx)


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex amplitude field on a Grid1D; `spectrum` is its cached FFT.

    Both arrays are read-only complex128.  The caller's amplitudes are copied
    unless already read-only complex128 owning their memory, as the
    propagator's fresh buffers are, so a writeable array is never aliased.
    """

    grid: Grid1D
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = self.amplitudes
        if not (isinstance(amps, np.ndarray) and amps.dtype == np.complex128
                and not amps.flags.writeable and amps.flags.owndata):
            amps = _frozen(np.array(amps, dtype=np.complex128))
        if amps.shape != (self.grid.n_points,):
            raise ValidationError(
                f"amplitudes shape {amps.shape} does not match grid "
                f"({self.grid.n_points},)")
        # A finite sum |a|^2 means every entry is finite; only an overflowed
        # or non-finite sum needs the entry scan.
        if not (math.isfinite(np.vdot(amps, amps).real)
                or np.all(np.isfinite(amps.view(np.float64)))):
            raise ValidationError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)

    @cached_property
    def spectrum(self) -> np.ndarray:
        return _frozen(np.fft.fft(self.amplitudes))

    def norm(self) -> float:
        return _amplitude_norm(self.amplitudes, self.grid.dx)

    def normalize(self) -> "WaveFunction":
        n = self.norm()
        if n == 0.0:
            raise ValidationError("cannot normalize the zero state")
        return WaveFunction(self.grid, self.amplitudes / n)


def inner_product(a: WaveFunction, b: WaveFunction) -> complex:
    """Grid inner product sum(conj(a)*b)*dx; antilinear in `a`."""
    if a.grid != b.grid:
        raise GridMismatch("states live on different grids")
    return complex(np.vdot(a.amplitudes, b.amplitudes)) * a.grid.dx


def overlap_matrix(states: list) -> np.ndarray:
    """|(psi_i, psi_j)| for every pair of `states`, a symmetric matrix."""
    out = np.empty((len(states), len(states)))
    for i, j in zip(*np.triu_indices(len(states))):
        out[i, j] = out[j, i] = abs(inner_product(states[i], states[j]))
    return out


def check_edge_mass(amps: np.ndarray, grid: Grid1D, where: str = "", *args,
                    tail: float = 0.0) -> None:
    """The boundary guard on a bare amplitude array (a state's, or a raw
    propagator buffer): BoundaryClipping if sum |amps|^2 dx over the outer
    EDGE_FRACTION of `grid`, or the off-grid mass `tail`, exceeds
    EDGE_MASS_TOL.  The message ends in `where % args`, built on failure."""
    n_edge = max(1, int(grid.n_points * EDGE_FRACTION))
    lo, hi = amps[:n_edge], amps[-n_edge:]
    mass = max(float(np.vdot(lo, lo).real + np.vdot(hi, hi).real) * grid.dx,
               tail)
    if not mass <= EDGE_MASS_TOL:  # also rejects nan
        raise BoundaryClipping(f"boundary mass {mass:.3g} exceeds "
                               f"{EDGE_MASS_TOL}{where % args}")


def check_unit_weights(coefficients, tol: float, what: str) -> None:
    """ValidationError, led by `what`, unless sum |c|^2 is 1 within `tol`."""
    total = sum(abs(c) ** 2 for c in coefficients)
    if not abs(total - 1.0) <= tol:  # also rejects nan
        raise ValidationError(f"{what} = {total} deviates from 1 beyond {tol}")


def make_gaussian(grid: Grid1D, center: float, sigma: float,
                  momentum: float = 0.0,
                  params: PhysicalParams = PhysicalParams()) -> WaveFunction:
    """Normalized Gaussian packet exp(-(x-c)^2/(4 sigma^2) + i p x / hbar).

    Has <x> = center, std x = sigma, <p> = momentum, std p = hbar/(2 sigma).
    """
    if sigma < grid.min_sigma:
        raise GridTooCoarse(
            f"sigma={sigma} below 4*dx={grid.min_sigma}; packet unresolvable")
    p_max = 0.25 * math.pi * params.hbar / grid.dx
    if abs(momentum) > p_max:
        raise ValidationError(
            f"|momentum|={abs(momentum)} exceeds Nyquist headroom {p_max}")
    x = grid.x
    amps = np.exp(-((x - center) ** 2) / (4.0 * sigma**2)
                  + 1j * momentum * x / params.hbar)
    psi = WaveFunction(grid, amps).normalize()
    # Analytic tail beyond the grid, in case the grid truncates the packet.
    tail = 0.5 * (math.erfc((center - grid.x_min) / (math.sqrt(2) * sigma))
                  + math.erfc((grid.x_max - center) / (math.sqrt(2) * sigma)))
    check_edge_mass(psi.amplitudes, grid, tail=tail)
    return psi


def superpose(branches) -> WaveFunction:
    """Renormalized sum(c_n * psi_n) over one or more (c_n, psi_n) pairs."""
    branches = list(branches)
    grid = branches[0][1].grid
    total = np.zeros(grid.n_points, dtype=np.complex128)
    for c, psi in branches:
        if psi.grid != grid:
            raise GridMismatch("superposition branches on different grids")
        total += complex(c) * psi.amplitudes
    return WaveFunction(grid, total).normalize()


def write_snapshot(psi: WaveFunction, path) -> None:
    """CSV snapshot `x,re,im`, one row per grid point, 17 significant digits.

    A `# grid x_min=... x_max=... n_points=...` comment line follows the
    header, so the grid reads back exactly rather than from printed x.
    """
    g = psi.grid
    with open(path, "w") as fh:
        fh.write("x,re,im\n")
        fh.write(f"# grid x_min={g.x_min:.17g} x_max={g.x_max:.17g} "
                 f"n_points={g.n_points}\n")
        for x, a in zip(g.x, psi.amplitudes):
            fh.write(f"{x:.17g},{a.real:.17g},{a.imag:.17g}\n")
