"""Independent oracles: quadrature moments, dense matrix exponential, overlap,
coefficient moduli, and the plain out-of-place formulas of the split-step,
translation and packet-summary kernels.

These deliberately avoid the code paths they check (no FFT propagator, no
grid inner products on the states under test, no cached factors).

Below them are the analyses only tests run, built on the package's public
API: the analytic force dV/dx, the Ehrenfest residuals of a trajectory
(acceptance criteria 2 and 4), and the reader of `write_snapshot` files.
"""
import re
from typing import NamedTuple

import numpy as np
import scipy.linalg

from qcollapse import Grid1D, WaveFunction, packet_summary


def gaussian_moment_oracle(center, sigma, momentum, x_min, x_max, n_points,
                           hbar=1.0, oversample=10):
    """Trapezoid moments of the analytic Gaussian at oversampled resolution.

    Returns (exp_x, std_x, exp_p, std_p).  Momentum moments come from the
    analytic momentum-space density, also integrated by trapezoid.
    """
    x = np.linspace(x_min, x_max, oversample * n_points)
    rho = np.exp(-((x - center) ** 2) / (2.0 * sigma**2))
    rho /= np.trapezoid(rho, x)
    exp_x = np.trapezoid(x * rho, x)
    var_x = np.trapezoid((x - exp_x) ** 2 * rho, x)

    sp_analytic = hbar / (2.0 * sigma)
    p = np.linspace(momentum - 12 * sp_analytic, momentum + 12 * sp_analytic,
                    oversample * n_points)
    rho_p = np.exp(-((p - momentum) ** 2) / (2.0 * sp_analytic**2))
    rho_p /= np.trapezoid(rho_p, p)
    exp_p = np.trapezoid(p * rho_p, p)
    var_p = np.trapezoid((p - exp_p) ** 2 * rho_p, p)
    return exp_x, np.sqrt(var_x), exp_p, np.sqrt(var_p)


def gaussian_overlap(d, sigma):
    """|<g1|g2>| of two equal-width Gaussians separated by d."""
    return np.exp(-(d**2) / (8.0 * sigma**2))


def coefficient_moduli(psi, basis):
    """|sum conj(b) psi| dx for each basis member b; constant under
    co-evolution."""
    return np.array([abs(np.vdot(b.amplitudes, psi.amplitudes)) * psi.grid.dx
                     for b in basis])


def dense_hamiltonian(grid, v, params):
    """Dense matrix of the discretized Hamiltonian (spectral kinetic part)."""
    n = grid.n_points
    f = np.fft.fft(np.eye(n), axis=0)          # f @ psi == fft(psi)
    f_inv = np.conj(f.T) / n
    kinetic = f_inv @ np.diag(params.hbar**2 * grid.k**2
                              / (2.0 * params.mass)) @ f
    return kinetic + np.diag(v.values(grid, params))


def expm_step_oracle(psi, v, params, dt):
    """exp(-i H dt / hbar) applied with a dense matrix exponential."""
    h = dense_hamiltonian(psi.grid, v, params)
    u = scipy.linalg.expm(-1j * h * dt / params.hbar)
    return u @ psi.amplitudes


def split_step_oracle(amps, half_v, kinetic):
    """half_v * F^-1(kinetic * F(half_v * amps)), one new array per product."""
    return half_v * np.fft.ifft(kinetic * np.fft.fft(half_v * amps))


def translate_oracle(amps, grid, shift):
    """F^-1(exp(-i k shift) * F(amps)), the phase built afresh."""
    return np.fft.ifft(np.exp(-1j * grid.k * shift) * np.fft.fft(amps))


def packet_summary_oracle(amps, grid, k, hbar):
    """(exp_x, std_x, exp_p, std_p, lo, hi, mass) from dense whole-grid
    arrays: rho = |a|^2, x^2 rho, p^2 |phi|^2 and a boolean support mask."""
    x, dx, n = grid.x, grid.dx, grid.n_points
    rho = np.abs(amps) ** 2
    exp_x = (np.vdot(amps, x * amps) * dx).real
    std_x = np.sqrt(max(np.sum(x**2 * rho) * dx - exp_x**2, 0.0))
    phi = np.fft.fft(amps)
    p = hbar * grid.k
    exp_p = (np.vdot(phi, p * phi) * dx / n).real
    std_p = np.sqrt(max(np.sum(p**2 * np.abs(phi) ** 2) * dx / n
                        - exp_p**2, 0.0))
    lo, hi = exp_x - 0.5 * k * std_x, exp_x + 0.5 * k * std_x
    inside = (x >= lo) & (x <= hi)
    mass = min(np.sum(rho[inside]) * dx, 1.0)
    return exp_x, std_x, exp_p, std_p, lo, hi, mass


def potential_gradient(v, x, params):
    """Analytic dV/dx of the Potential `v` at any x."""
    if v.kind == "harmonic":
        return params.mass * v.omega**2 * (x - v.center)
    if v.kind == "double_well":
        a = 0.5 * v.well_separation
        return v.barrier_height * 4.0 * (x / a**2) * ((x / a) ** 2 - 1.0)
    return np.zeros(np.shape(x))


class EhrenfestResiduals(NamedTuple):
    """Ehrenfest and Newtonian-limit residuals at interior sample times."""

    times: np.ndarray
    residual_x: np.ndarray       # |m d<x>/dt - <p>|
    residual_p: np.ndarray       # |d<p>/dt + <dV/dx>|
    residual_newton: np.ndarray  # |d<p>/dt + dV(<x>)/d<x>|


def ehrenfest_residual(trajectory, v, params):
    """Centered-difference residuals of the Ehrenfest relations over
    uniformly spaced (t, state) samples.

    residual_x and residual_p test the exact relations; residual_newton uses
    the classical force at <x> instead of the averaged force, which only
    agrees within the wave-packet approximation (or for linear forces).
    """
    if len(trajectory) < 3:
        raise ValueError("need at least three trajectory samples")
    times = np.array([t for t, _ in trajectory])
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ValueError("trajectory samples must be uniformly spaced")
    dt = float(dts[0])

    grid = trajectory[0][1].grid
    grad = potential_gradient(v, grid.x, params)
    exp_x = np.empty(len(trajectory))
    exp_p = np.empty(len(trajectory))
    exp_f = np.empty(len(trajectory))
    for i, (_, psi) in enumerate(trajectory):
        s = packet_summary(psi, params=params)
        exp_x[i], exp_p[i] = s.exp_x, s.exp_p
        exp_f[i] = float(np.sum(grad * psi.probability_density())) * grid.dx

    dxdt = (exp_x[2:] - exp_x[:-2]) / (2.0 * dt)
    dpdt = (exp_p[2:] - exp_p[:-2]) / (2.0 * dt)
    return EhrenfestResiduals(
        times=times[1:-1],
        residual_x=np.abs(params.mass * dxdt - exp_p[1:-1]),
        residual_p=np.abs(dpdt + exp_f[1:-1]),
        residual_newton=np.abs(
            dpdt + potential_gradient(v, exp_x[1:-1], params)),
    )


# Snapshot line 2, which np.loadtxt skips as a comment.
_GRID_LINE = re.compile(r"# grid x_min=(\S+) x_max=(\S+) n_points=(\d+)")


def read_snapshot(path):
    """The WaveFunction of a CSV snapshot written by `write_snapshot`, on the
    exact grid its line 2 names."""
    with open(path) as fh:
        fh.readline()
        grid_line = fh.readline().rstrip("\n")
    match = _GRID_LINE.fullmatch(grid_line)
    if match is None:
        raise ValueError(f"{path}: line 2 is not a grid line: {grid_line!r}")
    grid = Grid1D(x_min=float(match[1]), x_max=float(match[2]),
                  n_points=int(match[3]))
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return WaveFunction(grid, data[:, 1] + 1j * data[:, 2])
