"""Independent oracles: quadrature moments, dense matrix exponential, overlap,
coefficient moduli, and the plain out-of-place formulas of the split-step,
translation and packet-summary kernels.

These deliberately avoid the code paths they check (no FFT propagator, no
grid inner products on the states under test, no cached factors).
"""
import numpy as np
import scipy.linalg


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
