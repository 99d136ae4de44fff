"""`scenarios.forecast` against the runs it forecasts: every recorded
diagnostics row of small-grid chains, free_spread and harmonic_coherent.

In free space the split step is exact, so each row meets the closed form to
rounding.  In a harmonic trap the rows carry the Strang splitting error,
bounded by `strang_oscillator`: the center lags by at most |x0| times the
accumulated phase lag, and the width is stretched by at most its factor,
about 1 + (omega dt)^2 / 8 (free space has neither: omega = 0).
"""
import csv
from pathlib import Path

import pytest

from qcollapse.scenarios import _potential, forecast, parse_config, run

from oracles import strang_oscillator

# Room left for rounding: absolute on a center or spacing, relative on a
# width.
MEAN_TOL = 1e-10
WIDTH_RTOL = 1e-10


def recorded_rows(text, tmp_path):
    """The parsed config and its run's diagnostics rows, as floats."""
    cfg = parse_config(text)
    manifest = run(cfg, str(tmp_path))
    assert manifest.error is None, manifest.error
    with open(Path(manifest.run_dir) / "diagnostics.csv") as fh:
        rows = [{k: float(v) for k, v in row.items() if v}
                for row in csv.DictReader(fh)]
    assert len(rows) > 10
    return cfg, rows


def check_rows(cfg, rows):
    """Each row's <x>, std x and, for the chain, min_separation against
    `forecast` at the row's t, within the Strang bounds, and its <p>
    against the packet's momentum where <x> does not swing."""
    v, p, phys = _potential(cfg), cfg.packet, cfg.physics
    lag, stretch = strang_oscillator(v.omega, cfg.evolution.dt)
    # The width hypot(sigma cos wt, b sin wt) changes by at most
    # |sigma^2 - b^2| / (2 min(sigma, b)) per radian of phase.
    b = phys.hbar / (2.0 * phys.mass * v.omega * p.sigma) if v.omega else 0.0
    slope = abs(p.sigma**2 - b**2) / (2.0 * min(p.sigma, b)) if b else 0.0
    x0 = forecast(cfg)[0] - v.center
    for row in rows:
        t = row["t"]
        center, gap, width = forecast(cfg, t)
        phase = round(t / cfg.evolution.dt) * abs(lag)
        assert abs(row["exp_x"] - center) <= abs(x0) * phase + MEAN_TOL, t
        if v.kind == "free" or x0 == 0.0:  # <p> does not swing
            assert abs(row["exp_p"] - p.momentum) <= MEAN_TOL, t
        spread = slope * phase
        tol = (width + spread) * stretch - width + WIDTH_RTOL * width
        assert abs(row["std_x"] - width) <= tol, t
        if "min_separation" in row:
            assert abs(row["min_separation"] - gap) <= MEAN_TOL, t


def chain(v, sigma, coefficients, potential):
    return ("scenario: measurement_run\n"
            "grid: {x_min: -40.0, x_max: 120.0, n_points: 1024}\n"
            f"coefficients: {coefficients}\nseed: 1\n"
            "evolution: {dt: 0.05, record_every: 5}\n"
            f"packet: {{sigma: {sigma}}}\n"
            f"coupling: {{shift_velocity: {v}, tau: {15.0 * sigma / v}}}\n"
            + potential)


@pytest.mark.parametrize("potential", ["", "potential: {kind: free}\n"],
                         ids=["trap", "free"])
@pytest.mark.parametrize("v, sigma, coefficients", [
    (1.0, 1.0, "[0.6, 0.8]"), (2.0, 1.5, "[0.48, 0.6, 0.64]")],
    ids=["v1_sigma1_d2", "v2_sigma1.5_d3"])
def test_chain_rows_follow_the_forecast(tmp_path, v, sigma, coefficients,
                                        potential):
    cfg, rows = recorded_rows(chain(v, sigma, coefficients, potential),
                              tmp_path)
    check_rows(cfg, rows)


def test_the_coherent_trap_width_error_is_its_strang_stretch(tmp_path):
    """In the chain's coherent trap (omega = 0.5 at sigma = 1, dt = 0.05)
    the rows come within 1% of the stretch the bound allows, 7.81e-5:
    (omega dt)^2 / 8 and a 9e-9 rest."""
    cfg, rows = recorded_rows(chain(1.0, 1.0, "[0.6, 0.8]", ""), tmp_path)
    worst = max(abs(row["std_x"] - 1.0) for row in rows)
    stretch = strang_oscillator(0.5, 0.05)[1] - 1.0
    assert stretch == pytest.approx((0.5 * 0.05) ** 2 / 8, rel=2e-4)
    assert 0.99 * stretch <= worst <= stretch


def test_free_spread_rows_follow_the_forecast(tmp_path):
    check_rows(*recorded_rows(
        "scenario: free_spread\npacket: {center: -5.0, momentum: 1.5}\n"
        "evolution: {dt: 0.01, n_steps: 600, record_every: 20}\n", tmp_path))


@pytest.mark.parametrize("dt", [0.001, 0.01])
def test_harmonic_coherent_rows_follow_the_forecast(tmp_path, dt):
    """The sigma = 1 packet, x0 = 2 from the center of the omega = 1 trap,
    breathes there (its coherent width is 0.71); at dt = 0.01 its center
    is off by up to 6.6e-5, at t = 8, and fails classical_trajectory's
    1e-5, but stays inside the bound."""
    check_rows(*recorded_rows(
        "scenario: harmonic_coherent\n"
        f"evolution: {{dt: {dt}, n_steps: 1000, record_every: 20}}\n"
        "potential: {kind: harmonic, omega: 1.0, center: 1.0}\n",
        tmp_path))


def test_the_forecast_is_none_where_it_has_no_closed_form():
    text = chain(1.0, 1.0, "[0.6, 0.8]", "")
    assert forecast(parse_config(text), 1.0) is not None
    for potential in ("potential: {kind: harmonic, omega: 0.3, center: 30}\n",
                      "potential: {kind: double_well}\n"):
        assert forecast(parse_config(text + potential), 1.0) is None
        assert forecast(parse_config(text + potential)) is not None
