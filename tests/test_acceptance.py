"""End-to-end acceptance criteria.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Each test prints its verdict before asserting, so a failing
criterion still reports itself.
"""
import math
import time

import numpy as np
import scipy.stats

from qcollapse import (
    CouplingConfig,
    EvolutionConfig,
    Grid1D,
    PhysicalParams,
    Potential,
    TransitionReport,
    decompose,
    evolve,
    make_gaussian,
    measure,
    packet_summary,
    premeasurement,
    sample_collapse,
    superpose,
    von_neumann_evolve,
    wave_packet_gate,
)
from qcollapse.errors import TransitionNotReached
from qcollapse.grid import overlap_matrix
from qcollapse.scenarios import parse_config, run

from oracles import coefficient_moduli, ehrenfest_residual, expm_step_oracle

PARAMS = PhysicalParams()


def _verdict(number, name, passed, detail=""):
    mark = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {mark}  {detail}")
    assert passed, f"acceptance criterion {number} ({name}) failed: {detail}"


def test_acceptance_1_long_unitary_evolution():
    """2000 harmonic steps: unit norm and constant expansion coefficients."""
    grid = Grid1D(-40.0, 40.0, 1024)
    basis = [make_gaussian(grid, c, 1.0, 0.0, PARAMS) for c in (-9.0, 9.0)]
    cat = superpose(zip((0.6, 0.8), basis))
    v = Potential.harmonic(omega=1.0)
    cfg = EvolutionConfig(dt=0.01, n_steps=2000)

    start = time.perf_counter()
    cat_t = evolve(cat, v, PARAMS, cfg)
    basis_t = [evolve(b, v, PARAMS, cfg) for b in basis]
    elapsed = time.perf_counter() - start

    norm_err = abs(cat_t.norm() - 1.0)
    coeff_err = float(np.max(np.abs(coefficient_moduli(cat_t, basis_t)
                                    - (0.6, 0.8))))
    ok = norm_err <= 1e-10 and coeff_err <= 1e-7 and elapsed <= 10.0
    _verdict(1, "long_unitary_evolution", ok,
             f"|norm-1|={norm_err:.2e} max|d|c||={coeff_err:.2e} "
             f"t={elapsed:.2f}s")


def _trajectory(psi, v, dt, n, every):
    traj = [(0.0, psi)]
    evolve(psi, v, PARAMS, EvolutionConfig(dt=dt, n_steps=n, record_every=every),
           lambda t, s: traj.append((t, s)))
    return traj


def test_acceptance_2_ehrenfest_relations():
    """Ehrenfest residuals below 1e-6 and shrinking ~4x when dt halves."""
    grid = Grid1D(-40.0, 40.0, 1024)
    worst = 0.0
    for v, psi in ((Potential.free(),
                    make_gaussian(grid, 0.0, 1.0, 1.0, PARAMS)),
                   (Potential.harmonic(omega=1.0),
                    make_gaussian(grid, 2.0, 1.0, 0.0, PARAMS))):
        res = ehrenfest_residual(_trajectory(psi, v, 1e-3, 200, 1), v, PARAMS)
        worst = max(worst, float(res.residual_x.max()),
                    float(res.residual_p.max()))

    v = Potential.harmonic(omega=1.0)
    psi = make_gaussian(grid, 2.0, 1.0, 0.0, PARAMS)
    maxima = []
    for dt in (2e-3, 1e-3):
        res = ehrenfest_residual(_trajectory(psi, v, dt, int(0.2 / dt), 1),
                                 v, PARAMS)
        maxima.append(float(res.residual_p.max()))
    ratio = maxima[0] / maxima[1]
    ok = worst <= 1e-6 and ratio >= 3.5
    _verdict(2, "ehrenfest_relations", ok,
             f"max residual={worst:.2e} halving ratio={ratio:.2f}")


def test_acceptance_3_wave_packet_gate():
    """Narrow packets pass the gate at ratio 100; split states never do."""
    grid = Grid1D(0.0, 20.0, 2048)
    psi = make_gaussian(grid, 10.0, 0.1, 0.0, PARAMS)
    verdict = wave_packet_gate(psi, 0.0)
    ratio = verdict.ratio
    up = packet_summary(psi, params=PARAMS).uncertainty_product

    cat_grid = Grid1D(-40.0, 40.0, 1024)
    rng = np.random.default_rng(2026)
    false_negatives = 0
    for _ in range(100):
        sigma = rng.uniform(0.5, 1.5)
        d = rng.uniform(12.0, 20.0)
        mid = rng.uniform(-5.0, 5.0)
        w = rng.uniform(0.05, 0.95)
        cat = superpose([
            (math.sqrt(w),
             make_gaussian(cat_grid, mid - d / 2, sigma, 0.0, PARAMS)),
            (math.sqrt(1 - w),
             make_gaussian(cat_grid, mid + d / 2, sigma, 0.0, PARAMS)),
        ])
        s = packet_summary(cat, params=PARAMS)
        lo, _ = s.support
        shift = max(0.0, 0.1 * s.std_x - lo) + s.std_x
        cat_verdict = wave_packet_gate(cat, shift)
        false_negatives += int(cat_verdict.is_wave_packet)

    ok = (verdict.is_wave_packet and ratio >= 100.0 - 1e-6
          and 0.5 - 1e-9 <= up <= 0.51 and false_negatives == 0)
    _verdict(3, "wave_packet_gate", ok,
             f"ratio={ratio:.1f} dx*dp={up:.4f} "
             f"cats passing={false_negatives}/100")


def test_acceptance_4_classical_limit():
    """Coherent packets track Newton; broad anharmonic packets do not."""
    grid = Grid1D(-40.0, 40.0, 1024)
    v = Potential.harmonic(omega=1.0)
    psi = make_gaussian(grid, 3.0, 1.0 / math.sqrt(2.0), 0.0, PARAMS)
    worst = 0.0

    def observer(t, state):
        nonlocal worst
        got = packet_summary(state, params=PARAMS).exp_x
        worst = max(worst, abs(got - 3.0 * math.cos(t)))

    evolve(psi, v, PARAMS,
           EvolutionConfig(dt=1e-3, n_steps=6284, record_every=10), observer)

    vq = Potential.double_well(barrier_height=1.0, well_separation=4.0)
    broad = make_gaussian(Grid1D(-16.0, 16.0, 512), 1.0, 1.5, 0.0, PARAMS)
    res = ehrenfest_residual(_trajectory(broad, vq, 1e-3, 200, 10), vq, PARAMS)
    sep = float(res.residual_newton.max() / res.residual_p.max())
    ok = worst <= 1e-5 and sep >= 10.0
    _verdict(4, "classical_limit", ok,
             f"coherent max err={worst:.2e} newton/exact={sep:.1f}x")


def test_acceptance_5_born_rule_identity():
    """Geometric probabilities reproduce |c_n|^2 for random superpositions."""
    grid = Grid1D(-24.0, 104.0, 2048)
    rng = np.random.default_rng(7)
    worst_p = 0.0
    worst_sum = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 7))
        c = rng.normal(size=d) + 1j * rng.normal(size=d)
        c /= np.linalg.norm(c)
        basis = [make_gaussian(grid, 16.0 * n, 1.0, 0.0, PARAMS)
                 for n in range(d)]
        decomp = decompose(superpose(zip(c, basis)), basis)
        p = np.asarray(decomp.probabilities)
        worst_p = max(worst_p, float(np.max(np.abs(p - np.abs(c) ** 2))))
        worst_sum = max(worst_sum, abs(float(p.sum()) - 1.0))
    ok = worst_p <= 1e-8 and worst_sum <= 1e-8
    _verdict(5, "born_rule_identity", ok,
             f"max |p - |c|^2| = {worst_p:.2e}, max |sum p - 1| = {worst_sum:.2e}")


def test_acceptance_6_collapse_statistics():
    """Sampled collapse frequencies match the Born weights at scale.

    Each ensemble draws its events in turn from one fixed stream:
    default_rng(0) for the two-branch cat, default_rng(1) for d=4.
    """
    grid = Grid1D(-40.0, 40.0, 1024)
    basis = [make_gaussian(grid, c, 1.0, 0.0, PARAMS) for c in (-18.0, 18.0)]
    decomp = decompose(superpose(zip((0.6, 0.8), basis)), basis)

    start = time.perf_counter()
    n = 100_000
    hits = 0
    rng = np.random.default_rng(0)
    for _ in range(n):
        hits += sample_collapse(decomp, rng.random())
    freq_err = abs(hits / n - 0.64)
    band = 3.0 * math.sqrt(0.64 * 0.36 / n)

    wide = Grid1D(-24.0, 104.0, 2048)
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    c4 = np.sqrt(weights)
    basis4 = [make_gaussian(wide, 16.0 * i, 1.0, 0.0, PARAMS)
              for i in range(4)]
    decomp4 = decompose(superpose(zip(c4, basis4)), basis4)
    m = 10_000
    counts = np.zeros(4)
    rng = np.random.default_rng(1)
    for _ in range(m):
        counts[sample_collapse(decomp4, rng.random())] += 1
    expected = m * weights
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    chi2_crit = float(scipy.stats.chi2.ppf(0.999, df=3))
    elapsed = time.perf_counter() - start

    ok = freq_err <= band and chi2 < chi2_crit and elapsed <= 30.0
    _verdict(6, "collapse_statistics", ok,
             f"|freq-0.64|={freq_err:.4f} (band {band:.4f}) "
             f"chi2={chi2:.2f} (<{chi2_crit:.2f}) t={elapsed:.1f}s")


def _run_measurement_chain(observer=None):
    grid = Grid1D(-40.0, 120.0, 2048)
    apparatus = make_gaussian(grid, 20.0, 1.0, 0.0, PARAMS)
    trap = Potential.harmonic(omega=0.5, center=20.0)
    cfg = CouplingConfig(shift_velocity=1.0, tau=15.0)
    comp = premeasurement([0.6, 0.8], apparatus)
    final, report = von_neumann_evolve(comp, cfg, trap, PARAMS, 0.01,
                                       observer=observer)
    return final, report


def test_acceptance_7_measurement_chain():
    """Coupling drives the transition; measurement reproduces the mixture."""
    steps = []
    final, report = _run_measurement_chain(
        lambda t, s, ops: steps.append((t, ops)))
    t_err = abs(report.t_star - 1.0)  # kinematic oracle: critical/velocity

    off = overlap_matrix(final.apparatus_states)
    offdiag = float(np.max(np.abs(off - np.eye(len(off)))))

    # the report folded over the steps strictly before the crossing
    early = TransitionReport()
    for t, ops in steps:
        if not ops.transition:
            early = early.after(t, ops)
    premature = False
    try:
        measure(final, early, seed=0)
    except TransitionNotReached:
        premature = True

    outcome = measure(final, report, seed=42)
    mix_err = max(abs(a - b) for a, b in
                  zip(outcome.object_mixture, (0.36, 0.64)))

    ok = (t_err <= 0.1 and offdiag <= 1e-6 and premature
          and mix_err <= 1e-12)
    _verdict(7, "measurement_chain", ok,
             f"t*={report.t_star} offdiag={offdiag:.2e} "
             f"pre-transition blocked={premature} mixture err={mix_err:.2e}")


def test_acceptance_8_immutability_and_repeatability(tmp_path):
    """Measuring never mutates the state; identical runs emit identical bytes."""
    final, report = _run_measurement_chain()
    before = [a.amplitudes.copy() for a in final.apparatus_states]
    coeffs = final.coefficients.copy()
    for seed in range(1000):
        measure(final, report, seed=seed)
    untouched = all(np.array_equal(old, new.amplitudes)
                    for old, new in zip(before, final.apparatus_states))
    untouched = untouched and np.array_equal(coeffs, final.coefficients)

    cfg_text = """
scenario: measurement_run
grid: {x_min: -40.0, x_max: 120.0, n_points: 2048}
coefficients: [0.6, 0.8]
seed: 3
evolution: {dt: 0.01, record_every: 50}
"""
    blobs = []
    for sub in ("a", "b"):
        manifest = run(parse_config(cfg_text), str(tmp_path / sub))
        assert manifest.ok
        run_dir = tmp_path / sub / manifest.run_dir.split("/")[-1]
        blobs.append((run_dir / "diagnostics.csv").read_bytes()
                     + (run_dir / "snapshot_pointer.csv").read_bytes())
    identical = blobs[0] == blobs[1]
    ok = untouched and identical
    _verdict(8, "immutability_and_repeatability", ok,
             f"state untouched={untouched} artifacts identical={identical}")


def test_acceptance_9_dense_oracle_agreement():
    """Split-step propagator agrees with a dense matrix-exponential oracle."""
    grid = Grid1D(-8.0, 8.0, 64)
    psi = make_gaussian(grid, 0.0, 1.0, 0.0, PARAMS)
    v = Potential.harmonic(omega=1.0)
    dt, n = 0.004, 125
    mine = evolve(psi, v, PARAMS, EvolutionConfig(dt=dt, n_steps=n))
    oracle = psi.amplitudes
    for _ in range(n):
        oracle = expm_step_oracle(
            type(psi)(grid, oracle), v, PARAMS, dt)
    err = math.sqrt(float(np.sum(np.abs(mine.amplitudes - oracle) ** 2))
                    * grid.dx)
    ok = err <= 1e-6
    _verdict(9, "dense_oracle_agreement", ok, f"L2 error={err:.2e}")
