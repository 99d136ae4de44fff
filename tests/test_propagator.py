import math

import numpy as np
import pytest

from qcollapse import (
    EvolutionConfig,
    Grid1D,
    PhysicalParams,
    Potential,
    WaveFunction,
    evolve,
    make_gaussian,
    inner_product,
    packet_summary,
    step,
    superpose,
    translate,
)
from qcollapse.errors import BoundaryClipping, UnstableStep, ValidationError
from qcollapse.propagate import _apply, _phase_factors

from conftest import l2_distance
from oracles import (expm_step_oracle, potential_gradient, split_step_oracle,
                     translate_oracle)


class TestStep:
    def test_free_step_keeps_center(self, gaussian, params):
        psi = step(gaussian(), Potential.free(), params, 0.01)
        assert packet_summary(psi, params=params).exp_x == pytest.approx(0.0, abs=1e-10)

    def test_harmonic_half_period_flips_center(self, grid, params):
        # coherent-state trajectory <x>(t) = 3 cos(t)
        psi = make_gaussian(grid, 3.0, 1.0 / math.sqrt(2.0), 0.0, params)
        v = Potential.harmonic(omega=1.0)
        dt = math.pi / 3200
        final = evolve(psi, v, params, EvolutionConfig(dt=dt, n_steps=3200))
        assert packet_summary(final, params=params).exp_x == pytest.approx(-3.0, abs=1e-6)

    def test_free_spreading_law(self, gaussian, params):
        # sigma(t)^2 = sigma0^2 (1 + (hbar t / 2 m sigma0^2)^2); t=2 -> sqrt(2)
        psi = gaussian(sigma=1.0)
        final = evolve(psi, Potential.free(), params,
                       EvolutionConfig(dt=0.01, n_steps=200))
        assert packet_summary(final, params=params).std_x == \
            pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_matches_dense_expm_oracle(self, params):
        grid = Grid1D(-8.0, 8.0, 64)
        psi = make_gaussian(grid, 0.0, 1.0, 0.3, params)
        v = Potential.harmonic(omega=1.0)
        for dt in (0.01, 0.005):
            mine = step(psi, v, params, dt)
            oracle = expm_step_oracle(psi, v, params, dt)
            err = math.sqrt(float(np.sum(np.abs(mine.amplitudes - oracle) ** 2))
                            * grid.dx)
            assert err <= 1e-6


class TestEvolve:
    def test_zero_steps_identity(self, gaussian, params):
        psi = gaussian()
        assert evolve(psi, Potential.free(), params,
                      EvolutionConfig(dt=0.01, n_steps=0)) is psi

    def test_norm_drift_over_1000_free_steps(self, gaussian, params):
        final = evolve(gaussian(momentum=0.5), Potential.free(), params,
                       EvolutionConfig(dt=0.01, n_steps=1000))
        assert abs(final.norm() - 1.0) <= 1e-10

    def test_coefficients_constant_under_coevolution(self, gaussian, params):
        # brute force: re-evaluate the inner product at every recorded step
        basis = [gaussian(center=-6.0), gaussian(center=6.0)]
        cat = superpose(zip((0.6, 0.8), basis))
        v = Potential.harmonic(omega=1.0)
        cfg = EvolutionConfig(dt=0.01, n_steps=1000, record_every=50)
        initial = [abs(inner_product(b, cat)) for b in basis]

        snapshots = {}

        def record_into(store):
            def obs(t, state):
                store.setdefault(t, []).append(state)
            return obs

        evolve(cat, v, params, cfg, record_into(snapshots))
        for b in basis:
            evolve(b, v, params, cfg, record_into(snapshots))
        for t, (cat_t, b1_t, b2_t) in sorted(snapshots.items()):
            for b_t, c0 in zip((b1_t, b2_t), initial):
                assert abs(abs(inner_product(b_t, cat_t)) - c0) <= 1e-7

    def test_reversibility(self, gaussian, params):
        psi = gaussian(center=2.0, momentum=0.5)
        v = Potential.harmonic(omega=1.0)
        forward = psi
        for _ in range(500):
            forward = step(forward, v, params, 0.01)
        back = forward
        for _ in range(500):
            back = step(back, v, params, -0.01)
        assert l2_distance(back, psi) <= 1e-8

    def test_observer_cadence(self, gaussian, params):
        seen = []
        evolve(gaussian(), Potential.free(), params,
               EvolutionConfig(dt=0.01, n_steps=100, record_every=10),
               lambda t, s: seen.append(t))
        assert seen == pytest.approx([0.1 * i for i in range(1, 11)])

    def test_determinism(self, gaussian, params):
        cfg = EvolutionConfig(dt=0.01, n_steps=50)
        v = Potential.harmonic(omega=2.0)
        a = evolve(gaussian(center=1.0), v, params, cfg)
        b = evolve(gaussian(center=1.0), v, params, cfg)
        assert np.array_equal(a.amplitudes, b.amplitudes)


class TestEvolveBoundaryGuard:
    """A free packet at momentum 8 on [-20, 20] carries mass into the edge
    region |x| > 18 within two time units, then wraps round the grid."""

    def test_evolve_raises_before_the_packet_wraps(self, params):
        grid = Grid1D(-20.0, 20.0, 1024)
        psi = make_gaussian(grid, 0.0, 1.0, 8.0, params)
        seen = []
        with pytest.raises(BoundaryClipping, match=r"at step \d+$"):
            evolve(psi, Potential.free(), params,
                   EvolutionConfig(dt=0.01, n_steps=500, record_every=100),
                   lambda t, s: seen.append(t))
        assert seen == pytest.approx([1.0])


class TestUnstableStep:
    """hbar = 1e-320 overflows V dt / hbar, so the potential factor is nan
    wherever V != 0 and the first step's norm is nan."""

    def test_step_raises_unstable_step(self, gaussian):
        params = PhysicalParams(hbar=1e-320)
        with np.errstate(all="ignore"), pytest.raises(UnstableStep):
            step(gaussian(), Potential.harmonic(1.0), params, 0.01)

    def test_evolve_raises_at_the_first_bad_step(self, gaussian):
        params = PhysicalParams(hbar=1e-320)
        seen = []
        cfg = EvolutionConfig(dt=0.01, n_steps=50, record_every=10)
        with np.errstate(all="ignore"), \
                pytest.raises(UnstableStep, match="at step 1$"):
            evolve(gaussian(), Potential.harmonic(1.0), params, cfg,
                   lambda t, s: seen.append(t))
        assert seen == []


class TestConfigs:
    def test_dt_bound_for_harmonic(self):
        cfg = EvolutionConfig(dt=1.0, n_steps=10)
        with pytest.raises(ValidationError):
            cfg.validate_against(Potential.harmonic(omega=1.0))

    def test_dt_positive(self):
        with pytest.raises(ValidationError):
            EvolutionConfig(dt=0.0, n_steps=10)

    def test_potential_invariants(self):
        with pytest.raises(ValidationError):
            Potential.harmonic(omega=-1.0)
        with pytest.raises(ValidationError, match="must be finite"):
            Potential.double_well(barrier_height=np.inf)


def _random_amps(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


KERNEL_POTENTIALS = [Potential.free(), Potential.harmonic(1.3, center=2.0),
                     Potential.double_well(2.0, 6.0)]


class TestKernelsMatchDenseFormulas:
    """The in-place kernels against their out-of-place formulas."""

    @pytest.mark.parametrize("v", KERNEL_POTENTIALS, ids=lambda v: v.kind)
    @pytest.mark.parametrize("dt", [0.01, -0.03])
    def test_apply(self, v, dt):
        grid = Grid1D(-10.0, 30.0, 256)
        params = PhysicalParams(mass=1.7, hbar=0.6)
        half_v = np.exp(-0.5j * v.values(grid, params) * dt / params.hbar)
        kinetic = np.exp(-0.5j * params.hbar * grid.k**2 * dt / params.mass)
        amps = _random_amps(grid.n_points, 1)
        got = _apply(amps, *_phase_factors(grid, v, params, dt))
        want = split_step_oracle(amps, half_v, kinetic)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("shift", [0.37, -5.0, 1e-3, 60.0])
    @pytest.mark.parametrize("n", [16, 2048])
    def test_translate(self, shift, n):
        grid = Grid1D(-40.0, 120.0, n)
        amps = _random_amps(n, 2)
        got = translate(WaveFunction(grid, amps), shift).amplitudes
        want = translate_oracle(amps, grid, shift)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("shift", [0.0, -5.0, 0.37, -1e-3, 250.0,
                                       -1e4])
    @pytest.mark.parametrize("n", [16, 1024, 2048, 8192])
    def test_translate_is_bitwise_the_full_phase(self, shift, n):
        """The half-spectrum phase gives the bits of exp(-i k s) on all of k;
        a shift beyond the 160-wide grid wraps periodically."""
        grid = Grid1D(-40.0, 120.0, n)
        amps = _random_amps(n, 3)
        out = translate(WaveFunction(grid, amps), shift)
        want = np.fft.ifft(np.exp(-1j * grid.k * shift) * np.fft.fft(amps))
        assert np.array_equal(out.amplitudes, want)

    @pytest.mark.parametrize("shift", [0.0, -7.5, 0.37, 300.0])
    def test_translate_hands_on_its_spectrum(self, shift):
        grid = Grid1D(-40.0, 120.0, 2048)
        out = translate(WaveFunction(grid, _random_amps(2048, 4)), shift)
        want = np.fft.fft(out.amplitudes)
        assert np.max(np.abs(out.spectrum - want)) <= 1e-12 * np.max(np.abs(want))
        assert not out.spectrum.flags.writeable
        assert not out.amplitudes.flags.writeable

    def test_inputs_and_cached_factors_unchanged(self, gaussian, params):
        psi = gaussian(center=1.0, momentum=0.4)
        v, dt = Potential.harmonic(1.0), 0.01
        before = psi.amplitudes.copy()
        factors = _phase_factors(psi.grid, v, params, dt)
        copies = [f.copy() for f in factors]
        step(psi, v, params, dt)
        translate(psi, 0.25)
        evolve(psi, v, params, EvolutionConfig(dt=dt, n_steps=5),
               lambda t, s: translate(s, 0.25))
        assert np.array_equal(psi.amplitudes, before)
        for f, c in zip(factors, copies):
            assert np.array_equal(f, c)
        assert _phase_factors(psi.grid, v, params, dt) is factors


def _kinetic(grid, params, dt):
    return _phase_factors(grid, Potential.free(), params, dt)[1]


def _half_v(grid, v, params, dt):
    return _phase_factors(grid, v, params, dt)[0]


class TestPhaseCaches:
    def test_cached_factors_are_read_only(self, grid, params):
        for v in (Potential.harmonic(1.0), Potential.double_well()):
            for factor in _phase_factors(grid, v, params, 0.01):
                assert not factor.flags.writeable
                with pytest.raises(ValueError):
                    factor[0] = 0.0

    def test_distinct_keys_never_alias(self, grid, params):
        other_grid = Grid1D(-40.0, 40.0, 2048)
        heavy = PhysicalParams(mass=2.0)
        kinetic = [_kinetic(grid, params, 0.01),
                   _kinetic(other_grid, params, 0.01),
                   _kinetic(grid, heavy, 0.01),
                   _kinetic(grid, params, -0.01)]
        assert kinetic[1].shape == (2048,)
        for i, a in enumerate(kinetic):
            for b in kinetic[i + 1:]:
                assert a.shape != b.shape or not np.array_equal(a, b)
        assert np.array_equal(kinetic[3], np.conj(kinetic[0]))

        trap = Potential.harmonic(1.0)
        potential = [_half_v(grid, trap, params, 0.01),
                     _half_v(grid, Potential.harmonic(1.0, center=0.5),
                             params, 0.01),
                     _half_v(grid, Potential.harmonic(2.0), params, 0.01),
                     _half_v(grid, trap, heavy, 0.01),
                     _half_v(grid, trap, params, 0.03),
                     _half_v(other_grid, trap, params, 0.01)]
        for i, a in enumerate(potential):
            for b in potential[i + 1:]:
                assert a is not b
                assert a.shape != b.shape or not np.array_equal(a, b)

    def test_equal_keys_share_one_array(self, grid, params):
        same_grid = Grid1D(grid.x_min, grid.x_max, grid.n_points)
        assert (_phase_factors(grid, Potential.harmonic(1.0), params, 0.02)
                is _phase_factors(same_grid, Potential.harmonic(1.0),
                                  PhysicalParams(), 0.02))

    def test_translate_round_trip(self, gaussian):
        psi = gaussian(center=-3.0, sigma=1.2, momentum=0.8)
        for s in (0.37, 5.0, -2.25):
            moved = translate(psi, s)
            assert packet_summary(moved).exp_x == pytest.approx(-3.0 + s, abs=1e-9)
            back = translate(moved, -s)
            assert np.max(np.abs(back.amplitudes - psi.amplitudes)) <= 1e-12


class TestPotentialValueSemantics:
    @pytest.mark.parametrize("kind, field, value", [
        ("free", "omega", 2.0), ("free", "center", 1.0),
        ("harmonic", "barrier_height", 1.0),
        ("harmonic", "well_separation", 4.0),
        ("free", "barrier_height", 1.0), ("free", "well_separation", 4.0),
        ("double_well", "center", 3.0), ("double_well", "omega", 1.0)])
    def test_a_field_the_kind_never_reads_is_refused(self, kind, field,
                                                     value):
        """A stray field would otherwise be ignored: a double well given
        center 3 would sit at 0."""
        reads = {"harmonic": {"omega": 1.0},
                 "double_well": {"well_separation": 4.0}}.get(kind, {})
        Potential(kind=kind, **reads)
        with pytest.raises(ValidationError,
                           match=f"{kind} takes no {field}"):
            Potential(kind=kind, **reads, **{field: value})

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValidationError,
                           match="unknown potential kind 'tabulated'"):
            Potential(kind="tabulated")

    def test_analytic_kinds_keep_field_equality(self):
        assert Potential.harmonic(1.0) == Potential.harmonic(1.0)
        assert hash(Potential.harmonic(1.0)) == hash(Potential.harmonic(1.0))
        assert Potential.harmonic(1.0) != Potential.harmonic(1.0, center=2.0)
        assert Potential.harmonic(1.0) != "harmonic"


class TestDoubleWell:
    def test_minima_and_gradient(self, params):
        grid = Grid1D(-8.0, 8.0, 256)
        v = Potential.double_well(barrier_height=2.0, well_separation=4.0)
        vals = v.values(grid, params)
        # minima at +-2, barrier height 2 at x=0
        i0 = np.argmin(np.abs(grid.x))
        assert vals[i0] == pytest.approx(2.0, rel=1e-12)
        imin = np.argmin(np.abs(grid.x - 2.0))
        assert vals[imin] == pytest.approx(0.0, abs=1e-10)
        # analytic gradient matches a finite difference of values
        grad = potential_gradient(v, grid.x, params)
        fd = np.gradient(vals, grid.dx)
        assert np.allclose(grad[5:-5], fd[5:-5], atol=5e-2)

    @pytest.mark.parametrize("v", [Potential.free(),
                                   Potential.harmonic(1.3, center=2.0)],
                             ids=["free", "harmonic"])
    def test_force_is_the_derivative_of_values(self, v):
        """The oracle force the Ehrenfest residuals use is dV/dx of `values`
        for the other kinds too, sign and trap center included."""
        params = PhysicalParams(mass=2.0)
        grid = Grid1D(-8.0, 8.0, 256)
        fd = np.gradient(v.values(grid, params), grid.dx)
        grad = potential_gradient(v, grid.x, params)
        assert grad.shape == grid.x.shape
        assert np.allclose(grad[1:-1], fd[1:-1], rtol=0.0, atol=1e-9)
