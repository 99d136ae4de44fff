import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcollapse import (
    EvolutionConfig,
    GateConfig,
    Grid1D,
    ObjectState,
    ObservableSpec,
    PhysicalParams,
    Potential,
    WaveFunction,
    ehrenfest_residual,
    evolve,
    expectation,
    make_gaussian,
    order_parameters,
    packet_summary,
    premeasurement,
    std_dev,
    superpose,
    wave_packet_gate,
    weak_interference,
)
from qcollapse.diagnostics import (
    _clamped_std,
    _hermitian_real,
    _support_slice,
    positive_position,
)
from qcollapse.errors import (
    ApparatusNotReady,
    NonHermitianResidue,
    NonUniformSampling,
    ObservableNotPositiveOnSupport,
    TooFewPackets,
    ValidationError,
)

from oracles import (coefficient_moduli, gaussian_moment_oracle,
                     packet_summary_oracle)


class TestObservableSpec:
    def test_degree_cap(self):
        ObservableSpec.position_poly([0.0] * 9)
        with pytest.raises(ValidationError):
            ObservableSpec.position_poly([0.0] * 10)
        with pytest.raises(ValidationError):
            ObservableSpec.position_poly([])

    def test_classical_value(self):
        a = ObservableSpec.position_poly([1.0, 0.0, 2.0])  # 1 + 2 x^2
        assert a.classical_value(3.0) == pytest.approx(19.0)
        with pytest.raises(ValidationError):
            ObservableSpec.momentum().classical_value(1.0)


class TestExpectation:
    def test_position_moments_vs_quadrature(self, grid, gaussian, params):
        psi = gaussian(center=2.0, sigma=1.5, momentum=0.3)
        ex, sx, ep, sp = gaussian_moment_oracle(2.0, 1.5, 0.3, grid.x_min,
                                                grid.x_max, grid.n_points)
        assert expectation(psi, ObservableSpec.position(), params) == \
            pytest.approx(ex, abs=1e-8)
        assert std_dev(psi, ObservableSpec.position(), params) == \
            pytest.approx(sx, abs=1e-6)
        assert expectation(psi, ObservableSpec.momentum(), params) == \
            pytest.approx(ep, abs=1e-8)
        assert std_dev(psi, ObservableSpec.momentum(), params) == \
            pytest.approx(sp, abs=1e-6)

    def test_momentum_squared(self, gaussian, params):
        # <p^2> = <p>^2 + (hbar / 2 sigma)^2
        psi = gaussian(sigma=1.0, momentum=0.5)
        got = expectation(psi, ObservableSpec.momentum_squared(), params)
        assert got == pytest.approx(0.25 + 0.25, rel=1e-8)

    def test_quadratic_position_observable(self, gaussian, params):
        # <x^2> = center^2 + sigma^2
        psi = gaussian(center=3.0, sigma=2.0)
        a = ObservableSpec.position_poly([0.0, 0.0, 1.0])
        assert expectation(psi, a, params) == pytest.approx(13.0, rel=1e-8)

    def test_basis_independence(self, grid, params):
        # translating the whole frame shifts <x> by exactly the offset
        psi_a = make_gaussian(grid, -5.0, 1.0, 0.4, params)
        psi_b = make_gaussian(grid, 5.0, 1.0, 0.4, params)
        xa = expectation(psi_a, ObservableSpec.position(), params)
        xb = expectation(psi_b, ObservableSpec.position(), params)
        assert xb - xa == pytest.approx(10.0, abs=1e-7)
        assert std_dev(psi_a, ObservableSpec.position(), params) == \
            pytest.approx(std_dev(psi_b, ObservableSpec.position(), params),
                          abs=1e-9)


class TestPacketSummary:
    def test_support_interval_and_mass(self, gaussian, params):
        psi = gaussian(center=5.0, sigma=0.5)
        s = packet_summary(psi, GateConfig(k=2.0), params=params)
        lo, hi = s.support
        assert lo == pytest.approx(4.5, abs=1e-8)
        assert hi == pytest.approx(5.5, abs=1e-8)
        # +-1 sigma holds erf(1/sqrt 2) ~ 0.6827 of the mass
        assert s.mass_in_support == pytest.approx(math.erf(1 / math.sqrt(2)),
                                                  abs=0.01)

    def test_wide_interval_mass(self, gaussian, params):
        s = packet_summary(gaussian(), GateConfig(k=6.0), params=params)
        assert s.mass_in_support >= 0.997

    def test_uncertainty_bound(self, gaussian, params):
        for sigma in (0.5, 1.0, 2.0):
            s = packet_summary(gaussian(sigma=sigma), params=params)
            assert s.uncertainty_product >= 0.5 - 1e-9
            assert s.uncertainty_product == pytest.approx(0.5, rel=1e-6)


class TestNonFiniteMoments:
    """A state WaveFunction accepts can still overflow |a|^2; its moments
    must raise instead of coming out as inf or nan."""

    @pytest.fixture
    def overflowing(self):
        return WaveFunction(Grid1D(-20.0, 20.0, 256), np.full(256, 1e200 + 0j))

    def test_summary_and_position_moments_raise(self, overflowing):
        x = ObservableSpec.position()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonHermitianResidue):
                packet_summary(overflowing)
            with pytest.raises(NonHermitianResidue):
                expectation(overflowing, x)
            with pytest.raises(NonHermitianResidue):
                std_dev(overflowing, x)
            with pytest.raises(ValidationError, match="variance"):
                std_dev(overflowing, ObservableSpec.momentum())

    @pytest.mark.parametrize("val", [complex(1.0, math.nan),
                                     complex(math.nan, math.nan)])
    def test_nan_residue_is_non_hermitian(self, val):
        with pytest.raises(NonHermitianResidue):
            _hermitian_real(val)

    @pytest.mark.parametrize("real", [math.inf, -math.inf, math.nan])
    def test_non_finite_real_part_raises(self, real):
        with pytest.raises(ValidationError, match="not finite"):
            _hermitian_real(complex(real, 0.0))

    @pytest.mark.parametrize("second, mean", [(math.nan, 0.0),
                                              (math.inf, 0.0),
                                              (1.0, math.inf)])
    def test_non_finite_variance_is_not_clamped(self, second, mean):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="variance"):
                _clamped_std(second, mean)


def _close(got, want, tol=1e-12):
    return abs(got - want) <= tol * max(1.0, abs(want))


class TestFusedPacketSummary:
    """The one-FFT packet_summary against the expectation/std_dev path."""

    @settings(deadline=None, max_examples=40)
    @given(c1=st.floats(-12.0, 12.0), s1=st.floats(0.4, 3.0),
           p1=st.floats(-3.0, 3.0), d=st.floats(4.0, 16.0),
           s2=st.floats(0.4, 3.0), p2=st.floats(-3.0, 3.0),
           w=st.floats(0.0, 0.95), phase=st.floats(0.0, 2.0 * math.pi),
           k=st.sampled_from([0.25, 1.0, 2.0, 3.5, 6.0]),
           hbar=st.sampled_from([1.0, 0.5]))
    def test_matches_reference_moments(self, c1, s1, p1, d, s2, p2, w, phase,
                                       k, hbar):
        grid = Grid1D(-40.0, 40.0, 1024)
        params = PhysicalParams(hbar=hbar)
        first = make_gaussian(grid, c1, s1, p1, params)
        if w > 0.0:
            # Keep the second packet six widths clear of the edge region
            # (|x| > 36), where make_gaussian rightly raises BoundaryClipping.
            assume(c1 + d + 6.0 * s2 <= 36.0)
            second = make_gaussian(grid, c1 + d, s2, p2, params)
            psi = superpose([(math.sqrt(1.0 - w), first),
                             (math.sqrt(w) * complex(math.cos(phase),
                                                     math.sin(phase)),
                              second)])
        else:
            psi = first
        s = packet_summary(psi, GateConfig(k=k), params)

        x_obs, p_obs = ObservableSpec.position(), ObservableSpec.momentum()
        exp_x = expectation(psi, x_obs, params)
        std_x = std_dev(psi, x_obs, params)
        assert _close(s.exp_x, exp_x)
        assert _close(s.std_x, std_x)
        assert _close(s.exp_p, expectation(psi, p_obs, params))
        assert _close(s.std_p, std_dev(psi, p_obs, params))

        lo, hi = exp_x - 0.5 * k * std_x, exp_x + 0.5 * k * std_x
        assert _close(s.support[0], lo) and _close(s.support[1], hi)
        inside = (grid.x >= lo) & (grid.x <= hi)
        mass = float(np.sum(psi.probability_density()[inside])) * grid.dx
        assert _close(s.mass_in_support, min(mass, 1.0))

    @pytest.mark.parametrize("k", [0.25, 1.0, 6.0])
    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    @pytest.mark.parametrize("kind", ["gaussian", "cat", "random"])
    def test_matches_dense_formulas(self, kind, hbar, k):
        grid = Grid1D(-40.0, 120.0, 2048)
        params = PhysicalParams(hbar=hbar)
        if kind == "random":
            rng = np.random.default_rng(5)
            amps = rng.normal(size=2048) + 1j * rng.normal(size=2048)
            psi = WaveFunction(grid, amps).normalize()
        else:
            psi = make_gaussian(grid, 3.7, 1.3, 0.8, params)
            if kind == "cat":
                psi = superpose([(0.6, psi), (0.8j, make_gaussian(
                    grid, 21.0, 0.9, -1.1, params))])
        s = packet_summary(psi, GateConfig(k=k), params)
        want = packet_summary_oracle(psi.amplitudes, grid, k, hbar)
        got = (s.exp_x, s.std_x, s.exp_p, s.std_p, *s.support,
               s.mass_in_support)
        for g, w in zip(got, want):
            assert _close(g, w)

    def test_support_slice_is_the_inclusive_mask(self):
        x = Grid1D(-40.0, 120.0, 2048).x
        amps = np.random.default_rng(3).normal(size=2048) * (1 + 0.5j)
        bounds = [(x[100], x[900]), (x[5], x[5]), (x[0], x[-1]),
                  (x[100] + 1e-9, x[900] - 1e-9), (-1e9, 1e9),
                  (x[-1] + 1.0, x[-1] + 2.0), (-50.0, x[0]),
                  (0.5 * (x[3] + x[4]), x[40])]
        for lo, hi in bounds:
            mask = (x >= lo) & (x <= hi)
            sl = _support_slice(x, lo, hi)
            assert np.array_equal(x[sl], x[mask])
            inside = amps[sl]
            assert _close(float(np.vdot(inside, inside).real),
                          float(np.sum(np.abs(amps[mask]) ** 2)))

    def test_variance_clamp_is_shared(self):
        from qcollapse.diagnostics import VARIANCE_CLAMP_TOL, _clamped_std
        assert _clamped_std(5.0, 2.0) == pytest.approx(1.0)
        # round-off below the tolerance clamps silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _clamped_std(4.0 - 0.1 * VARIANCE_CLAMP_TOL, 2.0) == 0.0
        with pytest.warns(RuntimeWarning, match="negative variance"):
            assert _clamped_std(4.0 - 10.0 * VARIANCE_CLAMP_TOL, 2.0) == 0.0


class TestPositivePosition:
    GRID = Grid1D(-40.0, 40.0, 1024)

    @settings(deadline=None, max_examples=40)
    @given(center=st.floats(-15.0, 15.0), sigma=st.floats(0.4, 2.0),
           k=st.floats(0.5, 12.0, exclude_min=True, exclude_max=True))
    @example(center=0.0, sigma=1.0, k=10.0)
    @example(center=4.0, sigma=1.0, k=11.0)
    def test_positive_on_probe_for_any_k(self, center, sigma, k):
        """A > 0 on the whole gate probe, so readiness is a verdict."""
        params = PhysicalParams()
        gate = GateConfig(k=k)
        psi = make_gaussian(self.GRID, center, sigma, 0.0, params)
        summary = packet_summary(psi, gate, params)
        lo, hi = summary.support
        x = self.GRID.x
        probe = np.append(x[(x >= lo) & (x <= hi)], summary.exp_x)
        assert np.all(positive_position(summary).classical_value(probe) > 0)
        try:
            premeasurement(ObjectState(np.array([0.6, 0.8])), psi, gate,
                           params)
        except ApparatusNotReady:
            pass

    def test_minimal_shift_far_from_zero(self, gaussian, params):
        s = packet_summary(gaussian(center=12.0, sigma=0.5), params=params)
        assert positive_position(s) == ObservableSpec.position(s.std_x)


class TestWavePacketGate:
    def test_narrow_far_packet_passes(self, params):
        grid = Grid1D(0.0, 20.0, 2048)
        psi = make_gaussian(grid, 10.0, 0.1, 0.0, params)
        verdict = wave_packet_gate(psi, [ObservableSpec.position()],
                                   params=params)
        _, ratio, taylor = verdict.per_observable[0]
        assert ratio == pytest.approx(100.0, rel=1e-6)
        assert taylor <= 1e-10
        assert verdict.is_wave_packet

    def test_cat_fails_ratio(self, grid, gaussian, params):
        cat = superpose([(1 / math.sqrt(2), gaussian(center=-10.0)),
                         (1 / math.sqrt(2), gaussian(center=10.0))])
        a = ObservableSpec.position(20.0)
        verdict = wave_packet_gate(cat, [a], params=params)
        assert not verdict.is_wave_packet
        _, ratio, _ = verdict.per_observable[0]
        # spread ~ 10, mean ~ 20 -> ratio ~ 2, far below eta = 10
        assert ratio < 3.0

    def test_observable_must_be_positive(self, gaussian, params):
        psi = gaussian(center=10.0, sigma=0.5)
        a = ObservableSpec.position_poly([100.0, -20.0, 1.0])  # (x - 10)^2
        with pytest.raises(ObservableNotPositiveOnSupport):
            wave_packet_gate(psi, [a], params=params)

    def test_momentum_observable(self, params):
        grid = Grid1D(-40.0, 40.0, 2048)
        psi = make_gaussian(grid, 0.0, 4.0, 2.0, params)
        # std p = 1/8, <p> = 2 -> ratio 16 >= eta
        verdict = wave_packet_gate(psi, [ObservableSpec.momentum()],
                                   params=params)
        _, ratio, taylor = verdict.per_observable[0]
        assert ratio == pytest.approx(16.0, rel=1e-6)
        assert taylor <= 1e-10
        assert verdict.is_wave_packet

    def test_marginal_ratio_fails(self, params):
        grid = Grid1D(-12.0, 20.0, 1024)
        psi = make_gaussian(grid, 5.0, 1.0, 0.0, params)
        # ratio ~ 5+shift but with a bare A(x) = x probe at center 5, sigma 1
        # the dominance ratio is 5 < 10
        verdict = wave_packet_gate(psi, [ObservableSpec.position()],
                                   params=params)
        _, ratio, _ = verdict.per_observable[0]
        assert ratio == pytest.approx(5.0, rel=1e-6)
        assert not verdict.is_wave_packet

    @pytest.mark.parametrize("obs", [ObservableSpec.position(3.0),
                                     ObservableSpec.momentum()],
                             ids=["position", "momentum"])
    def test_ratio_is_mean_over_std_dev(self, obs, params):
        grid = Grid1D(-40.0, 40.0, 2048)
        for center, sigma, momentum in ((10.0, 0.5, 2.0), (1.0, 2.0, 0.3)):
            psi = make_gaussian(grid, center, sigma, momentum, params)
            verdict = wave_packet_gate(psi, [obs], params=params)
            _, ratio, _ = verdict.per_observable[0]
            assert ratio == (abs(expectation(psi, obs, params))
                             / std_dev(psi, obs, params))

    @settings(deadline=None, max_examples=25)
    @given(sigma=st.floats(0.5, 1.5), d=st.floats(12.0, 20.0),
           mid=st.floats(-5.0, 5.0),
           w=st.floats(0.05, 0.95))
    def test_gate_obstruction_for_cats(self, sigma, d, mid, w):
        """No sharply split two-packet state passes the gate."""
        grid = Grid1D(-40.0, 40.0, 1024)
        params = PhysicalParams()
        c1, c2 = math.sqrt(w), math.sqrt(1.0 - w)
        cat = superpose([
            (c1, make_gaussian(grid, mid - d / 2, sigma, 0.0, params)),
            (c2, make_gaussian(grid, mid + d / 2, sigma, 0.0, params)),
        ])
        summary = packet_summary(cat, params=params)
        verdict = wave_packet_gate(cat, [positive_position(summary)],
                                   params=params)
        assert not verdict.is_wave_packet


class TestWeakInterference:
    def _summaries(self, centers, widths):
        return [
            type("S", (), {"exp_x": c, "std_x": w})()
            for c, w in zip(centers, widths)
        ]

    def test_separated_pair(self, gaussian, params):
        s = [packet_summary(gaussian(center=c), params=params)
             for c in (-10.0, 10.0)]
        m = weak_interference(s)
        assert m[0, 1] and m[1, 0]
        assert not m[0, 0] and not m[1, 1]

    def test_overlapping_pair(self, gaussian, params):
        s = [packet_summary(gaussian(center=c, sigma=2.0), params=params)
             for c in (-0.5, 0.5)]
        m = weak_interference(s)
        assert not m[0, 1]

    def test_boundary_is_inclusive(self):
        s = self._summaries([0.0, 1.0], [1.0, 1.0])
        assert weak_interference(s)[0, 1]
        s = self._summaries([0.0, 1.0 - 1e-12], [1.0, 1.0])
        assert not weak_interference(s)[0, 1]

    def test_simplified_form(self):
        # widths 1 and 3: pairwise threshold 2
        s = self._summaries([0.0, 2.5], [1.0, 3.0])
        assert weak_interference(s)[0, 1]
        s = self._summaries([0.0, 1.5], [1.0, 3.0])
        assert not weak_interference(s)[0, 1]

    def test_too_few(self, gaussian, params):
        with pytest.raises(TooFewPackets):
            weak_interference([packet_summary(gaussian(), params=params)])


class TestOrderParameters:
    def test_three_branch_extremes(self):
        mk = lambda c, w: type("S", (), {"exp_x": c, "std_x": w})()
        s = [mk(0.0, 1.0), mk(10.0, 3.0), mk(30.0, 1.0)]
        op = order_parameters(s)
        assert op.min_pairwise_separation == pytest.approx(10.0)
        assert op.critical_value == pytest.approx(2.0)
        assert op.transition

    def test_below_threshold(self):
        mk = lambda c, w: type("S", (), {"exp_x": c, "std_x": w})()
        op = order_parameters([mk(0.0, 1.0), mk(0.3, 1.0)])
        assert op.min_pairwise_separation == pytest.approx(0.3)
        assert op.critical_value == pytest.approx(1.0)
        assert not op.transition

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(st.sampled_from([-2.5, 0.0, 0.1, 3.0]),
                              st.sampled_from([0.5, 1.0, 1.3])),
                    min_size=2, max_size=6),
           st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(0.01, 5.0)),
                    min_size=2, max_size=6))
    @example([(0.0, 1.0), (0.0, 1.0)], [(1.0, 1.0), (1.0, 1.0)])
    def test_matches_pairwise_matrix_bitwise(self, tied, spread):
        """Sorted-neighbour extremes equal the triu-masked matrix extremes,
        with tied centers and widths included."""
        mk = lambda c, w: type("S", (), {"exp_x": c, "std_x": w})()
        for packets in (tied, spread):
            s = [mk(c, w) for c, w in packets]
            centers = np.array([c for c, _ in packets])
            widths = np.array([w for _, w in packets])
            iu = np.triu_indices(len(packets), k=1)
            sep = np.abs(centers[:, None] - centers[None, :])[iu]
            crit = (0.5 * (widths[:, None] + widths[None, :]))[iu]
            op = order_parameters(s)
            assert op.min_pairwise_separation == float(sep.min())
            assert op.critical_value == float(crit.max())

    def test_too_few(self):
        mk = lambda c, w: type("S", (), {"exp_x": c, "std_x": w})()
        with pytest.raises(TooFewPackets):
            order_parameters([mk(0.0, 1.0)])

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e3)),
                    min_size=2, max_size=8))
    def test_matches_numpy_sort_reference_bitwise(self, packets):
        """Sorting Python floats gives the bits of np.sort / np.diff."""
        mk = lambda c, w: type("S", (), {"exp_x": c, "std_x": w})()
        op = order_parameters([mk(c, w) for c, w in packets])
        centers = np.sort([c for c, _ in packets])
        widths = np.sort([w for _, w in packets])
        assert op.min_pairwise_separation == float(np.diff(centers).min())
        assert op.critical_value == float(0.5 * (widths[-1] + widths[-2]))


class TestEhrenfest:
    def _trajectory(self, psi, v, params, dt, n, every):
        traj = [(0.0, psi)]
        evolve(psi, v, params,
               EvolutionConfig(dt=dt, n_steps=n, record_every=every),
               lambda t, s: traj.append((t, s)))
        return traj

    def test_free_particle_exact(self, gaussian, params):
        traj = self._trajectory(gaussian(momentum=1.0), Potential.free(),
                                params, 1e-3, 200, 10)
        res = ehrenfest_residual(traj, Potential.free(), params)
        assert res.residual_x.max() <= 1e-6
        assert res.residual_p.max() <= 1e-10
        assert res.residual_newton.max() <= 1e-10

    def test_harmonic_newton_matches_exact(self, grid, params):
        v = Potential.harmonic(omega=1.0)
        psi = make_gaussian(grid, 2.0, 1.0, 0.0, params)
        traj = self._trajectory(psi, v, params, 1e-3, 200, 10)
        res = ehrenfest_residual(traj, v, params)
        # linear force: averaged force equals force at the mean
        assert np.max(np.abs(res.residual_p - res.residual_newton)) <= 1e-8
        # centered differences at sample spacing 0.01: error ~ (dt^2/6) x'''
        assert res.residual_p.max() <= 5e-5

    def test_anharmonic_broad_packet_breaks_newton(self, params):
        grid = Grid1D(-16.0, 16.0, 512)
        v = Potential.double_well(barrier_height=1.0, well_separation=4.0)
        psi = make_gaussian(grid, 1.0, 1.5, 0.0, params)
        traj = self._trajectory(psi, v, params, 1e-3, 200, 10)
        res = ehrenfest_residual(traj, v, params)
        assert res.residual_newton.max() >= 10.0 * res.residual_p.max()

    def test_residual_convergence_order(self, grid, params):
        v = Potential.harmonic(omega=1.0)
        psi = make_gaussian(grid, 2.0, 1.0, 0.0, params)
        maxima = []
        for dt in (2e-3, 1e-3):
            traj = self._trajectory(psi, v, params, dt, int(0.2 / dt), 10)
            maxima.append(ehrenfest_residual(traj, v, params).residual_p.max())
        assert maxima[0] / maxima[1] >= 3.5  # ~ O(dt^2)

    def test_tabulated_potential_has_no_newton_residual(self, grid, gaussian,
                                                        params):
        v = Potential.tabulated(0.01 * grid.x**2)
        traj = self._trajectory(gaussian(), v, params, 1e-3, 20, 10)
        with pytest.raises(ValidationError):
            ehrenfest_residual(traj, v, params)

    def test_nonuniform_sampling_rejected(self, gaussian, params):
        psi = gaussian()
        traj = [(0.0, psi), (0.1, psi), (0.3, psi)]
        with pytest.raises(NonUniformSampling):
            ehrenfest_residual(traj, Potential.free(), params)


class TestCoefficientModuli:
    def test_recovers_weights(self, gaussian, params):
        basis = [gaussian(center=-18.0), gaussian(center=18.0)]
        cat = superpose(zip((0.6, 0.8), basis))
        mods = coefficient_moduli(cat, basis)
        assert mods == pytest.approx([0.6, 0.8], abs=1e-8)
