import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcollapse import (
    CouplingConfig,
    EvolutionConfig,
    GateConfig,
    Grid1D,
    PhysicalParams,
    Potential,
    WaveFunction,
    evolve,
    make_gaussian,
    order_parameters,
    packet_summary,
    premeasurement,
    superpose,
    von_neumann_evolve,
    wave_packet_gate,
    weak_interference,
)
from qcollapse import measurement
from qcollapse.diagnostics import (
    HERMITICITY_TOL,
    _clamped_std,
    _hermitian_real,
    _support_slice,
    position_gate,
    positive_position,
)
from qcollapse.errors import (
    ApparatusNotReady,
    NonHermitianResidue,
    ObservableNotPositiveOnSupport,
    ValidationError,
)

from oracles import (coefficient_moduli, ehrenfest_residual,
                     gaussian_moment_oracle, packet_summary_oracle)


class TestExpectation:
    def test_position_moments_vs_quadrature(self, grid, gaussian, params):
        psi = gaussian(center=2.0, sigma=1.5, momentum=0.3)
        ex, sx, ep, sp = gaussian_moment_oracle(2.0, 1.5, 0.3, grid.x_min,
                                                grid.x_max, grid.n_points)
        s = packet_summary(psi, params=params)
        assert s.exp_x == pytest.approx(ex, abs=1e-8)
        assert s.std_x == pytest.approx(sx, abs=1e-6)
        assert s.exp_p == pytest.approx(ep, abs=1e-8)
        assert s.std_p == pytest.approx(sp, abs=1e-6)

    def test_basis_independence(self, grid, params):
        # translating the whole frame shifts <x> by exactly the offset
        sa = packet_summary(make_gaussian(grid, -5.0, 1.0, 0.4, params),
                            params=params)
        sb = packet_summary(make_gaussian(grid, 5.0, 1.0, 0.4, params),
                            params=params)
        assert sb.exp_x - sa.exp_x == pytest.approx(10.0, abs=1e-7)
        assert sa.std_x == pytest.approx(sb.std_x, abs=1e-9)


class TestPacketSummary:
    def test_support_interval_and_mass(self, gaussian, params):
        psi = gaussian(center=5.0, sigma=0.5)
        s = packet_summary(psi, 2.0, params=params)
        lo, hi = s.support
        assert lo == pytest.approx(4.5, abs=1e-8)
        assert hi == pytest.approx(5.5, abs=1e-8)
        # +-1 sigma holds erf(1/sqrt 2) ~ 0.6827 of the mass
        assert s.mass_in_support == pytest.approx(math.erf(1 / math.sqrt(2)),
                                                  abs=0.01)

    def test_wide_interval_mass(self, gaussian, params):
        s = packet_summary(gaussian(), 6.0, params=params)
        assert s.mass_in_support >= 0.997

    def test_uncertainty_bound(self, gaussian, params):
        for sigma in (0.5, 1.0, 2.0):
            s = packet_summary(gaussian(sigma=sigma), params=params)
            assert s.uncertainty_product >= 0.5 - 1e-9
            assert s.uncertainty_product == pytest.approx(0.5, rel=1e-6)

    def test_norm_is_the_state_norm(self, gaussian, params):
        """The summary's norm is `WaveFunction.norm`, bit for bit, also for
        a state off unit norm."""
        psi = gaussian(center=5.0, sigma=0.5)
        for state in (psi, WaveFunction(psi.grid, 1.001 * psi.amplitudes)):
            assert packet_summary(state, params=params).norm == state.norm()


class TestNonFiniteMoments:
    """A state WaveFunction accepts can still overflow |a|^2; its moments
    must raise instead of coming out as inf or nan."""

    @pytest.fixture
    def overflowing(self):
        return WaveFunction(Grid1D(-20.0, 20.0, 256), np.full(256, 1e200 + 0j))

    def test_summary_moments_raise(self, overflowing):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonHermitianResidue):
                packet_summary(overflowing)

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


def test_momentum_residue_is_judged_in_units_of_hbar():
    """<p> = hbar <k>, so its rounding residue grows with hbar: an exact
    Gaussian at hbar = 3e12 leaves -1.51e-6 on <p>, 5e-19 on <k>.  The
    scaled check passes it and <p> keeps its bits; a residue of 2e-6 on a
    position mean still raises."""
    grid, big = Grid1D(-40.0, 120.0), PhysicalParams(hbar=3e12)
    psi = make_gaussian(grid, 20.0, 1.0, 0.0, big)
    phi = psi.spectrum
    raw = (complex(np.vdot(phi, grid.k * phi)) * big.hbar
           * (grid.dx / grid.n_points))
    assert abs(raw.imag) > HERMITICITY_TOL
    assert packet_summary(psi, params=big).exp_p == raw.real
    with pytest.raises(NonHermitianResidue, match="exceeds 1e-06$"):
        _hermitian_real(complex(0.0, 2e-6))


def _close(got, want, tol=1e-12):
    return abs(got - want) <= tol * max(1.0, abs(want))


class TestFusedPacketSummary:
    """The one-FFT packet_summary against the dense formulas of
    `packet_summary_oracle`."""

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
        s = packet_summary(psi, k, params)
        want = packet_summary_oracle(psi.amplitudes, grid, k, hbar)
        got = (s.exp_x, s.std_x, s.exp_p, s.std_p, *s.support,
               s.mass_in_support)
        for g, w in zip(got, want):
            assert _close(g, w)

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
        s = packet_summary(psi, k, params)
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
        summary = packet_summary(psi, k, params)
        lo, hi = summary.support
        x = self.GRID.x
        probe = np.append(x[(x >= lo) & (x <= hi)], summary.exp_x)
        assert np.all(probe + positive_position(summary) > 0)
        try:
            premeasurement([0.6, 0.8], psi, gate)
        except ApparatusNotReady:
            pass

    def test_minimal_shift_far_from_zero(self, gaussian, params):
        s = packet_summary(gaussian(center=12.0, sigma=0.5), params=params)
        assert positive_position(s) == s.std_x


class TestWavePacketGate:
    def test_narrow_far_packet_passes(self, params):
        grid = Grid1D(0.0, 20.0, 2048)
        psi = make_gaussian(grid, 10.0, 0.1, 0.0, params)
        verdict = wave_packet_gate(psi, 0.0)
        assert verdict.ratio == pytest.approx(100.0, rel=1e-6)
        assert verdict.is_wave_packet

    def test_cat_fails_ratio(self, grid, gaussian):
        cat = superpose([(1 / math.sqrt(2), gaussian(center=-10.0)),
                         (1 / math.sqrt(2), gaussian(center=10.0))])
        verdict = wave_packet_gate(cat, 20.0)
        assert not verdict.is_wave_packet
        # spread ~ 10, mean ~ 20 -> ratio ~ 2, far below eta = 10
        assert verdict.ratio < 3.0

    def test_observable_must_be_positive(self, gaussian, params):
        psi = gaussian(center=10.0, sigma=0.5)
        lo = packet_summary(psi, params=params).support[0]
        for shift in (-lo, -lo - 5.0):  # A(lo) = 0 and A(lo) < 0
            with pytest.raises(ObservableNotPositiveOnSupport):
                wave_packet_gate(psi, shift)
        assert not wave_packet_gate(psi, 1e-6 - lo).is_wave_packet

    def test_marginal_ratio_fails(self, params):
        grid = Grid1D(-12.0, 20.0, 1024)
        psi = make_gaussian(grid, 5.0, 1.0, 0.0, params)
        # with a bare A(x) = x probe at center 5, sigma 1 the dominance
        # ratio is 5 < 10
        verdict = wave_packet_gate(psi, 0.0)
        assert verdict.ratio == pytest.approx(5.0, rel=1e-6)
        assert not verdict.is_wave_packet

    def test_ratio_is_mean_over_std_dev(self, params):
        grid = Grid1D(-40.0, 40.0, 2048)
        for center, sigma, momentum in ((10.0, 0.5, 2.0), (1.0, 2.0, 0.3)):
            psi = make_gaussian(grid, center, sigma, momentum, params)
            verdict = wave_packet_gate(psi, 3.0)
            exp_x, std_x = packet_summary_oracle(psi.amplitudes, grid, 1.0,
                                                 params.hbar)[:2]
            assert _close(verdict.ratio, (exp_x + 3.0) / std_x)

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
        verdict = wave_packet_gate(cat, positive_position(summary))
        assert not verdict.is_wave_packet


class TestPositionGateOrigin:
    """position_gate reads the coordinate origin, as <A> >> std A for a
    positive A does: a std x = 1 Gaussian's verdict follows its distance
    from x = 0 in widths, not its shape."""

    GRID = Grid1D(-40.0, 120.0, 2048)

    @staticmethod
    def _gate(grid, center, cfg=GateConfig()):
        return position_gate(make_gaussian(grid, center, 1.0, 0.0,
                                           PhysicalParams()), cfg)

    @pytest.mark.parametrize("center, ratio, passed", [
        (-20.0, 1.6, False), (0.0, 1.6, False), (5.0, 6.0, False),
        (10.0, 11.0, True), (20.0, 21.0, True), (60.0, 61.0, True)])
    def test_verdict_follows_the_center(self, center, ratio, passed):
        verdict = self._gate(self.GRID, center)
        assert verdict.ratio == pytest.approx(ratio, rel=1e-9)
        assert verdict.is_wave_packet == passed

    def test_moving_grid_and_packet_together_changes_the_verdict(self):
        here = self._gate(self.GRID, 5.0)
        moved = self._gate(Grid1D(-25.0, 135.0, 2048), 20.0)
        assert here.ratio == pytest.approx(6.0, rel=1e-9)
        assert moved.ratio == pytest.approx(21.0, rel=1e-9)
        assert not here.is_wave_packet and moved.is_wave_packet

    @pytest.mark.parametrize("k, ratio, passed", [(17.0, 9.6, False),
                                                  (18.0, 10.1, True)])
    def test_at_the_origin_the_ratio_is_1_1_plus_half_k(self, k, ratio,
                                                         passed):
        verdict = self._gate(self.GRID, 0.0, GateConfig(k=k))
        assert verdict.ratio == pytest.approx(ratio, rel=1e-9)
        assert verdict.is_wave_packet == passed


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
        # one packet has no pair: a one-branch decomposition passes
        out = weak_interference([packet_summary(gaussian(), params=params)])
        assert out.tolist() == [[False]]


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

    @pytest.mark.parametrize("amplitudes", [[1.0], [0.6, 0.8]],
                             ids=["one_branch", "two_branches"])
    def test_too_few(self, monkeypatch, params, amplitudes):
        """The chain asks for order parameters only across two or more
        branches: never for one, once per step for two."""
        calls, seen = [], []
        monkeypatch.setattr(measurement, "order_parameters", calls.append)
        grid = Grid1D(-40.0, 40.0, 512)
        comp = premeasurement(amplitudes,
                              make_gaussian(grid, 20.0, 1.0, 0.0, params))
        von_neumann_evolve(comp, CouplingConfig(shift_velocity=1.0, tau=3.0),
                           Potential.harmonic(0.5, 20.0), params, 0.1,
                           observer=lambda t, s, ops: seen.append(ops))
        assert len(seen) == 31
        assert [len(s) for s in calls] == [2] * 31 * (len(amplitudes) - 1)

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

    def test_nonuniform_sampling_rejected(self, gaussian, params):
        psi = gaussian()
        traj = [(0.0, psi), (0.1, psi), (0.3, psi)]
        with pytest.raises(ValueError, match="uniformly spaced"):
            ehrenfest_residual(traj, Potential.free(), params)

    def test_fewer_than_three_samples_rejected(self, gaussian, params):
        psi = gaussian()
        with pytest.raises(ValueError, match="at least three"):
            ehrenfest_residual([(0.0, psi), (0.1, psi)], Potential.free(),
                               params)


class TestCoefficientModuli:
    def test_recovers_weights(self, gaussian, params):
        basis = [gaussian(center=-18.0), gaussian(center=18.0)]
        cat = superpose(zip((0.6, 0.8), basis))
        mods = coefficient_moduli(cat, basis)
        assert mods == pytest.approx([0.6, 0.8], abs=1e-8)
