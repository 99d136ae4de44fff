import dataclasses
import math
from bisect import bisect_right
from functools import reduce

import numpy as np
import pytest

from qcollapse import (
    CompositeState,
    CouplingConfig,
    EvolutionConfig,
    Grid1D,
    OrderParameters,
    PhysicalParams,
    Potential,
    TransitionReport,
    apparatus_decomposition,
    evolve,
    make_gaussian,
    measure,
    order_parameters,
    packet_summary,
    premeasurement,
    superpose,
    translate,
    von_neumann_evolve,
)
from qcollapse import measurement
from qcollapse.collapse import SuperpositionDecomposition
from qcollapse.grid import overlap_matrix
from qcollapse.errors import (
    ApparatusNotReady,
    BoundaryClipping,
    TransitionNotReached,
    ValidationError,
)

APPARATUS_CENTER = 20.0
APPARATUS_GRID = Grid1D(-40.0, 120.0, 2048)
CHAIN = CouplingConfig(shift_velocity=1.0, tau=15.0)


@pytest.fixture
def apparatus(params):
    return make_gaussian(APPARATUS_GRID, APPARATUS_CENTER, 1.0, 0.0, params)


@pytest.fixture
def trap():
    # confining trap with omega = hbar / (2 m sigma^2) keeps std x constant
    return Potential.harmonic(omega=0.5, center=APPARATUS_CENTER)


@pytest.fixture
def obj():
    return np.array([0.6, 0.8])


def fold(steps, report=TransitionReport()):
    """`report` with each (t, OrderParameters) of `steps` folded in."""
    return reduce(lambda r, step: r.after(*step), steps, report)


@pytest.fixture(scope="module")
def chain_run():
    """The 1500-step chain of `obj` and `apparatus` under CHAIN in `trap` at
    dt = 0.01 and the (t, OrderParameters) its observer saw, built once per
    module: states are immutable, and test_measure_leaves_composite_untouched
    checks that `measure` leaves this one as it was."""
    params = PhysicalParams()
    apparatus = make_gaussian(APPARATUS_GRID, APPARATUS_CENTER, 1.0, 0.0,
                              params)
    comp = premeasurement([0.6, 0.8], apparatus)
    trap = Potential.harmonic(omega=0.5, center=APPARATUS_CENTER)
    steps = []
    final, report = von_neumann_evolve(
        comp, CHAIN, trap, params, 0.01,
        observer=lambda t, s, ops: steps.append((t, ops)))
    return final, report, steps


@pytest.fixture(scope="module")
def evolved(chain_run):
    """(final state, TransitionReport) of `chain_run`."""
    return chain_run[:2]


class TestCompositeState:
    """The object amplitudes, a unit vector to NORM_TOL, and one apparatus
    packet per coefficient."""

    @staticmethod
    def _build(coefficients, apparatus):
        return CompositeState(coefficients,
                              (apparatus,) * np.size(coefficients))

    def test_norm_check(self, apparatus):
        with pytest.raises(ValidationError):
            self._build(np.array([0.6, 0.7]), apparatus)

    def test_rejects_matrix(self, apparatus):
        with pytest.raises(ValidationError, match="1-D vector"):
            self._build(np.eye(2), apparatus)

    def test_rejects_nan_coefficient(self, apparatus):
        with pytest.raises(ValidationError):
            self._build(np.array([np.nan, 1.0]), apparatus)

    @pytest.mark.parametrize("n_packets", [1, 3])
    def test_needs_one_packet_per_coefficient(self, apparatus, n_packets):
        with pytest.raises(ValidationError, match=(
                f"^{n_packets} apparatus packets for 2 coefficients$")):
            CompositeState([0.6, 0.8], (apparatus,) * n_packets)

    def test_coefficients_are_a_read_only_complex_copy(self, apparatus):
        amplitudes = np.array([0.6, 0.8])
        comp = self._build(amplitudes, apparatus)
        amplitudes[0] = 1.0
        assert comp.coefficients.dtype == np.complex128
        assert comp.coefficients.tolist() == [0.6, 0.8]
        with pytest.raises(ValueError):
            comp.coefficients[0] = 1.0


@pytest.mark.parametrize("excess, object_ok, decomposition_ok", [
    (2e-9, False, True), (1e-8, False, False)])
def test_each_coefficient_vector_keeps_its_tolerance_and_stem(
        apparatus, excess, object_ok, decomposition_ok):
    """|sum |c|^2 - 1| = 1.6 * excess: the composite state holds it to
    NORM_TOL (1e-10), the decomposition to COEFF_NORM_TOL (1e-8)."""
    coefficients = (0.6, 0.8 + excess)
    pointers = (apparatus, translate(apparatus, 16.0))
    cases = [
        (object_ok, "object norm^2",
         lambda: CompositeState(coefficients, (apparatus,) * 2)),
        (decomposition_ok, "sum |c_n|^2", lambda: SuperpositionDecomposition(
            coefficients, pointers)),
    ]
    for ok, stem, build in cases:
        if ok:
            build()
        else:
            with pytest.raises(ValidationError) as info:
                build()
            assert str(info.value).startswith(stem + " = ")


class TestPremeasurement:
    def test_product_form(self, obj, apparatus):
        comp = premeasurement(obj, apparatus)
        assert all(s is apparatus for s in comp.apparatus_states)
        assert len(comp) == 2
        assert np.allclose(comp.coefficients, [0.6, 0.8])
        assert (np.abs(comp.coefficients) ** 2).sum() == pytest.approx(
            1.0, abs=1e-10)

    def test_certain_object(self, apparatus):
        comp = premeasurement([1.0], apparatus)
        assert len(comp) == 1

    def test_split_apparatus_not_ready(self, params):
        double = superpose([
            (1 / math.sqrt(2),
             make_gaussian(APPARATUS_GRID, 14.0, 1.0, 0.0, params)),
            (1 / math.sqrt(2),
             make_gaussian(APPARATUS_GRID, 26.0, 1.0, 0.0, params)),
        ])
        with pytest.raises(ApparatusNotReady):
            premeasurement([1.0], double)

    def test_broad_apparatus_not_ready(self, params):
        broad = make_gaussian(APPARATUS_GRID, 3.0, 2.0, 0.0, params)
        with pytest.raises(ApparatusNotReady):
            premeasurement([1.0], broad)


class TestCouplingConfig:
    def test_invariants(self):
        with pytest.raises(ValidationError):
            CouplingConfig(shift_velocity=0.0, tau=15.0)
        with pytest.raises(ValidationError):
            CouplingConfig(shift_velocity=1.0, tau=0.0)

    def test_fields_are_keyword_only(self):
        """Fields are set by name only, so a positional call written for
        another field order fails instead of setting tau."""
        assert [f.name for f in dataclasses.fields(CouplingConfig)] == [
            "shift_velocity", "tau"]
        with pytest.raises(TypeError):
            CouplingConfig(1.0, 10.0)

    def test_apparatus_width_bound(self):
        # 1500 steps of dt = 0.01 move adjacent branches 15 apart
        cfg = CouplingConfig(shift_velocity=1.0, tau=15.0)
        cfg.validate_apparatus(1.0, 0.01)
        cfg.validate_apparatus(4.9, 0.01)
        with pytest.raises(ValidationError, match="below 3"):
            cfg.validate_apparatus(5.1, 0.01)

    @pytest.mark.parametrize("v", [0.7, 1.1])
    def test_shortest_coupling_is_accepted(self, v):
        # v * n_steps * dt = 3 sigma passes up to rounding (3.0 / 0.7 * 0.7
        # = 2.9999999999999996); a width 1e-6 wider is refused.
        cfg = CouplingConfig(shift_velocity=v, tau=3.0 / v)
        dt = cfg.tau / 10
        assert cfg.n_steps(dt) == 10
        cfg.validate_apparatus(1.0, dt)
        with pytest.raises(ValidationError, match="too short"):
            cfg.validate_apparatus(1.0 + 1e-6, dt)

    def test_measured_unit_width_allows_three_of_it(self, params):
        # A sigma0 = 1 packet on this grid measures std x = 1 + 2.8e-14.
        apparatus = make_gaussian(Grid1D(-40.0, 120.0, 1024),
                                  APPARATUS_CENTER, 1.0, 0.0, params)
        sigma = packet_summary(apparatus, params=params).std_x
        assert sigma > 1.0
        cfg = CouplingConfig(shift_velocity=1.0, tau=3.0)
        cfg.validate_apparatus(sigma, 0.01)
        with pytest.raises(ValidationError, match="below 3"):
            CouplingConfig(shift_velocity=1.0,
                           tau=2.99).validate_apparatus(sigma, 0.01)


class TestVonNeumannEvolve:
    CFG = CHAIN

    def _coupled(self, obj, apparatus, trap, params, dt, cfg=None,
                 observer=None):
        comp = premeasurement(obj, apparatus)
        return von_neumann_evolve(comp, cfg or self.CFG, trap, params, dt,
                                  observer=observer)

    def test_single_branch_reports_no_transition(self, apparatus, trap,
                                                 params):
        comp = premeasurement([1.0], apparatus)
        cfg = CouplingConfig(shift_velocity=1.0, tau=3.0)
        final, report = von_neumann_evolve(comp, cfg, trap, params, 0.01)
        assert report == TransitionReport(None, None)
        assert len(final) == 1

    def test_coefficients_carried_unchanged(self, evolved):
        final, _ = evolved
        assert np.allclose(final.coefficients, [0.6, 0.8], atol=0.0)

    def test_branch_centers_move_kinematically(self, evolved, params):
        final, _ = evolved
        s = [packet_summary(a, params=params) for a in final.apparatus_states]
        assert s[0].exp_x == pytest.approx(APPARATUS_CENTER, abs=1e-6)
        assert s[1].exp_x == pytest.approx(APPARATUS_CENTER + 15.0, abs=1e-6)
        # the trap rides along, so the widths stay put
        assert s[0].std_x == pytest.approx(1.0, rel=1e-4)
        assert s[1].std_x == pytest.approx(1.0, rel=1e-3)

    def test_transition_time_matches_kinematics(self, evolved):
        # separation grows as v t; widths stay 1, so the critical separation
        # 1 is crossed at t = 1 / v
        _, report = evolved
        assert report.t_star == pytest.approx(1.0, rel=0.1)

    def test_transition_time_within_one_step_of_sigma_over_v(
            self, evolved, apparatus, params):
        # the coherent trap keeps every width at sigma, so min_sep = v t and
        # critical = sigma: the first step with v t >= sigma is t*
        dt = 0.01  # the step of `evolved`
        _, report = evolved
        crossing = packet_summary(apparatus, params=params).std_x \
            / self.CFG.shift_velocity
        assert crossing - 1e-12 <= report.t_star <= crossing + dt + 1e-12

    def test_branch_is_the_shifted_static_evolution(self, apparatus, trap,
                                                    params):
        dt, cfg = 0.05, self.CFG
        obj3 = [0.48, 0.6, 0.64]
        final, _ = self._coupled(obj3, apparatus, trap, params, dt=dt)
        n_steps = int(round(cfg.tau / dt))
        phi = evolve(apparatus, trap, params, EvolutionConfig(dt, n_steps))
        for n, branch in enumerate(final.apparatus_states):
            want = translate(phi, n * cfg.shift_velocity * cfg.tau)
            assert np.max(np.abs(branch.amplitudes - want.amplitudes)) <= 1e-12

    def test_the_co_moving_frames_are_bitwise_equal_at_every_step(
            self, monkeypatch, params):
        """Every branch starts as the one ready packet and steps under the
        one potential and dt, so on the measurement_run check grid (d = 3,
        dt = 0.05, 300 steps) the d frames that `step` returns agree bit for
        bit: one split step per time step would do for all d."""
        stepped, split_step = [], measurement.step

        def recording_step(*args):
            stepped.append(split_step(*args))
            return stepped[-1]

        monkeypatch.setattr(measurement, "step", recording_step)
        grid = Grid1D(-40.0, 120.0, 1024)
        apparatus = make_gaussian(grid, APPARATUS_CENTER, 1.0, 0.0, params)
        comp = premeasurement([0.48, 0.6, 0.64], apparatus)
        trap = Potential.harmonic(omega=0.5, center=APPARATUS_CENTER)
        von_neumann_evolve(comp, self.CFG, trap, params, 0.05)
        assert len(stepped) == 3 * 300
        for i in range(0, len(stepped), 3):
            frames = {frame.amplitudes.tobytes() for frame in stepped[i:i + 3]}
            assert len(frames) == 1, f"frames differ at step {i // 3 + 1}"

    def test_order_parameter_continuity(self, obj, apparatus, trap, params):
        seps = []
        self._coupled(obj, apparatus, trap, params, dt=0.05,
                      observer=lambda t, s, ops: seps.append(
                          ops.min_pairwise_separation))
        jumps = np.abs(np.diff(seps))
        assert jumps.max() <= 1.1 * self.CFG.shift_velocity * 0.05

    def test_observer_sees_every_step(self, obj, apparatus, trap, params):
        times = []
        self._coupled(obj, apparatus, trap, params, dt=0.1,
                      cfg=CouplingConfig(tau=11.0),
                      observer=lambda t, s, ops: times.append(t))
        assert len(times) == 111
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(11.0)

    def test_coupling_runs_at_least_tau(self, obj, apparatus, trap, params):
        # round(tau / dt) = 33 steps would stop at t = 9.9, short of tau
        cfg = CouplingConfig(shift_velocity=1.0, tau=10.0)
        times = []
        final, _ = self._coupled(obj, apparatus, trap, params, dt=0.3,
                                 cfg=cfg,
                                 observer=lambda t, s, ops: times.append(t))
        assert times[-1] == pytest.approx(10.2)
        s = [packet_summary(a, params=params) for a in final.apparatus_states]
        assert s[1].exp_x - s[0].exp_x >= cfg.shift_velocity * cfg.tau

    def test_observer_receives_the_step_order_parameters(
            self, obj, apparatus, trap, params):
        seen = []
        _, report = self._coupled(
            obj, apparatus, trap, params, dt=0.1,
            cfg=CouplingConfig(tau=11.0),
            observer=lambda t, s, ops: seen.append((t, s, ops)))
        assert all(ops == order_parameters(s) for _, s, ops in seen)
        assert report == fold((t, ops) for t, _, ops in seen)
        assert report.critical_value == seen[-1][2].critical_value
        single = premeasurement([1.0], apparatus)
        seen.clear()
        von_neumann_evolve(single, CouplingConfig(tau=3.0), trap,
                           params, 0.1,
                           observer=lambda t, s, ops: seen.append(ops))
        assert len(seen) == 31 and set(seen) == {None}

    def test_dt_bound_for_harmonic_before_stepping(self, obj, apparatus,
                                                   params):
        # evolve's limit dt <= 0.1 * 2 pi / omega (0.628 for omega = 1)
        seen = []
        with pytest.raises(ValidationError, match="exceeds"):
            self._coupled(obj, apparatus, Potential.harmonic(omega=1.0),
                          params, dt=1.0,
                          observer=lambda t, s, ops: seen.append(t))
        assert seen == []

    def test_wrap_around_raises_boundary_clipping(self, params):
        # On [-20, 60] the edge region starts at 56; branch 2 moves 2 * 40
        # from x = 20 and would otherwise wrap round the periodic grid.
        grid = Grid1D(-20.0, 60.0, 512)
        apparatus = make_gaussian(grid, 20.0, 1.0, 0.0, params)
        comp = premeasurement([0.48, 0.6, 0.64],
                              apparatus)
        trap = Potential.harmonic(omega=0.5, center=20.0)
        times = []
        with pytest.raises(BoundaryClipping, match="branch 2"):
            von_neumann_evolve(comp, CouplingConfig(tau=40.0), trap,
                               params, 0.05,
                               observer=lambda t, s, ops: times.append(t))
        # branch 2 is at 20 + 2 t, about 6 widths below the edge region
        assert 14.0 < times[-1] < 16.0

    def test_composite_recoverable_from_its_columns(self, evolved):
        final, _ = evolved
        rebuilt = CompositeState(final.coefficients, final.apparatus_states)
        assert (np.abs(rebuilt.coefficients) ** 2).sum() == pytest.approx(
            1.0, abs=1e-8)
        assert all(s.norm() == pytest.approx(1.0, abs=1e-8)
                   for s in rebuilt.apparatus_states)
        a0, a1 = final.apparatus_states
        assert not np.array_equal(a0.amplitudes, a1.amplitudes)


class TestTransitionFold:
    """TransitionReport.after on synthetic order parameters: the earliest
    crossing that lasts to the end, where a dip discards an earlier one."""

    @staticmethod
    def _steps(*rows):
        return [(t, OrderParameters(sep, crit)) for t, sep, crit in rows]

    def test_earliest_persistent_crossing(self):
        steps = self._steps((0.0, 0.2, 1.0), (0.5, 0.8, 1.0), (1.0, 1.4, 1.0),
                            (1.5, 2.0, 1.0))
        assert fold(steps) == TransitionReport(1.0, 1.0)

    def test_no_crossing(self):
        steps = self._steps((0.0, 0.2, 1.0), (0.5, 0.4, 1.0))
        assert fold(steps) == TransitionReport(None, 1.0)

    def test_regression_postpones_transition(self):
        # a dip back below threshold discards the earlier crossing
        steps = self._steps((0.0, 1.5, 1.0), (0.5, 0.5, 1.0), (1.0, 1.2, 1.0),
                            (1.5, 1.8, 1.0))
        assert fold(steps).t_star == 1.0
        assert fold(steps[:1]).t_star == 0.0
        assert fold(steps[:2]).t_star is None

    def test_empty_series(self):
        assert fold([]) == TransitionReport(None, None)

    def test_critical_value_is_the_last_step_s(self):
        steps = self._steps((0.0, 0.2, 1.0), (0.5, 1.4, 1.2), (1.0, 1.4, 0.9))
        assert fold(steps) == TransitionReport(0.5, 0.9)


class TestCriticalValueUnderFreeCoupling:
    """The paper's critical value is set by the uncertainty relation.

    Without a trap every branch spreads as sigma(t)^2 = sigma0^2 +
    (sigma_p t / m)^2 with sigma_p = hbar / (2 sigma0), and branches n and
    n + 1 separate at v t.  So v t >= sigma(t) first holds at t_pred =
    sigma0 / sqrt(v^2 - (sigma_p / m)^2), and never when v <= sigma_p / m.
    """
    DT = 0.01
    SEPARATION = 3.0

    def _t_star(self, v, hbar):
        params = PhysicalParams(hbar=hbar)
        apparatus = make_gaussian(APPARATUS_GRID, APPARATUS_CENTER, 1.0,
                                  0.0, params)
        comp = premeasurement([0.6, 0.8], apparatus)
        # the shortest coupling validate_apparatus accepts: v tau = 3 sigma0
        cfg = CouplingConfig(shift_velocity=v, tau=self.SEPARATION / v)
        _, report = von_neumann_evolve(comp, cfg, Potential.free(), params,
                                       self.DT)
        return report.t_star

    @pytest.mark.parametrize("v, hbar", [(2.0, 1.0), (1.0, 1.0), (0.7, 1.0),
                                         (1.0, 0.5)])
    def test_transition_at_the_uncertainty_limited_time(self, v, hbar):
        sigma0, mass = 1.0, 1.0
        sigma_p = hbar / (2.0 * sigma0)
        t_pred = sigma0 / math.sqrt(v**2 - (sigma_p / mass) ** 2)
        t_star = self._t_star(v, hbar)
        assert t_pred - 1e-12 <= t_star <= t_pred + self.DT + 1e-12

    def test_no_transition_below_the_momentum_spread(self):
        # hbar / (2 sigma0 m) = 0.5: branches at v = 0.45 never out-run
        # their own spreading
        assert self._t_star(0.45, 1.0) is None


class TestWidthsAndOverlapsUnderCoupling:
    """Gaussian pointers stay Gaussian under a quadratic potential (Heller
    1975).  With sigma0 = hbar = m = 1, each branch's width follows a lone
    packet's sigma(t), and under free coupling |<a_n, a_m>| = exp(-((n - m)
    v t)^2 / 8), since neither a translation nor free motion moves |phi|^2.
    """
    GRID = Grid1D(-40.0, 120.0, 1024)
    DT = 0.05

    def _chain(self, d, tau, potential, observer=None):
        """The final composite of d branches coupled at v = 1 for tau."""
        params = PhysicalParams()
        apparatus = make_gaussian(self.GRID, APPARATUS_CENTER, 1.0, 0.0,
                                  params)
        comp = premeasurement(np.full(d, d**-0.5), apparatus)
        cfg = CouplingConfig(shift_velocity=1.0, tau=tau)
        final, _ = von_neumann_evolve(comp, cfg, potential, params, self.DT,
                                      observer)
        return final

    # free: sigma(t)^2 = 1 + (t / 2)^2; breathing trap at omega = 0.3:
    # sigma(t)^2 = cos^2(omega t) + (sin(omega t) / (2 omega))^2, within the
    # O(dt^2) Strang error.
    @pytest.mark.parametrize("potential, sigma, tol", [
        (Potential.free(), lambda t: math.hypot(1.0, 0.5 * t), 1e-9),
        (Potential.harmonic(omega=0.3, center=APPARATUS_CENTER),
         lambda t: math.hypot(math.cos(0.3 * t), math.sin(0.3 * t) / 0.6),
         1e-4)], ids=["free", "breathing_trap"])
    def test_every_branch_width_follows_sigma_t(self, potential, sigma, tol):
        rows = []
        self._chain(3, 10.0, potential,
                    lambda t, summaries, _: rows.append((t, summaries)))
        assert len(rows) == 201 and all(len(s) == 3 for _, s in rows)
        assert max(abs(s.std_x - sigma(t))
                   for t, summaries in rows for s in summaries) <= tol

    @pytest.mark.parametrize("d, tau", [(3, 4.0), (2, 12.0)])
    def test_pointer_overlap_is_the_gaussian_of_the_shift(self, d, tau):
        overlaps = overlap_matrix(
            self._chain(d, tau, Potential.free()).apparatus_states)
        for n, m in zip(*np.triu_indices(d, k=1)):
            want = math.exp(-((m - n) * tau) ** 2 / 8.0)
            assert overlaps[n, m] == pytest.approx(want, rel=1e-5)


class TestMeasure:
    def test_pre_transition_raises(self, chain_run):
        final, _, steps = chain_run
        # fold only the steps strictly before the crossing
        early = fold(step for step in steps if not step[1].transition)
        assert early.t_star is None
        with pytest.raises(TransitionNotReached):
            measure(final, early, seed=1)

    def test_outcome_statistics_and_mixture(self, evolved):
        final, report = evolved
        out = measure(final, report, seed=42)
        assert out.object_mixture == pytest.approx((0.36, 0.64), abs=1e-12)
        assert type(out.branch) is int and out.branch in (0, 1)
        assert out.apparatus_state.norm() == pytest.approx(1.0, abs=1e-10)

    def test_draw_is_the_first_of_its_seeded_stream(self, evolved,
                                                    monkeypatch):
        final, report = evolved
        cuts = apparatus_decomposition(final).branch_cuts
        draws = []
        real = measurement.sample_collapse

        def recording_pick(decomp, u):
            draws.append(u)
            return real(decomp, u)

        monkeypatch.setattr(measurement, "sample_collapse", recording_pick)
        for seed in (0, 1, 42, 2**32, 2**64 - 1):
            u = np.random.default_rng(seed).random()
            out = measure(final, report, seed=seed)
            assert draws.pop() == u and not draws
            assert out.branch == bisect_right(cuts, u)

    def test_pointer_matrix(self, evolved, obj, apparatus):
        final, _ = evolved
        product = premeasurement(obj, apparatus)
        pre = overlap_matrix(product.apparatus_states)
        assert np.allclose(pre, 1.0, atol=1e-10)
        post = overlap_matrix(final.apparatus_states)
        assert np.allclose(np.diag(post), 1.0, atol=1e-10)
        off = post[~np.eye(len(final), dtype=bool)]
        assert off.max() <= 1e-6

    def test_measure_leaves_composite_untouched(self, evolved):
        final, report = evolved
        before = [a.amplitudes.copy() for a in final.apparatus_states]
        for seed in range(10):
            measure(final, report, seed=seed)
        for old, new in zip(before, final.apparatus_states):
            assert np.array_equal(old, new.amplitudes)

    def test_rotated_basis_rejected(self, evolved):
        # pointer packets in the rotated basis (a1 +- a2)/sqrt 2 are
        # double-humped and fail weak interference
        final, _ = evolved
        a1, a2 = final.apparatus_states
        plus = superpose([(1 / math.sqrt(2), a1), (1 / math.sqrt(2), a2)])
        minus = superpose([(1 / math.sqrt(2), a1), (-1 / math.sqrt(2), a2)])
        c = final.coefficients
        rotated = CompositeState(
            [(c[0] + c[1]) / math.sqrt(2), (c[0] - c[1]) / math.sqrt(2)],
            (plus, minus))
        from qcollapse.errors import NotWeaklyInterfering
        with pytest.raises((NotWeaklyInterfering, ValidationError)):
            decomp = apparatus_decomposition(rotated)
            decomp.probabilities
