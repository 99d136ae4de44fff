import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollapse import (
    CouplingConfig,
    EvolutionConfig,
    GateConfig,
    Grid1D,
    PhysicalParams,
    Potential,
    WaveFunction,
    inner_product,
    make_gaussian,
    superpose,
)
from qcollapse.errors import (
    BoundaryClipping,
    GridMismatch,
    GridTooCoarse,
    ParseError,
    ValidationError,
)
from qcollapse.grid import check_unit_weights, write_snapshot
from qcollapse.measurement import CompositeState
from qcollapse.scenarios import PacketSpec, parse_config

from oracles import gaussian_moment_oracle, gaussian_overlap, read_snapshot


class TestGrid1D:
    def test_points_and_spacing(self):
        g = Grid1D(-8.0, 8.0, 64)
        assert g.dx == pytest.approx(0.25)
        assert g.x[0] == -8.0
        assert g.x[-1] == pytest.approx(8.0 - g.dx)

    @pytest.mark.parametrize("n", [8, 15, 100, 1000])
    def test_rejects_bad_point_counts(self, n):
        with pytest.raises(ValidationError):
            Grid1D(-8.0, 8.0, n)

    def test_rejects_empty_domain(self):
        with pytest.raises(ValidationError):
            Grid1D(1.0, 1.0, 64)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("factory, kwargs", [
    (Grid1D, {"x_max": INF}),
    (Grid1D, {"x_min": -INF}),
    (Grid1D, {"x_min": NAN}),
    (PhysicalParams, {"mass": NAN}),
    (PhysicalParams, {"mass": INF}),
    (PhysicalParams, {"hbar": NAN}),
    (EvolutionConfig, {"dt": NAN}),
    (EvolutionConfig, {"dt": INF}),
    (Potential.harmonic, {"omega": NAN}),
    (Potential.harmonic, {"omega": INF}),
    (Potential.harmonic, {"center": NAN}),
    (Potential.double_well, {"well_separation": NAN}),
    (Potential.double_well, {"well_separation": INF}),
    (Potential.double_well, {"barrier_height": INF}),
    (CouplingConfig, {"shift_velocity": NAN}),
    (CouplingConfig, {"shift_velocity": INF}),
    (CouplingConfig, {"tau": NAN}),
    (CouplingConfig, {"tau": INF}),
    (GateConfig, {"eta": NAN}),
    (GateConfig, {"eta": INF}),
    (GateConfig, {"k": NAN}),
    (GateConfig, {"k": INF}),
    (PacketSpec, {"sigma": NAN}),
    (PacketSpec, {"sigma": INF}),
    (PacketSpec, {"center": NAN}),
    (PacketSpec, {"momentum": INF}),
    (PacketSpec, {"separation": NAN}),
], ids=lambda v: (v.__qualname__ if callable(v)
                  else ",".join(f"{k}={x}" for k, x in v.items())))
def test_constructors_reject_non_finite_values(factory, kwargs):
    # A NaN fails every comparison, so a check written as `x <= 0` lets it
    # through; an infinite bound or step passes one written as `x > 0`.
    with pytest.raises(ValidationError):
        factory(**kwargs)


class TestWaveFunction:
    def test_rejects_nonfinite(self, grid):
        amps = np.ones(grid.n_points, dtype=complex)
        amps[3] = np.nan
        with pytest.raises(ValidationError):
            WaveFunction(grid, amps)

    @pytest.mark.parametrize("shape", [(1023,), (1025,), (2, 512)])
    def test_rejects_amplitudes_that_miss_the_grid(self, grid, shape):
        with pytest.raises(ValidationError, match=(
                rf"^amplitudes shape {re.escape(str(shape))} does not match "
                r"grid \(1024,\)$")):
            WaveFunction(grid, np.ones(shape, dtype=complex))

    def test_amplitudes_are_frozen(self, gaussian):
        psi = gaussian()
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0

    def test_normalize(self, grid):
        psi = WaveFunction(grid, np.ones(grid.n_points)).normalize()
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_rejects_non_finite_anywhere(self, grid, bad, where, part):
        amps = np.ones(grid.n_points, dtype=complex)
        i = {"first": 0, "middle": grid.n_points // 2, "last": -1}[where]
        amps[i] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
        amps.flags.writeable = False  # the uncopied path checks it too
        with pytest.raises(ValidationError):
            WaveFunction(grid, amps)

    def test_accepts_huge_finite_amplitudes(self, grid):
        """sum |a|^2 overflows to inf here, yet every entry is finite."""
        amps = np.full(grid.n_points, 1e200 + 1e200j)
        assert np.array_equal(WaveFunction(grid, amps).amplitudes, amps)

    def test_never_aliases_a_writeable_caller_array(self, grid):
        owned = np.ones(grid.n_points, dtype=complex)
        view = np.ones(2 * grid.n_points, dtype=complex)[::2]
        frozen_view = np.ones(grid.n_points, dtype=complex)[:]
        frozen_view.flags.writeable = False
        for amps in (owned, view, frozen_view, np.ones(grid.n_points)):
            psi = WaveFunction(grid, amps)
            assert not np.shares_memory(psi.amplitudes, amps)
            assert not psi.amplitudes.flags.writeable

    def test_takes_a_read_only_owned_buffer_uncopied(self, grid):
        amps = np.ones(grid.n_points, dtype=complex)
        amps.flags.writeable = False
        assert WaveFunction(grid, amps).amplitudes is amps

    def test_spectrum_is_cached_and_read_only(self, gaussian):
        psi = gaussian(center=1.0, momentum=0.5)
        phi = psi.spectrum
        assert np.array_equal(phi, np.fft.fft(psi.amplitudes))
        assert psi.spectrum is phi
        with pytest.raises(ValueError):
            phi[0] = 1.0


class TestMakeGaussian:
    def test_centered_packet_has_symmetric_moments(self, gaussian, params):
        psi = gaussian(center=0.0, sigma=1.0)
        from qcollapse import packet_summary
        s = packet_summary(psi, params=params)
        assert s.exp_x == pytest.approx(0.0, abs=1e-10)
        assert s.exp_p == pytest.approx(0.0, abs=1e-10)

    def test_uncertainty_product_matches_quadrature_oracle(self, grid, params):
        from qcollapse import packet_summary
        psi = make_gaussian(grid, 2.0, 1.0, 0.0, params)
        _, sx, _, sp = gaussian_moment_oracle(2.0, 1.0, 0.0, grid.x_min,
                                              grid.x_max, grid.n_points)
        s = packet_summary(psi, params=params)
        assert s.uncertainty_product == pytest.approx(sx * sp, rel=1e-6)
        assert s.uncertainty_product == pytest.approx(0.5, rel=1e-6)

    def test_requested_moments(self, grid, params):
        from qcollapse import packet_summary
        psi = make_gaussian(grid, -3.0, 2.0, 0.4, params)
        s = packet_summary(psi, params=params)
        assert s.exp_x == pytest.approx(-3.0, rel=1e-6)
        assert s.std_x == pytest.approx(2.0, rel=1e-6)
        assert s.exp_p == pytest.approx(0.4, rel=1e-6)
        assert s.std_p == pytest.approx(0.25, rel=1e-6)

    def test_too_coarse(self, grid, params):
        with pytest.raises(GridTooCoarse, match=(
                r"^packet sigma=0\.15625 is below 4\*dx=0\.3125; the grid "
                r"cannot resolve the packet$")):
            make_gaussian(grid, 0.0, 2.0 * grid.dx, 0.0, params)

    def test_boundary_clipping(self, grid, params):
        with pytest.raises(BoundaryClipping):
            make_gaussian(grid, 39.0, 1.0, 0.0, params)

    def test_a_packet_wholly_off_the_grid_is_clipped(self, grid, params):
        """Every amplitude of a packet at 500 underflows to zero."""
        with pytest.raises(BoundaryClipping,
                           match="^no amplitude is left on the grid$"):
            make_gaussian(grid, 500.0, 1.0, 0.0, params)

    def test_nyquist_guard(self, grid, params):
        """A momentum past the headroom is unresolvable, a config error."""
        with pytest.raises(GridTooCoarse, match="exceeds Nyquist headroom"):
            make_gaussian(grid, 0.0, 1.0, 100.0, params)
        assert issubclass(GridTooCoarse, ValidationError)


class TestInnerProduct:
    def test_self_inner_product_is_one(self, gaussian):
        psi = gaussian(center=1.0)
        assert inner_product(psi, psi) == pytest.approx(1.0 + 0.0j, abs=1e-10)

    def test_distant_packets_orthogonal(self, gaussian):
        a, b = gaussian(center=-20.0), gaussian(center=20.0)
        # analytic overlap exp(-d^2 / 8 sigma^2) at d=40 is ~1e-87
        assert gaussian_overlap(40.0, 1.0) < 1e-80
        assert abs(inner_product(a, b)) < 1e-12

    def test_conjugate_symmetry(self, gaussian):
        a, b = gaussian(center=-1.0, momentum=0.3), gaussian(center=2.0)
        lhs = inner_product(a, b)
        rhs = np.conj(inner_product(b, a))
        assert abs(lhs - rhs) < 1e-14

    def test_grid_mismatch(self, gaussian, params):
        other = make_gaussian(Grid1D(-20.0, 20.0, 512), 0.0, 1.0, 0.0, params)
        with pytest.raises(GridMismatch):
            inner_product(gaussian(), other)

    @settings(deadline=None, max_examples=30)
    @given(c1=st.complex_numbers(max_magnitude=3, allow_nan=False,
                                 allow_infinity=False),
           c2=st.complex_numbers(max_magnitude=3, allow_nan=False,
                                 allow_infinity=False))
    def test_linearity_and_antilinearity(self, c1, c2):
        grid = Grid1D(-20.0, 20.0, 256)
        params = PhysicalParams()
        a = make_gaussian(grid, -2.0, 1.5, 0.0, params)
        b = make_gaussian(grid, 1.0, 1.0, 0.2, params)
        c = make_gaussian(grid, 3.0, 2.0, 0.0, params)
        mixed = WaveFunction(grid, c1 * b.amplitudes + c2 * c.amplitudes)
        lin = inner_product(a, mixed)
        expect = c1 * inner_product(a, b) + c2 * inner_product(a, c)
        assert lin == pytest.approx(expect, abs=1e-10)
        anti = inner_product(mixed, a)
        expect = (np.conj(c1) * inner_product(b, a)
                  + np.conj(c2) * inner_product(c, a))
        assert anti == pytest.approx(expect, abs=1e-10)


class TestCheckUnitWeights:
    def test_accepts_weights_within_tol(self):
        check_unit_weights([0.6j, 0.8 + 1e-11], 1e-10, "w")

    @pytest.mark.parametrize("coefficients", [
        [0.6, 0.8 + 1e-10], [np.nan, 1.0], [np.inf], [2.0], []])
    def test_rejects_with_the_callers_stem(self, coefficients):
        with pytest.raises(ValidationError, match=r"^w\^2 = .* beyond 1e-10$"):
            check_unit_weights(coefficients, 1e-10, "w^2")


class TestSuperpose:
    def test_single_branch_identity(self, gaussian):
        psi = gaussian(center=1.0)
        out = superpose([(1.0, psi)])
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-14)

    def test_orthonormal_expansion(self, gaussian):
        p1, p2 = gaussian(center=-18.0), gaussian(center=18.0)
        cat = superpose([(0.6, p1), (0.8, p2)])
        assert inner_product(p1, cat) == pytest.approx(0.6, abs=1e-8)
        assert inner_product(p2, cat) == pytest.approx(0.8, abs=1e-8)
        assert cat.norm() == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_renormalization_is_trivial(self, gaussian, grid):
        p1, p2 = gaussian(center=-18.0), gaussian(center=18.0)
        raw = WaveFunction(grid, (0.6 * p1.amplitudes + 0.8 * p2.amplitudes))
        assert raw.norm() == pytest.approx(1.0, abs=1e-8)

    def test_branches_on_different_grids_are_refused(self, gaussian, params):
        other = make_gaussian(Grid1D(-20.0, 20.0, 512), 0.0, 1.0, 0.0, params)
        with pytest.raises(GridMismatch, match=(
                "^superposition branches on different grids$")):
            superpose([(0.6, gaussian()), (0.8, other)])

    def test_branches_that_cancel_are_refused(self, gaussian):
        psi = gaussian()
        with pytest.raises(ValidationError,
                           match="^cannot normalize the zero state$"):
            superpose([(1.0, psi), (-1.0, psi)])

    def test_overlapping_branches_renormalize(self, gaussian, grid):
        psi = gaussian()
        c = 1.0 / np.sqrt(2.0)
        # direct norm oracle: |c psi + c psi| = 2c, not 1
        raw = WaveFunction(grid, 2.0 * c * psi.amplitudes)
        assert raw.norm() == pytest.approx(np.sqrt(2.0), abs=1e-10)
        out = superpose([(c, psi), (c, psi)])
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scenario", ["cat_gate", "collapse_sample",
                                          "measurement_run", "born_ensemble"])
    def test_empty(self, scenario):
        # no run superposes nothing: every scenario that superposes refuses
        # empty coefficients before it builds a packet
        with pytest.raises(ParseError, match="non-empty list"):
            parse_config(f"scenario: {scenario}\ncoefficients: []\nseed: 1\n")
        with pytest.raises(ValidationError, match="1-D vector"):
            CompositeState(np.array([]), ())

    @settings(deadline=None, max_examples=30)
    @given(re1=st.floats(-1, 1), im1=st.floats(-1, 1),
           re2=st.floats(-1, 1), im2=st.floats(-1, 1))
    def test_roundtrip_recovers_unit_weight(self, re1, im1, re2, im2):
        c = np.array([complex(re1, im1), complex(re2, im2)])
        mag = np.linalg.norm(c)
        if mag < 1e-3:
            return
        c = c / mag
        grid = Grid1D(-40.0, 40.0, 512)
        params = PhysicalParams()
        basis = [make_gaussian(grid, x0, 1.0, 0.0, params)
                 for x0 in (-18.0, 18.0)]
        cat = superpose(zip(c, basis))
        recovered = np.array([inner_product(b, cat) for b in basis])
        assert np.sum(np.abs(recovered) ** 2) == pytest.approx(1.0, abs=1e-8)


class TestSnapshot:
    def test_roundtrip_exact(self, gaussian, tmp_path):
        psi = gaussian(center=1.5, momentum=0.3)
        path = tmp_path / "state.csv"
        write_snapshot(psi, path)
        assert path.read_text().splitlines()[0] == "x,re,im"
        back = read_snapshot(path)
        assert back.grid == psi.grid
        assert np.array_equal(back.amplitudes, psi.amplitudes)

    def test_roundtrip_keeps_grid_with_unprintable_spacing(self, params,
                                                          tmp_path):
        # x_max - x_min is not recoverable from the printed x column here.
        grid = Grid1D(-40.1, 120.3, 1024)
        psi = make_gaussian(grid, 20.0, 2.0, 0.0, params)
        path = tmp_path / "state.csv"
        write_snapshot(psi, path)
        back = read_snapshot(path)
        assert back.grid == grid
        assert inner_product(back, psi) == pytest.approx(1.0, abs=1e-12)

    def test_missing_grid_line_rejected(self, gaussian, tmp_path):
        path = tmp_path / "state.csv"
        write_snapshot(gaussian(), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + "".join(lines[2:]))
        with pytest.raises(ValueError, match="not a grid line"):
            read_snapshot(path)
