import dataclasses
import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollapse import (
    Grid1D,
    PhysicalParams,
    apply_self_collapse,
    decompose,
    geometric_probabilities,
    inner_product,
    make_gaussian,
    sample_collapse,
    superpose,
)
from qcollapse.collapse import RNG_ALGORITHM, SuperpositionDecomposition
from qcollapse.errors import (
    IndexOutOfRange,
    NotWeaklyInterfering,
    ValidationError,
)
from qcollapse.grid import overlap_matrix

from conftest import l2_distance


@lru_cache(maxsize=None)
def _separated_packets(d):
    grid = Grid1D(-48.0, 48.0, 512)
    return tuple(make_gaussian(grid, x0, 1.0, 0.0, PhysicalParams())
                 for x0 in (-32.0, -16.0, 0.0, 16.0, 32.0)[:d])


def _reference_branch(decomp, u):
    """The inverse-CDF branch for draw u, with a CDF rebuilt by numpy."""
    p = decomp.probabilities
    return min(int(np.searchsorted(np.cumsum(p), u, side="right")), len(p) - 1)


@pytest.fixture
def cat_decomp(gaussian):
    basis = [gaussian(center=-18.0), gaussian(center=18.0)]
    cat = superpose(zip((0.6, 0.8), basis))
    return decompose(cat, basis,
                     expected_coefficients=(0.6, 0.8))


class TestDecompose:
    def test_extracts_coefficients(self, cat_decomp):
        assert np.allclose(cat_decomp.coefficients, [0.6, 0.8], atol=1e-8)

    def test_rejects_wrong_expected_coefficients(self, gaussian):
        basis = [gaussian(center=-18.0), gaussian(center=18.0)]
        cat = superpose(zip((0.6, 0.8), basis))
        with pytest.raises(ValidationError):
            decompose(cat, basis,
                      expected_coefficients=(0.8, 0.6))

    def test_rejects_non_unit_total(self, gaussian):
        basis = [gaussian(center=-18.0), gaussian(center=18.0)]
        cat = superpose(zip((0.6, 0.8), basis))
        with pytest.raises(ValidationError):
            decompose(cat, basis[:1])

    def test_rejects_nan_expected_coefficient(self, gaussian):
        basis = [gaussian(center=-18.0), gaussian(center=18.0)]
        cat = superpose(zip((0.6, 0.8), basis))
        with pytest.raises(ValidationError, match="deviate"):
            decompose(cat, basis,
                      expected_coefficients=(np.nan, 0.8))

    @pytest.mark.parametrize("expected", [(0.6, 0.8, 0.0), (1.0,)])
    def test_rejects_expected_coefficients_of_another_length(
            self, gaussian, expected):
        basis = [gaussian(center=-18.0), gaussian(center=18.0)]
        cat = superpose(zip((0.6, 0.8), basis))
        with pytest.raises(ValidationError,
                           match=f"{len(expected)} expected coefficients "
                                 "for 2 basis packets"):
            decompose(cat, basis,
                      expected_coefficients=expected)

    def test_decomposition_rejects_nan_coefficient(self, cat_decomp):
        with pytest.raises(ValidationError):
            SuperpositionDecomposition((np.nan, 1.0), cat_decomp.states)

    @pytest.mark.parametrize("n_coefficients, n_states", [(1, 2), (2, 1)])
    def test_decomposition_needs_one_packet_per_coefficient(
            self, cat_decomp, n_coefficients, n_states):
        with pytest.raises(ValidationError, match=(
                f"^{n_coefficients} coefficients for {n_states} packets$")):
            SuperpositionDecomposition(cat_decomp.coefficients[:n_coefficients],
                                       cat_decomp.states[:n_states])


class TestWeakInterference:
    def test_overlapping_branches_rejected(self, gaussian):
        basis = [gaussian(center=-0.5, sigma=2.0), gaussian(center=0.5, sigma=2.0)]
        with pytest.raises(NotWeaklyInterfering):
            SuperpositionDecomposition((1 / math.sqrt(2),) * 2, basis)

    def test_marginal_separation_still_rejected(self, gaussian):
        # separation 10 sigma passes the interval test but the residual
        # overlap 3.7e-6 still blocks collapse semantics
        basis = [gaussian(center=-5.0), gaussian(center=5.0)]
        with pytest.raises(NotWeaklyInterfering):
            SuperpositionDecomposition((0.6, 0.8), basis)

    def test_co_located_orthogonal_pair_cannot_be_constructed(self):
        # (a1 + a2)/sqrt 2 and (a1 - a2)/sqrt 2 are orthogonal, but share
        # their center: only the support-separation condition refuses them
        _, a1, _, a2 = _separated_packets(4)
        basis = [superpose(((1.0, a1), (s, a2))) for s in (1.0, -1.0)]
        with pytest.raises(NotWeaklyInterfering, match="support-separation"):
            SuperpositionDecomposition((0.6, 0.8), basis)

    def test_overlaps_are_computed_once(self, gaussian, monkeypatch):
        calls = []

        def counted(states):
            calls.append(len(states))
            return overlap_matrix(states)

        monkeypatch.setattr("qcollapse.collapse.overlap_matrix", counted)
        basis = [gaussian(center=-18.0), gaussian(center=18.0)]
        cat = superpose(zip((0.6, 0.8), basis))
        decomp = decompose(cat, basis)
        assert decomp.probabilities == pytest.approx([0.36, 0.64], abs=1e-8)
        assert calls == [2]

    def test_non_orthogonal_basis_caught_at_decompose(self, gaussian):
        basis = [gaussian(center=-0.5, sigma=2.0), gaussian(center=0.5, sigma=2.0)]
        raw = superpose(zip((1 / math.sqrt(2),) * 2, basis))
        with pytest.raises(NotWeaklyInterfering, match="branches 0,1 overlap"):
            decompose(raw, basis)


class TestGeometricProbabilities:
    def test_equal_squared_moduli(self, cat_decomp):
        p = geometric_probabilities(cat_decomp)
        assert p == pytest.approx([0.36, 0.64], abs=1e-8)
        assert float(p.sum()) == pytest.approx(1.0, abs=1e-8)

    def test_matches_inner_product_oracle(self, gaussian):
        c = np.array([0.3 + 0.4j, 0.5, math.sqrt(1 - 0.25 - 0.25)])
        basis = [gaussian(center=x0) for x0 in (-20.0, 0.0, 20.0)]
        cat = superpose(zip(c, basis))
        decomp = decompose(cat, basis)
        oracle = np.abs([inner_product(b, cat) for b in basis]) ** 2
        assert np.allclose(decomp.probabilities, oracle, atol=1e-6)

    def test_single_branch(self, gaussian):
        psi = gaussian()
        decomp = decompose(psi, [psi])
        assert decomp.probabilities == pytest.approx([1.0], abs=1e-10)

    def test_cdf_and_event_use_the_same_weight(self):
        """c = 0.6: a reduced width (0.36 * 1.5) / 1.5 would round to
        0.36000000000000004, |c|^2 to 0.36; the CDF and the weight of the
        picked branch must both read the one |c_n|^2."""
        basis = _separated_packets(4)[1::2]  # the packets at -16 and +16
        decomp = SuperpositionDecomposition((0.6, 0.8), basis)
        assert list(decomp.probabilities) == [
            abs(c) ** 2 for c in decomp.coefficients]
        assert sample_collapse(decomp, 0.0) == 0
        assert decomp.branch_cuts == (decomp.probabilities[0],)

    @settings(deadline=None, max_examples=20)
    @given(w=st.floats(0.05, 0.95), phase=st.floats(0.0, 2.0 * math.pi))
    def test_born_rule_property(self, w, phase):
        grid = Grid1D(-40.0, 40.0, 512)
        params = PhysicalParams()
        c = (math.sqrt(w) * complex(math.cos(phase), math.sin(phase)),
             math.sqrt(1.0 - w))
        basis = [make_gaussian(grid, x0, 1.0, 0.0, params)
                 for x0 in (-18.0, 18.0)]
        decomp = decompose(superpose(zip(c, basis)), basis)
        assert np.allclose(decomp.probabilities, [w, 1.0 - w], atol=1e-7)


# Every stream below is np.random.default_rng(seed) with a fixed seed named
# in the test; an ensemble draws its events in turn from one stream.
class TestSampling:
    def test_determinism(self, cat_decomp):
        picks = [sample_collapse(cat_decomp,
                                 np.random.default_rng(42).random())
                 for _ in range(5)]
        u = np.random.default_rng(42).random()
        assert picks == [0 if u < 0.36 else 1] * 5

    def test_generator_identity_documented(self):
        assert RNG_ALGORITHM == "numpy.random.PCG64"

    def test_matches_inverse_cdf_oracle(self, cat_decomp):
        for u in np.random.default_rng(0).random(50).tolist():
            expected = 0 if u < 0.36 else 1
            assert sample_collapse(cat_decomp, u) == expected

    def test_certain_branch_always_chosen(self, gaussian):
        """d = 1: the cut table is empty and every u picks branch 0, also
        the lowest and the highest double a draw can give."""
        psi = gaussian()
        decomp = decompose(psi, [psi])
        assert decomp.branch_cuts == ()
        draws = np.random.default_rng(0).random(20).tolist()
        for u in draws + [0.0, float(np.nextafter(1.0, 0.0))]:
            pick = sample_collapse(decomp, u)
            assert type(pick) is int and pick == 0

    @settings(deadline=None, max_examples=30)
    @given(raw=st.lists(st.floats(0.02, 1.0), min_size=2, max_size=5),
           phases=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=5,
                           max_size=5),
           seed=st.integers(0, 2**64 - 1),
           n_events=st.integers(1, 25))
    def test_matches_reference_sampler(self, raw, phases, seed, n_events):
        w = np.array(raw) / sum(raw)
        c = np.sqrt(w) * np.exp(1j * np.array(phases[:len(w)]))
        basis = _separated_packets(len(w))
        decomp = decompose(superpose(zip(c, basis)), basis)
        for u in np.random.default_rng(seed).random(n_events).tolist():
            assert sample_collapse(decomp, u) == _reference_branch(decomp, u)

    def test_cdf_boundaries_match_searchsorted(self):
        """The cuts are the first d - 1 entries of numpy's cumulative sum,
        bit for bit, and a u on either side of each picks as searchsorted
        does in the full CDF."""
        c = np.sqrt([0.2, 0.3, 0.5])
        basis = _separated_packets(3)
        decomp = decompose(superpose(zip(c, basis)), basis)
        cdf = np.cumsum(decomp.probabilities).tolist()
        cuts = decomp.branch_cuts
        assert cuts == tuple(cdf[:-1])
        draws = [0.0, cuts[0], np.nextafter(cuts[0], 0.0), cuts[1],
                 np.nextafter(cuts[1], 0.0), cdf[-1],
                 np.nextafter(cdf[-1], 2.0), np.nextafter(1.0, 0.0)]
        for u in map(float, draws):
            assert sample_collapse(decomp, u) == \
                _reference_branch(decomp, u)

    @pytest.mark.parametrize("u, branch", [
        (0.0, 0), (np.nextafter(0.25, 0.0), 0), (0.25, 1), (0.5, 2),
        (1.0 - 2.0**-40, 2), (np.nextafter(1.0 - 2.0**-40, 1.0), 2),
        (np.nextafter(1.0, 0.0), 2)])
    def test_picks_at_the_cdf_bounds_match_searchsorted(self, u, branch):
        """A u equal to a cut opens the next branch, and a u at or past the
        last cut picks branch d - 1, also past a last CDF entry below 1."""
        cdf = (0.25, 0.5, 1.0 - 2.0**-40)
        u = float(u)
        assert branch == min(int(np.searchsorted(cdf, u, side="right")), 2)
        pick = sample_collapse(SimpleNamespace(branch_cuts=cdf[:-1]), u)
        assert type(pick) is int and pick == branch

    def test_cdf_and_probabilities_cached_as_tuples(self, cat_decomp,
                                                    monkeypatch):
        cuts, probs = cat_decomp.branch_cuts, cat_decomp.probabilities
        assert isinstance(cuts, tuple) and isinstance(probs, tuple)
        assert cuts == pytest.approx([0.36], abs=1e-8)
        assert probs == pytest.approx((0.36, 0.64), abs=1e-8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cat_decomp.branch_cuts = (1.0,)

        def fail(*args, **kwargs):
            raise AssertionError("branch table rebuilt")

        draws = np.random.default_rng(0).random(10).tolist()
        monkeypatch.setattr(np, "cumsum", fail)
        # a data descriptor on the class shadows the instance's column
        monkeypatch.setattr(SuperpositionDecomposition, "coefficients",
                            property(fail), raising=False)
        for u in draws:
            sample_collapse(cat_decomp, u)
        assert cat_decomp.branch_cuts is cuts
        assert cat_decomp.probabilities is probs

    def test_empirical_frequencies(self, cat_decomp):
        n = 2000
        hits = sum(sample_collapse(cat_decomp, u)
                   for u in np.random.default_rng(0).random(n).tolist())
        # 3 sigma binomial band around p = 0.64
        band = 3.0 * math.sqrt(0.64 * 0.36 / n)
        assert abs(hits / n - 0.64) <= band


class TestApplySelfCollapse:
    def test_returns_normalized_branch(self, cat_decomp, gaussian):
        branch = sample_collapse(cat_decomp,
                                 np.random.default_rng(42).random())
        out = apply_self_collapse(cat_decomp, branch)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        target = gaussian(center=-18.0 if branch == 0 else 18.0)
        assert l2_distance(out, target) <= 1e-10

    def test_index_out_of_range(self, cat_decomp):
        for bad in (5, 2, -1):
            with pytest.raises(IndexOutOfRange):
                apply_self_collapse(cat_decomp, bad)
        assert isinstance(IndexOutOfRange("x"), IndexError)

    def test_decomposition_untouched(self, cat_decomp):
        before = [s.amplitudes.copy() for s in cat_decomp.states]
        p_before = np.array(cat_decomp.probabilities)
        branch = sample_collapse(cat_decomp, np.random.default_rng(3).random())
        apply_self_collapse(cat_decomp, branch)
        for old, new in zip(before, cat_decomp.states):
            assert np.array_equal(old, new.amplitudes)
        assert np.array_equal(p_before, cat_decomp.probabilities)
