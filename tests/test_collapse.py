import dataclasses
import math
import pickle
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollapse import (
    CollapseEvent,
    Grid1D,
    PhysicalParams,
    apply_self_collapse,
    decompose,
    geometric_probabilities,
    inner_product,
    make_gaussian,
    packet_summary,
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


def _reference_event(decomp, u):
    """The inverse-CDF event for draw u, with a CDF rebuilt by numpy."""
    p = decomp.probabilities
    idx = min(int(np.searchsorted(np.cumsum(p), u, side="right")), len(p) - 1)
    return CollapseEvent(
        branch_index=idx,
        probability=float(abs(decomp.coefficients[idx]) ** 2),
        u=u)


@pytest.fixture
def cat_decomp(gaussian, params):
    basis = [gaussian(center=-18.0), gaussian(center=18.0)]
    cat = superpose(zip((0.6, 0.8), basis))
    return decompose(cat, basis, params=params,
                     expected_coefficients=(0.6, 0.8))


class TestDecompose:
    def test_extracts_coefficients(self, cat_decomp):
        assert np.allclose(cat_decomp.coefficients, [0.6, 0.8], atol=1e-8)

    def test_rejects_wrong_expected_coefficients(self, gaussian, params):
        basis = [gaussian(center=-18.0), gaussian(center=18.0)]
        cat = superpose(zip((0.6, 0.8), basis))
        with pytest.raises(ValidationError):
            decompose(cat, basis, params=params,
                      expected_coefficients=(0.8, 0.6))

    def test_rejects_non_unit_total(self, gaussian, params):
        basis = [gaussian(center=-18.0), gaussian(center=18.0)]
        cat = superpose(zip((0.6, 0.8), basis))
        with pytest.raises(ValidationError):
            decompose(cat, basis[:1], params=params)

    def test_rejects_nan_expected_coefficient(self, gaussian, params):
        basis = [gaussian(center=-18.0), gaussian(center=18.0)]
        cat = superpose(zip((0.6, 0.8), basis))
        with pytest.raises(ValidationError, match="deviate"):
            decompose(cat, basis, params=params,
                      expected_coefficients=(np.nan, 0.8))

    @pytest.mark.parametrize("expected", [(0.6, 0.8, 0.0), (1.0,)])
    def test_rejects_expected_coefficients_of_another_length(
            self, gaussian, params, expected):
        basis = [gaussian(center=-18.0), gaussian(center=18.0)]
        cat = superpose(zip((0.6, 0.8), basis))
        with pytest.raises(ValidationError,
                           match=f"{len(expected)} expected coefficients "
                                 "for 2 basis packets"):
            decompose(cat, basis, params=params,
                      expected_coefficients=expected)

    def test_decomposition_rejects_nan_coefficient(self, cat_decomp):
        (_, s0, m0), (_, s1, m1) = cat_decomp.branches
        with pytest.raises(ValidationError):
            SuperpositionDecomposition(
                branches=((np.nan, s0, m0), (1.0, s1, m1)))


class TestWeakInterference:
    @staticmethod
    def _direct_decomp(coeffs, basis, params):
        from qcollapse import packet_summary
        from qcollapse.collapse import SuperpositionDecomposition
        return SuperpositionDecomposition(branches=tuple(
            (c, b, packet_summary(b, params=params))
            for c, b in zip(coeffs, basis)))

    def test_overlapping_branches_rejected(self, gaussian, params):
        basis = [gaussian(center=-0.5, sigma=2.0), gaussian(center=0.5, sigma=2.0)]
        with pytest.raises(NotWeaklyInterfering):
            self._direct_decomp((1 / math.sqrt(2),) * 2, basis, params)

    def test_marginal_separation_still_rejected(self, gaussian, params):
        # separation 10 sigma passes the interval test but the residual
        # overlap 3.7e-6 still blocks collapse semantics
        basis = [gaussian(center=-5.0), gaussian(center=5.0)]
        with pytest.raises(NotWeaklyInterfering):
            self._direct_decomp((0.6, 0.8), basis, params)

    def test_co_located_orthogonal_pair_cannot_be_constructed(self, params):
        # (a1 + a2)/sqrt 2 and (a1 - a2)/sqrt 2 are orthogonal, but share
        # their center: only the support-separation condition refuses them
        _, a1, _, a2 = _separated_packets(4)
        basis = [superpose(((1.0, a1), (s, a2))) for s in (1.0, -1.0)]
        with pytest.raises(NotWeaklyInterfering, match="support-separation"):
            self._direct_decomp((0.6, 0.8), basis, params)

    def test_overlaps_are_computed_once(self, gaussian, params, monkeypatch):
        calls = []

        def counted(states):
            calls.append(len(states))
            return overlap_matrix(states)

        monkeypatch.setattr("qcollapse.collapse.overlap_matrix", counted)
        basis = [gaussian(center=-18.0), gaussian(center=18.0)]
        cat = superpose(zip((0.6, 0.8), basis))
        decomp = decompose(cat, basis, params=params)
        assert decomp.probabilities == pytest.approx([0.36, 0.64], abs=1e-8)
        assert calls == [2]

    def test_non_orthogonal_basis_caught_at_decompose(self, gaussian, params):
        basis = [gaussian(center=-0.5, sigma=2.0), gaussian(center=0.5, sigma=2.0)]
        raw = superpose(zip((1 / math.sqrt(2),) * 2, basis))
        with pytest.raises(NotWeaklyInterfering, match="branches 0,1 overlap"):
            decompose(raw, basis, params=params)


class TestGeometricProbabilities:
    def test_equal_squared_moduli(self, cat_decomp):
        p = geometric_probabilities(cat_decomp)
        assert p == pytest.approx([0.36, 0.64], abs=1e-8)
        assert float(p.sum()) == pytest.approx(1.0, abs=1e-8)

    def test_matches_inner_product_oracle(self, gaussian, params):
        c = np.array([0.3 + 0.4j, 0.5, math.sqrt(1 - 0.25 - 0.25)])
        basis = [gaussian(center=x0) for x0 in (-20.0, 0.0, 20.0)]
        cat = superpose(zip(c, basis))
        decomp = decompose(cat, basis, params=params)
        oracle = np.abs([inner_product(b, cat) for b in basis]) ** 2
        assert np.allclose(decomp.probabilities, oracle, atol=1e-6)

    def test_single_branch(self, gaussian, params):
        psi = gaussian()
        decomp = decompose(psi, [psi], params=params)
        assert decomp.probabilities == pytest.approx([1.0], abs=1e-10)

    def test_cdf_and_event_use_the_same_weight(self, params):
        """c = 0.6 on a branch of width 1.5: (0.36 * 1.5) / 1.5 rounds to
        0.36000000000000004, |c|^2 to 0.36; the CDF and the event must both
        read the one |c_n|^2."""
        basis = _separated_packets(4)[1::2]  # the packets at -16 and +16
        decomp = SuperpositionDecomposition(branches=tuple(
            (c, b, dataclasses.replace(packet_summary(b, params=params),
                                       std_x=1.5))
            for c, b in zip((0.6, 0.8), basis)))
        assert list(decomp.probabilities) == [
            abs(c) ** 2 for c in decomp.coefficients]
        assert decomp.branch_cdf[0] == sample_collapse(decomp, 0.0).probability

    @settings(deadline=None, max_examples=20)
    @given(w=st.floats(0.05, 0.95), phase=st.floats(0.0, 2.0 * math.pi))
    def test_born_rule_property(self, w, phase):
        grid = Grid1D(-40.0, 40.0, 512)
        params = PhysicalParams()
        c = (math.sqrt(w) * complex(math.cos(phase), math.sin(phase)),
             math.sqrt(1.0 - w))
        basis = [make_gaussian(grid, x0, 1.0, 0.0, params)
                 for x0 in (-18.0, 18.0)]
        decomp = decompose(superpose(zip(c, basis)), basis, params=params)
        assert np.allclose(decomp.probabilities, [w, 1.0 - w], atol=1e-7)


# Every stream below is np.random.default_rng(seed) with a fixed seed named
# in the test; an ensemble draws its events in turn from one stream.
class TestSampling:
    def test_determinism(self, cat_decomp):
        events = [sample_collapse(cat_decomp,
                                  np.random.default_rng(42).random())
                  for _ in range(5)]
        assert all(e == events[0] for e in events)
        assert events[0].u == np.random.default_rng(42).random()
        assert events[0].probability == pytest.approx(
            0.36 if events[0].branch_index == 0 else 0.64, abs=1e-8)

    def test_generator_identity_documented(self):
        assert RNG_ALGORITHM == "numpy.random.PCG64"

    def test_matches_inverse_cdf_oracle(self, cat_decomp):
        for u in np.random.default_rng(0).random(50).tolist():
            expected = 0 if u < 0.36 else 1
            assert sample_collapse(cat_decomp, u).branch_index == expected

    def test_certain_branch_always_chosen(self, gaussian, params):
        psi = gaussian()
        decomp = decompose(psi, [psi], params=params)
        for u in np.random.default_rng(0).random(20).tolist():
            assert sample_collapse(decomp, u).branch_index == 0

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
            assert sample_collapse(decomp, u) == _reference_event(decomp, u)

    def test_cdf_boundaries_match_searchsorted(self):
        c = np.sqrt([0.2, 0.3, 0.5])
        basis = _separated_packets(3)
        decomp = decompose(superpose(zip(c, basis)), basis)
        cdf = decomp.branch_cdf
        draws = [0.0, cdf[0], np.nextafter(cdf[0], 0.0), cdf[1],
                 cdf[-1], np.nextafter(cdf[-1], 2.0),
                 np.nextafter(1.0, 0.0)]
        for u in map(float, draws):
            assert sample_collapse(decomp, u) == \
                _reference_event(decomp, u)

    @pytest.mark.parametrize("u, branch", [
        (0.0, 0), (np.nextafter(0.25, 0.0), 0), (0.25, 1), (0.5, 2),
        (1.0 - 2.0**-40, 2), (np.nextafter(1.0 - 2.0**-40, 1.0), 2),
        (np.nextafter(1.0, 0.0), 2)])
    def test_picks_at_the_cdf_bounds_match_searchsorted(self, u, branch):
        """A u equal to an interior CDF entry opens the next branch, and a u
        at or past a last entry below 1 picks branch d - 1."""
        cdf = (0.25, 0.5, 1.0 - 2.0**-40)
        table = SimpleNamespace(branch_cdf=cdf,
                                probabilities=(0.25, 0.25, 0.5))
        u = float(u)
        assert branch == min(int(np.searchsorted(cdf, u, side="right")), 2)
        assert sample_collapse(table, u) == CollapseEvent(
            branch, table.probabilities[branch], u)

    def test_cdf_and_probabilities_cached_as_tuples(self, cat_decomp,
                                                    monkeypatch):
        cdf, probs = cat_decomp.branch_cdf, cat_decomp.probabilities
        assert isinstance(cdf, tuple) and isinstance(probs, tuple)
        assert cdf == pytest.approx([0.36, 1.0], abs=1e-8)
        assert probs == pytest.approx((0.36, 0.64), abs=1e-8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cat_decomp.branch_cdf = (1.0, 1.0)

        def fail(*args, **kwargs):
            raise AssertionError("branch table rebuilt")

        draws = np.random.default_rng(0).random(10).tolist()
        monkeypatch.setattr(np, "cumsum", fail)
        monkeypatch.setattr(SuperpositionDecomposition, "coefficients",
                            property(fail))
        for u in draws:
            sample_collapse(cat_decomp, u)
        assert cat_decomp.branch_cdf is cdf
        assert cat_decomp.probabilities is probs

    def test_event_is_an_immutable_named_tuple(self, cat_decomp):
        u = np.random.default_rng(3).random()
        e = sample_collapse(cat_decomp, u)
        assert CollapseEvent._fields == ("branch_index", "probability", "u")
        assert tuple(e) == (e.branch_index, e.probability, e.u)
        with pytest.raises(AttributeError):
            e.branch_index = 1 - e.branch_index
        assert CollapseEvent(branch_index=1, probability=0.64, u=0.5) == \
            CollapseEvent(1, 0.64, 0.5)
        assert e._replace(branch_index=0).branch_index == 0
        assert e == sample_collapse(cat_decomp, u)
        # Equality alone would also pass a plain tuple of the same fields.
        assert type(e) is CollapseEvent and e.u == u
        assert list(e._asdict()) == list(CollapseEvent._fields)
        assert type(CollapseEvent(**e._asdict())) is CollapseEvent
        assert type(e._replace(u=0.5)) is CollapseEvent
        copy = pickle.loads(pickle.dumps(e))
        assert type(copy) is CollapseEvent and copy == e

    def test_empirical_frequencies(self, cat_decomp):
        n = 2000
        hits = sum(sample_collapse(cat_decomp, u).branch_index
                   for u in np.random.default_rng(0).random(n).tolist())
        # 3 sigma binomial band around p = 0.64
        band = 3.0 * math.sqrt(0.64 * 0.36 / n)
        assert abs(hits / n - 0.64) <= band


class TestApplySelfCollapse:
    def test_returns_normalized_branch(self, cat_decomp, gaussian):
        e = sample_collapse(cat_decomp, np.random.default_rng(42).random())
        out = apply_self_collapse(cat_decomp, e)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        target = gaussian(center=-18.0 if e.branch_index == 0 else 18.0)
        assert l2_distance(out, target) <= 1e-10

    def test_index_out_of_range(self, cat_decomp):
        bad = CollapseEvent(branch_index=5, probability=0.0, u=0.0)
        with pytest.raises(IndexOutOfRange):
            apply_self_collapse(cat_decomp, bad)
        assert isinstance(IndexOutOfRange("x"), IndexError)

    def test_decomposition_untouched(self, cat_decomp):
        before = [s.amplitudes.copy() for s in cat_decomp.states]
        p_before = np.array(cat_decomp.probabilities)
        e = sample_collapse(cat_decomp, np.random.default_rng(3).random())
        apply_self_collapse(cat_decomp, e)
        for old, new in zip(before, cat_decomp.states):
            assert np.array_equal(old, new.amplitudes)
        assert np.array_equal(p_before, cat_decomp.probabilities)
