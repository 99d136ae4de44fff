"""Geometric probabilities and stochastic self-collapse.

Collapse semantics only apply to superpositions of weakly interfering
packets.  A branch's geometric probability, its reduced width |c_n|^2 std_n
over its full width std_n, is its Born weight |c_n|^2, the one probability
formula here.  Sampling picks each event's branch from one double of a
seeded PCG64 stream (numpy's default_rng), so the seed fixes every event.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import (
    PacketSummary,
    packet_summary,
    weak_interference,
)
from .errors import (
    IndexOutOfRange,
    NotWeaklyInterfering,
    ValidationError,
)
from .grid import (PhysicalParams, WaveFunction, check_unit_weights,
                   inner_product, overlap_matrix)

RNG_ALGORITHM = "numpy.random.PCG64"

COEFF_NORM_TOL = 1e-8
COEFF_EXTRACTION_TOL = 1e-6


class CollapseEvent(NamedTuple):
    """Realized branch, Born weight and draw; the posterior is one-hot there."""
    branch_index: int
    probability: float
    u: float  # the uniform draw that picked the branch


# Skips NamedTuple's generated __new__, a Python frame per collapse event.
_new_tuple = tuple.__new__


@dataclass(frozen=True, eq=False)
class SuperpositionDecomposition:
    """Branches (c_n, state_n, summary_n) of weakly interfering packets.

    Construction raises NotWeaklyInterfering for the first pair overlapping
    above `overlap_limit(d)`, then for a pair that is not support-separated
    (`weak_interference`), before it checks that sum |c_n|^2 = 1."""

    branches: Tuple[Tuple[complex, WaveFunction, PacketSummary], ...]

    def __post_init__(self):
        branches = tuple((complex(c), s, m) for c, s, m in self.branches)
        object.__setattr__(self, "branches", branches)
        _check_overlaps(self.states)
        if len(self) > 1 and not np.all(weak_interference(self.summaries)[
                np.triu_indices(len(self), k=1)]):
            raise NotWeaklyInterfering(
                "some branch pair fails the support-separation condition")
        check_unit_weights(self.coefficients, COEFF_NORM_TOL, "sum |c_n|^2")

    def __len__(self) -> int:
        return len(self.branches)

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([c for c, _, _ in self.branches])

    @property
    def states(self) -> List[WaveFunction]:
        return [s for _, s, _ in self.branches]

    @property
    def summaries(self) -> List[PacketSummary]:
        return [m for _, _, m in self.branches]

    @cached_property
    def probabilities(self) -> Tuple[float, ...]:
        """The Born weights |c_n|^2 in coefficient index order."""
        return tuple(geometric_probabilities(self).tolist())

    @cached_property
    def branch_cdf(self) -> Tuple[float, ...]:
        """Cumulative geometric probabilities, the inverse-CDF table."""
        return tuple(np.cumsum(self.probabilities).tolist())


def decompose(psi: WaveFunction, basis: Sequence[WaveFunction],
              params: PhysicalParams = PhysicalParams(),
              expected_coefficients: Optional[Sequence[complex]] = None
              ) -> SuperpositionDecomposition:
    """Extract coefficients c_n = (psi_n, psi) by grid inner products.

    The branch summaries take no gate config: only <x> and std x are read.
    Constructing the decomposition raises NotWeaklyInterfering first.
    Coefficients are re-extracted rather than trusted, so supplied ones that
    psi does not carry, or one per packet fewer or more, raise a
    ValidationError here, not wrong probabilities later.
    """
    basis = list(basis)
    coeffs = np.array([inner_product(b, psi) for b in basis])
    summaries = [packet_summary(b, params=params) for b in basis]
    decomp = SuperpositionDecomposition(
        branches=tuple(zip(coeffs, basis, summaries)))
    if expected_coefficients is not None:
        expected = np.asarray(expected_coefficients, dtype=complex).ravel()
        if expected.size != len(basis):
            raise ValidationError(
                f"{expected.size} expected coefficients for "
                f"{len(basis)} basis packets")
        err = float(np.max(np.abs(coeffs - expected)))
        if not err <= COEFF_EXTRACTION_TOL:
            raise ValidationError(
                f"extracted coefficients deviate by {err:.3g} from the "
                "supplied ones; branches are probably not orthogonal")
    return decomp


def overlap_limit(d: int) -> float:
    """COEFF_NORM_TOL / (d - 1): two of d branches may overlap this much and
    keep re-extracted sum |c_n|^2 within COEFF_NORM_TOL of 1 to first order."""
    return COEFF_NORM_TOL / max(d - 1, 1)


def _check_overlaps(states: Sequence[WaveFunction]) -> None:
    """NotWeaklyInterfering for the first branch pair above overlap_limit."""
    limit = overlap_limit(len(states))
    overlaps = overlap_matrix(states)
    for i, j in zip(*np.triu_indices(len(states), k=1)):
        if overlaps[i, j] > limit:
            raise NotWeaklyInterfering(
                f"branches {i},{j} overlap by {overlaps[i, j]:.3g} "
                f"(limit {limit:.3g})")


def geometric_probabilities(decomp: SuperpositionDecomposition) -> np.ndarray:
    """p_n = |c_n|^2: the reduced width |c_n|^2 std_n over the full std_n."""
    # abs of each numpy complex scalar: the array ufunc may round the
    # modulus differently in the last bit.
    return np.array([abs(c) ** 2 for c in decomp.coefficients])


def sample_collapse(decomp: SuperpositionDecomposition,
                    u: float) -> CollapseEvent:
    """The realized branch for the uniform draw u, by inverse CDF.

    u is bisected in the first d - 1 entries of the cached branch CDF:
    intervals are half-open [lo, hi) in coefficient index order, and a u at
    or past the last entry picks branch d - 1.  The caller draws u, one
    double of a seeded stream per event.  The event is built by
    tuple.__new__ on its three fields, in field order, which gives the same
    CollapseEvent as CollapseEvent(...) without the call frame of the named
    tuple's generated __new__.
    """
    cdf = decomp.branch_cdf
    idx = bisect_right(cdf, u, 0, len(cdf) - 1)
    return _new_tuple(CollapseEvent, (idx, decomp.probabilities[idx], u))


def apply_self_collapse(decomp: SuperpositionDecomposition,
                        event: CollapseEvent) -> WaveFunction:
    """The realized branch packet at unit norm; the decomposition is untouched."""
    if not 0 <= event.branch_index < len(decomp):
        raise IndexOutOfRange(
            f"branch {event.branch_index} out of range for {len(decomp)} branches")
    return decomp.branches[event.branch_index][1].normalize()
