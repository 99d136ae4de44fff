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
from typing import Optional, Sequence, Tuple

import numpy as np

from .diagnostics import packet_summary, weak_interference
from .errors import (
    IndexOutOfRange,
    NotWeaklyInterfering,
    ValidationError,
)
from .grid import (WaveFunction, _frozen, check_unit_weights, inner_product,
                   overlap_matrix)

RNG_ALGORITHM = "numpy.random.PCG64"

COEFF_NORM_TOL = 1e-8
COEFF_EXTRACTION_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class SuperpositionDecomposition:
    """Weakly interfering packets: coefficient c_n and packet of each
    branch n, the coefficients as a read-only complex128 array.

    Construction raises ValidationError unless there is one packet per
    coefficient, then NotWeaklyInterfering for the first pair overlapping
    above `overlap_limit(d)`, then for a pair whose summaries (<x> and
    std x) are not support-separated (`weak_interference`), before it
    checks that sum |c_n|^2 = 1."""

    coefficients: np.ndarray
    states: Tuple[WaveFunction, ...]

    def __post_init__(self):
        coeffs = _frozen(np.array(self.coefficients, dtype=np.complex128))
        states = tuple(self.states)
        if coeffs.shape != (len(states),):
            raise ValidationError(
                f"{coeffs.size} coefficients for {len(states)} packets")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "states", states)
        _check_overlaps(states)
        summaries = [packet_summary(s) for s in states]
        if not np.all(weak_interference(summaries)[
                np.triu_indices(len(self), k=1)]):
            raise NotWeaklyInterfering(
                "some branch pair fails the support-separation condition")
        check_unit_weights(coeffs, COEFF_NORM_TOL, "sum |c_n|^2")

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def probabilities(self) -> Tuple[float, ...]:
        """The Born weights |c_n|^2 in coefficient index order."""
        return tuple(geometric_probabilities(self).tolist())

    @cached_property
    def branch_cuts(self) -> Tuple[float, ...]:
        """The inverse-CDF table: the d - 1 inner cut points, the first
        d - 1 cumulative geometric probabilities; empty for one branch."""
        return tuple(np.cumsum(self.probabilities)[:-1].tolist())


def decompose(psi: WaveFunction, basis: Sequence[WaveFunction],
              expected_coefficients: Optional[Sequence[complex]] = None
              ) -> SuperpositionDecomposition:
    """Extract coefficients c_n = (psi_n, psi) by grid inner products.

    Constructing the decomposition raises NotWeaklyInterfering first.
    Coefficients are re-extracted rather than trusted, so supplied ones that
    psi does not carry, or one per packet fewer or more, raise a
    ValidationError here, not wrong probabilities later.
    """
    basis = list(basis)
    coeffs = np.array([inner_product(b, psi) for b in basis])
    decomp = SuperpositionDecomposition(coeffs, basis)
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


def sample_collapse(decomp: SuperpositionDecomposition, u: float) -> int:
    """The realized branch index for the uniform draw u, by inverse CDF.

    u is bisected in the cached d - 1 cut points `branch_cuts`: intervals
    are half-open [lo, hi) in coefficient index order, a u at or past the
    last cut picks branch d - 1, and one branch, with no cuts, is always
    picked.  The caller draws u, one double of a seeded stream per event.
    """
    return bisect_right(decomp.branch_cuts, u)


def apply_self_collapse(decomp: SuperpositionDecomposition,
                        branch: int) -> WaveFunction:
    """The realized branch packet at unit norm; the decomposition is untouched."""
    if not 0 <= branch < len(decomp):
        raise IndexOutOfRange(
            f"branch {branch} out of range for {len(decomp)} branches")
    return decomp.states[branch].normalize()
