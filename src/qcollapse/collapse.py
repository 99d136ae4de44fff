"""Reduced intervals, geometric probabilities and stochastic self-collapse.

Collapse semantics only apply to superpositions of weakly interfering
packets.  Probabilities are computed geometrically, as the quotient of the
reduced and the full support-interval widths, and must reproduce the squared
coefficient moduli.  Sampling draws one double per event from a numpy
Generator (PCG64 under default_rng), so a seeded stream fixes every event.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import (
    GateConfig,
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
# Geometric weak interference alone admits Gaussian tails; collapse
# additionally requires branch overlaps at or below this.
BRANCH_OVERLAP_TOL = 1e-6
COEFF_EXTRACTION_TOL = 1e-6


@dataclass(frozen=True)
class ReducedInterval:
    """Reduced support interval sharing its center with the parent packet."""

    center: float
    width: float


class CollapseEvent(NamedTuple):
    """Realized branch, Born weight, draw and posterior: an immutable tuple."""
    branch_index: int
    probability: float
    u: float  # the uniform draw that picked the branch
    a_posteriori: Tuple[float, ...]


@dataclass(frozen=True, eq=False)
class SuperpositionDecomposition:
    """Branches (c_n, state_n, summary_n) of a superposition over packets."""

    branches: Tuple[Tuple[complex, WaveFunction, PacketSummary], ...]

    def __post_init__(self):
        branches = tuple((complex(c), s, m) for c, s, m in self.branches)
        object.__setattr__(self, "branches", branches)
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
    def probabilities(self) -> np.ndarray:
        return geometric_probabilities(self)

    @cached_property
    def branch_cdf(self) -> Tuple[float, ...]:
        """Cumulative geometric probabilities, the inverse-CDF table."""
        return tuple(np.cumsum(self.probabilities).tolist())

    @cached_property
    def posteriors(self) -> Tuple[Tuple[float, ...], ...]:
        """The one-hot a-posteriori weights of each realizable branch."""
        return tuple(map(tuple, np.eye(len(self)).tolist()))

    @cached_property
    def weights(self) -> Tuple[float, ...]:
        """The Born weights |c_n|^2 in coefficient index order."""
        # abs of each numpy complex scalar: the array ufunc may round the
        # modulus differently in the last bit.
        return tuple(float(abs(c) ** 2) for c in self.coefficients)


def decompose(psi: WaveFunction, basis: Sequence[WaveFunction],
              cfg: GateConfig = GateConfig(),
              params: PhysicalParams = PhysicalParams(),
              expected_coefficients: Optional[Sequence[complex]] = None
              ) -> SuperpositionDecomposition:
    """Extract coefficients c_n = (psi_n, psi) by grid inner products.

    Coefficients are always re-extracted rather than trusted, so a
    non-orthogonal basis shows up as a discrepancy error here instead of as
    silently wrong probabilities later.
    """
    basis = list(basis)
    coeffs = np.array([inner_product(b, psi) for b in basis])
    if expected_coefficients is not None:
        expected = np.asarray(expected_coefficients, dtype=complex)
        err = float(np.max(np.abs(coeffs - expected)))
        if not err <= COEFF_EXTRACTION_TOL:
            raise ValidationError(
                f"extracted coefficients deviate by {err:.3g} from the "
                "supplied ones; branches are probably not orthogonal")
    summaries = [packet_summary(b, cfg, params) for b in basis]
    return SuperpositionDecomposition(
        branches=tuple(zip(coeffs, basis, summaries)))


def _check_weak_interference(decomp: SuperpositionDecomposition) -> None:
    if len(decomp) < 2:
        return
    matrix = weak_interference(decomp.summaries)
    iu = np.triu_indices(len(decomp), k=1)
    if not np.all(matrix[iu]):
        raise NotWeaklyInterfering(
            "some branch pair fails the support-separation condition")
    overlaps = overlap_matrix(decomp.states)
    for i, j in zip(*iu):
        if overlaps[i, j] > BRANCH_OVERLAP_TOL:
            raise NotWeaklyInterfering(
                f"branches {i},{j} overlap by {overlaps[i, j]:.3g} "
                f"(limit {BRANCH_OVERLAP_TOL})")


def reduced_intervals(decomp: SuperpositionDecomposition) -> List[ReducedInterval]:
    """Width |c_n|^2 * std_n x around the unchanged branch center.

    Raises NotWeaklyInterfering unless every branch pair is separated and
    overlaps by at most BRANCH_OVERLAP_TOL.
    """
    _check_weak_interference(decomp)
    return [ReducedInterval(center=summary.exp_x,
                            width=abs(c) ** 2 * summary.std_x)
            for c, _, summary in decomp.branches]


def geometric_probabilities(decomp: SuperpositionDecomposition) -> np.ndarray:
    """p_n = reduced width / full width, computed from the interval values."""
    intervals = reduced_intervals(decomp)
    p = np.array([iv.width / s.std_x
                  for iv, s in zip(intervals, decomp.summaries)])
    if not abs(float(p.sum()) - 1.0) <= COEFF_NORM_TOL:
        raise ValidationError(f"probabilities sum to {p.sum()}, not 1")
    return p


def measure_quotients(decomp: SuperpositionDecomposition) -> np.ndarray:
    """Prose measure quotient q_n = std_n x / sum_m std_m x.

    Reported for inspection only; it equals |c_n|^2 only when the packet
    widths happen to be proportional to the weights.
    """
    widths = np.array([s.std_x for s in decomp.summaries])
    return widths / widths.sum()


def sample_collapse(decomp: SuperpositionDecomposition,
                    rng: np.random.Generator) -> CollapseEvent:
    """Inverse-CDF sample of the realized branch from the stream `rng`.

    Draws one u = rng.random() and looks it up in the branch CDF that the
    decomposition builds once.  Branch intervals are half-open [lo, hi) in
    coefficient index order, so an ensemble seeded once with
    np.random.default_rng(seed) and drawn event by event is fixed by
    (decomp, seed): k calls leave `rng` where rng.random(k) would.
    """
    cdf = decomp.branch_cdf
    u = rng.random()
    idx = min(bisect_right(cdf, u), len(cdf) - 1)
    return CollapseEvent(idx, decomp.weights[idx], u, decomp.posteriors[idx])


def apply_self_collapse(decomp: SuperpositionDecomposition,
                        event: CollapseEvent) -> WaveFunction:
    """The realized branch packet at unit norm; the decomposition is untouched."""
    if not 0 <= event.branch_index < len(decomp):
        raise IndexOutOfRange(
            f"branch {event.branch_index} out of range for {len(decomp)} branches")
    return decomp.branches[event.branch_index][1].normalize()
