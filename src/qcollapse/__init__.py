"""1-D quantum dynamics with wave-packet gates and stochastic self-collapse."""

from .grid import (
    Grid1D,
    PhysicalParams,
    WaveFunction,
    inner_product,
    make_gaussian,
    superpose,
)
from .propagate import EvolutionConfig, Potential, evolve, step, translate
from .diagnostics import (
    GateConfig,
    GateVerdict,
    ObservableSpec,
    OrderParameters,
    PacketSummary,
    expectation,
    order_parameters,
    packet_summary,
    std_dev,
    wave_packet_gate,
    weak_interference,
)
from .collapse import (
    CollapseEvent,
    SuperpositionDecomposition,
    apply_self_collapse,
    decompose,
    geometric_probabilities,
    sample_collapse,
)
from .measurement import (
    CompositeState,
    CouplingConfig,
    MeasurementOutcome,
    ObjectState,
    TransitionReport,
    apparatus_decomposition,
    detect_transition,
    measure,
    premeasurement,
    von_neumann_evolve,
)

__version__ = "0.1.0"
