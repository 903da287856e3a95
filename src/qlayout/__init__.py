"""Optimal layout synthesis for quantum circuits on constrained devices.

Three synthesis flows share one constraint encoding: `synthesize` solves
the exact time-resolved model, `synthesize_tb` a coarse transition-based
model whose plan it schedules at exact time, re-timing each block when all
gates commute, and `synthesize_qaoa` is TB at S=1 for two-qubit gates that
all commute. `check_result` independently validates any result, and
`oracle_optimal` brute-forces tiny instances for testing.
"""

from .circuit import (
    Circuit,
    CircuitError,
    Gate,
    load_circuit,
    parse_program,
    preprocess,
)
from .device import (
    Device,
    DeviceError,
    build_device,
    load_device,
    scaled_log_fidelity,
    serialize_device,
)
from .exact import (
    EncodingConfig,
    SynthesisTimeout,
    TCapExceeded,
    synthesize,
)
from .oracle import OracleError, oracle_optimal
from .qaoa import parse_graph, phase_separation_from_graph, synthesize_qaoa
from .results import (
    GatePlacement,
    ResultError,
    SwapPlacement,
    SynthesisResult,
    TransitionPlan,
    result_from_json,
)
from .transition import synthesize_tb
from .verify import check_result, metric_term_count, metrics

__all__ = [
    "Circuit",
    "CircuitError",
    "Device",
    "DeviceError",
    "EncodingConfig",
    "Gate",
    "GatePlacement",
    "OracleError",
    "ResultError",
    "SwapPlacement",
    "SynthesisResult",
    "SynthesisTimeout",
    "TCapExceeded",
    "TransitionPlan",
    "build_device",
    "check_result",
    "load_circuit",
    "load_device",
    "metric_term_count",
    "metrics",
    "oracle_optimal",
    "parse_graph",
    "parse_program",
    "phase_separation_from_graph",
    "preprocess",
    "result_from_json",
    "scaled_log_fidelity",
    "serialize_device",
    "synthesize",
    "synthesize_qaoa",
    "synthesize_tb",
]

__version__ = "0.1.0"
