"""Exact synthesizer: optimality, growth policy, decode contract."""

from importlib import resources

import pytest

from qlayout import solver as sv
from qlayout.circuit import load_circuit
from qlayout.device import build_device, load_device
from qlayout.exact import (
    EncodingConfig,
    TCapExceeded,
    apply_objective,
    encode,
    grow_T,
    synthesize,
)
from qlayout.verify import check_result, metrics

PATH3 = build_device(3, [(0, 1), (1, 2)])


def bundled_device(name):
    return load_device((resources.files("qlayout") / "data" / name).read_text())


def bundled_circuit(name):
    return load_circuit((resources.files("qlayout") / "data" / name).read_text())


def test_or_qx2_swapless():
    result = synthesize(bundled_circuit("or.gates"), bundled_device("qx2.json"),
                        objective="swap")
    assert result.swap_count == 0
    assert check_result(bundled_circuit("or.gates"), bundled_device("qx2.json"),
                        result) == []


def test_or_qx2_depth_nine():
    result = synthesize(bundled_circuit("or.gates"), bundled_device("qx2.json"),
                        objective="depth")
    assert result.depth_slots == 9


def test_triangle_needs_one_swap():
    circ = load_circuit("qubits 3\ncx q0 q1\ncx q1 q2\ncx q0 q2\n")
    result = synthesize(circ, PATH3, objective="swap")
    assert result.swap_count == 1
    assert check_result(circ, PATH3, result) == []


def test_empty_circuit():
    circ = load_circuit("qubits 2\n")
    result = synthesize(circ, PATH3)
    assert result.depth_slots == 0
    assert result.swap_count == 0
    assert len(result.initial_mapping) == 2
    assert check_result(circ, PATH3, result) == []


def test_single_gate():
    circ = load_circuit("qubits 2\ncx q0 q1\n")
    result = synthesize(circ, PATH3, objective="depth")
    assert result.depth_slots == 1
    assert result.swap_count == 0


def test_growth_policy():
    assert grow_T(1, 0.3) == 2
    assert grow_T(2, 0.3) == 3
    assert grow_T(10, 0.3) == 13
    assert grow_T(3, 0.5) == 5
    # growth is strict even when the factor rounds to nothing
    assert grow_T(1, 0.01) == 2


def test_first_satisfiable_horizon_reported():
    circ = load_circuit("qubits 3\ncx q0 q1\ncx q1 q2\ncx q0 q2\n")
    result, details = synthesize(circ, PATH3, objective="swap",
                                 return_details=True)
    assert details.tried_T == sorted(details.tried_T)
    assert details.solver_T == result.solver_T
    assert details.objective_value == result.swap_count == 1


def test_extra_t_keeps_best():
    circ = load_circuit("qubits 3\ncx q0 q1\ncx q1 q2\ncx q0 q2\n")
    base = synthesize(circ, PATH3, objective="swap")
    widened = synthesize(circ, PATH3, objective="swap", extra_t=1)
    assert widened.swap_count <= base.swap_count


def test_unsat_at_cap():
    # a 2-qubit gate can never run on an edgeless device
    circ = load_circuit("qubits 2\ncx q0 q1\n")
    dev = build_device(2, [])
    cfg = EncodingConfig(T=1, max_T=4)
    with pytest.raises(TCapExceeded):
        synthesize(circ, dev, config=cfg)


def test_fidelity_objective_matches_metrics():
    dev = build_device(3, [(0, 1), (1, 2)], {
        "measure": [0.9, 0.92, 0.95],
        "single": [0.99, 0.985, 0.99],
        "two": [0.97, 0.96],
    })
    circ = load_circuit("qubits 2\ncx q0 q1\nh q1\ncx q0 q1\n")
    result, details = synthesize(circ, dev, objective="fidelity",
                                 return_details=True)
    _, _, scaled, _ = metrics(circ, dev, result)
    assert details.objective_value == scaled == result.fidelity_scaled
    assert check_result(circ, dev, result) == []


def test_requires_preprocessing():
    from qlayout.circuit import parse_program
    with pytest.raises(ValueError):
        synthesize(parse_program("qubits 2\ncx q0 q1\n"), PATH3)


def test_unknown_objective_rejected():
    with pytest.raises(ValueError):
        EncodingConfig(T=1, objective="volume")
    with pytest.raises(ValueError):
        EncodingConfig(T=0)
    with pytest.raises(ValueError):
        EncodingConfig(T=1, S=0)
    with pytest.raises(ValueError):
        EncodingConfig(T=1, epsilon=0.0)


@pytest.mark.parametrize("objective", ["swap", "depth"])
def test_engines_agree_on_exact_model(objective):
    # the MILP engine sees every clause row expanded to a linear row
    circuit, device = bundled_circuit("or.gates"), bundled_device("qx2.json")
    T = max(1, circuit.longest_chain)
    verdicts = []
    for method in ("sat", "milp"):
        model, vs = encode(circuit, device, EncodingConfig(T=T, objective=objective))
        apply_objective(model, vs, objective, device, circuit)
        verdicts.append(sv.solve(model, method=method))
    sat, milp = verdicts
    assert sat.status == milp.status == sv.SAT
    assert sat.objective_value == milp.objective_value
