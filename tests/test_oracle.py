"""Brute-force oracle: ground-truth costs on tiny instances."""

import pytest

from qlayout.circuit import load_circuit, parse_program
from qlayout.device import build_device
from qlayout.oracle import OracleError, oracle_optimal

PATH3 = build_device(3, [(0, 1), (1, 2)])
TRIANGLE_CIRC = load_circuit("qubits 3\ncx q0 q1\ncx q1 q2\ncx q0 q2\n")


def test_triangle_on_path_needs_one_swap():
    assert oracle_optimal(TRIANGLE_CIRC, PATH3, "swap") == 1


def test_triangle_on_triangle_needs_none():
    dev = build_device(3, [(0, 1), (1, 2), (0, 2)])
    assert oracle_optimal(TRIANGLE_CIRC, dev, "swap") == 0
    # three mutually-colliding gates serialize
    assert oracle_optimal(TRIANGLE_CIRC, dev, "depth") == 3


def test_line_circuit_swapless():
    circ = load_circuit("qubits 3\ncx q0 q1\ncx q1 q2\n")
    assert oracle_optimal(circ, PATH3, "swap") == 0
    assert oracle_optimal(circ, PATH3, "depth") == 2


def test_parallel_gates_share_slot():
    circ = load_circuit("qubits 4\ncx q0 q1\ncx q2 q3\n")
    dev = build_device(4, [(0, 1), (1, 2), (2, 3)])
    assert oracle_optimal(circ, dev, "depth") == 1
    assert oracle_optimal(circ, dev, "swap") == 0


def test_empty_circuit():
    circ = load_circuit("qubits 2\n")
    assert oracle_optimal(circ, PATH3, "swap") == 0
    assert oracle_optimal(circ, PATH3, "depth") == 0


def test_single_qubit_gates_only():
    circ = load_circuit("qubits 2\nh q0\nh q1\nx q0\n")
    assert oracle_optimal(circ, PATH3, "swap") == 0
    # h q0 then x q0 serialize; h q1 fits alongside
    assert oracle_optimal(circ, PATH3, "depth") == 2


def test_swap_duration_affects_depth():
    # triangle interaction forced through one swap: S stretches the schedule
    d3 = oracle_optimal(TRIANGLE_CIRC, PATH3, "depth", S=3)
    d1 = oracle_optimal(TRIANGLE_CIRC, PATH3, "depth", S=1)
    assert d1 < d3
    assert d3 == 6
    assert d1 == 4


def test_swap_bounded_by_slots():
    # in only 3 slots the triangle cannot finish at all
    with pytest.raises(OracleError):
        oracle_optimal(TRIANGLE_CIRC, PATH3, "swap", bounds=3, S=3)
    assert oracle_optimal(TRIANGLE_CIRC, PATH3, "swap", bounds=6, S=3) == 1


def test_caps_enforced():
    big_circ = load_circuit("qubits 5\ncx q0 q1\n")
    with pytest.raises(OracleError):
        oracle_optimal(big_circ, build_device(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), "swap")
    many = load_circuit("qubits 2\n" + "h q0\n" * 7)
    with pytest.raises(OracleError):
        oracle_optimal(many, PATH3, "swap")
    wide = build_device(6, [(i, i + 1) for i in range(5)])
    with pytest.raises(OracleError):
        oracle_optimal(load_circuit("qubits 2\ncx q0 q1\n"), wide, "swap")


def test_inputs_validated():
    with pytest.raises(ValueError):
        oracle_optimal(parse_program("qubits 2\ncx q0 q1\n"), PATH3, "swap")
    with pytest.raises(ValueError):
        oracle_optimal(TRIANGLE_CIRC, PATH3, "volume")


@pytest.mark.parametrize("kw", [
    {"S": 2.5}, {"S": True}, {"S": 1.0},
    {"bounds": 7.9}, {"bounds": 7.0}, {"bounds": True}, {"bounds": "7"},
], ids=["S-float", "S-bool", "S-integral-float", "bounds-float", "bounds-integral-float",
        "bounds-bool", "bounds-string"])
@pytest.mark.parametrize("cost_kind", ["swap", "depth"])
def test_non_int_swap_duration_and_bounds_rejected(cost_kind, kw):
    # a horizon or a SWAP duration is a whole number of slots: refused, not rounded
    with pytest.raises(ValueError, match="S must be an int|bounds must be None or an int"):
        oracle_optimal(TRIANGLE_CIRC, PATH3, cost_kind, **kw)


def test_more_qubits_than_nodes_rejected():
    circ = load_circuit("qubits 3\ncx q0 q1\n")
    tiny = build_device(2, [(0, 1)])
    with pytest.raises(OracleError):
        oracle_optimal(circ, tiny, "swap")
