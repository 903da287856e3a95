"""Commutation-aware flow for phase-separation circuits."""

from importlib import resources

import pytest

from qlayout.circuit import CircuitError, load_circuit
from qlayout.device import build_device, load_device
from qlayout.qaoa import (
    parse_graph,
    phase_separation_from_graph,
    synthesize_qaoa,
)
from qlayout.verify import check_result


def bundled_device(name):
    return load_device((resources.files("qlayout") / "data" / name).read_text())


def test_graph_circuit_shape():
    circ = phase_separation_from_graph([(0, 1), (1, 2), (0, 2)])
    assert circ.num_qubits == 3
    assert circ.num_gates == 3
    assert all(g.is_two_qubit and g.name == "zz" for g in circ.gates)
    assert circ.dependencies == ()
    assert circ.longest_chain == 1


def test_graph_circuit_validation():
    with pytest.raises(CircuitError):
        phase_separation_from_graph([(0, 0)])
    with pytest.raises(CircuitError):
        phase_separation_from_graph([(-1, 2)])
    with pytest.raises(CircuitError):
        phase_separation_from_graph([(0, 3)], num_nodes=3)
    # isolated trailing nodes are allowed
    circ = phase_separation_from_graph([(0, 1)], num_nodes=4)
    assert circ.num_qubits == 4


def test_parse_graph():
    n, edges = parse_graph("# a square\n0 1\n1 2\n\n2 3\n3 0\n")
    assert n == 4
    assert edges == [(0, 1), (1, 2), (2, 3), (3, 0)]
    with pytest.raises(CircuitError):
        parse_graph("0 1 2\n")
    with pytest.raises(CircuitError):
        parse_graph("a b\n")
    assert parse_graph("") == (0, [])


def test_triangle_on_qx2():
    circ = phase_separation_from_graph([(0, 1), (1, 2), (0, 2)])
    dev = bundled_device("qx2.json")
    result = synthesize_qaoa(circ, dev, objective="swap", S=1)
    assert result.swap_count == 0
    assert result.depth_slots == 3
    assert check_result(circ, dev, result, S=1) == []


def test_four_cycle_on_square():
    circ = phase_separation_from_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
    square = build_device(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    result = synthesize_qaoa(circ, square, objective="swap", S=1)
    assert result.swap_count == 0
    # opposite edges of the cycle pair up into two slots
    assert result.depth_slots == 2
    assert check_result(circ, square, result, S=1) == []


def test_k4_on_qx2_needs_a_swap():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    circ = phase_separation_from_graph(edges)
    dev = bundled_device("qx2.json")
    result = synthesize_qaoa(circ, dev, objective="swap", S=1)
    assert result.swap_count >= 1
    assert check_result(circ, dev, result, S=1) == []


def test_rejects_unpreprocessed_and_dependent():
    from qlayout.circuit import parse_program
    dev = bundled_device("qx2.json")
    with pytest.raises(ValueError):
        synthesize_qaoa(parse_program("qubits 2\nzz q0 q1\n"), dev)
    # default preprocessing derives dependencies: not a commuting circuit
    with pytest.raises(ValueError):
        synthesize_qaoa(load_circuit("qubits 3\nzz q0 q1\nzz q1 q2\n"), dev)
    # single-qubit gates have no place in a phase-separation layer
    with pytest.raises(ValueError):
        synthesize_qaoa(load_circuit("qubits 2\nh q0\n"), dev)


def test_empty_graph():
    circ = phase_separation_from_graph([], num_nodes=3)
    dev = bundled_device("qx2.json")
    result = synthesize_qaoa(circ, dev)
    assert result.depth_slots == 0
    assert result.swap_count == 0
    assert check_result(circ, dev, result, S=1) == []


def test_swaps_carried_verbatim_from_pass1():
    # the plan's swap set and the result's swap list agree one for one
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    circ = phase_separation_from_graph(edges)
    dev = bundled_device("qx2.json")
    result, plan, details = synthesize_qaoa(circ, dev, objective="swap", S=1,
                                            return_details=True)
    planned = sorted(k for _, ks in plan.transitions for k in ks)
    assert sorted(s.edge for s in result.swaps) == planned
    assert result.depth_blocks == plan.num_blocks


def test_prism_graph_schedule_is_pinned():
    # the triangular prism on grid2x3, depth objective: two blocks and two
    # SWAPs, with gates stitched around the SWAP windows
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    circ = phase_separation_from_graph(edges)
    dev = bundled_device("grid2x3.json")
    result = synthesize_qaoa(circ, dev, objective="depth", S=1)
    assert [(g.gate_id, g.time, g.location) for g in result.gates] == [
        (0, 0, 3), (1, 1, 6), (2, 2, 4), (3, 2, 0), (4, 0, 1), (5, 4, 3),
        (6, 3, 2), (7, 3, 1), (8, 3, 6)]
    assert [(s.edge, s.finish_time) for s in result.swaps] == [(2, 1), (5, 2)]
    assert result.mapping_trajectory == (
        (1, 4, 5, 2, 0, 3), (1, 4, 5, 2, 0, 3), (2, 4, 5, 1, 0, 3),
        (2, 3, 5, 1, 0, 4), (2, 3, 5, 1, 0, 4))
    assert check_result(circ, dev, result, S=1) == []
