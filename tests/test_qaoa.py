"""Commutation-aware flow for phase-separation circuits."""

import random
import time
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from qlayout import qaoa
from qlayout import solver as sv
from qlayout.circuit import Circuit, CircuitError, Gate, load_circuit, preprocess
from qlayout.device import build_device, load_device
from qlayout.exact import (
    EncodingConfig,
    SynthesisTimeout,
    apply_objective,
    encode,
)
from qlayout.qaoa import (
    _retime_block,
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
        (0, 0, 3), (1, 1, 6), (2, 2, 4), (3, 2, 0), (4, 0, 1), (5, 3, 3),
        (6, 4, 2), (7, 3, 1), (8, 4, 6)]
    assert result.depth_slots == 5
    assert [(s.edge, s.finish_time) for s in result.swaps] == [(2, 1), (5, 2)]
    assert result.mapping_trajectory == (
        (1, 4, 5, 2, 0, 3), (1, 4, 5, 2, 0, 3), (2, 4, 5, 1, 0, 3),
        (2, 3, 5, 1, 0, 4), (2, 3, 5, 1, 0, 4))
    assert check_result(circ, dev, result, S=1) == []


def _model_retime_block(block_gates, circuit, device, locations, timeout):
    """Reference: the block re-timing as a solver model, with edge
    assignments pinned, SWAPs off and same-qubit gates kept apart, solved to
    its minimum depth. Returns slot per block gate."""
    L_b = len(block_gates)
    if L_b == 0:
        return []
    sub = Circuit(
        num_qubits=circuit.num_qubits,
        gates=tuple(
            Gate(index=i, name=circuit.gates[l].name, qubits=circuit.gates[l].qubits)
            for i, l in enumerate(block_gates)
        ),
    )
    sub = preprocess(sub, user_deps=[])
    cfg = EncodingConfig(T=L_b, S=1, objective="depth",
                         relaxed_dependencies=True, gate_swap_conflicts=False)
    model, vs = encode(sub, device, cfg)
    for i in range(L_b):
        model.require_clause([(vs.space[i], locations[i], True)])
    for row in vs.sigma:
        for h in row:
            model.require_clause([(h, 0, True)])
    for i in range(L_b):
        for j in range(i + 1, L_b):
            if set(sub.gates[i].qubits) & set(sub.gates[j].qubits):
                model.require(sv.NeVar(vs.time[i], vs.time[j]))
    apply_objective(model, vs, "depth", device, sub)
    verdict = sv.solve(model, timeout=timeout)
    assert verdict.status == sv.SAT
    return [verdict.assignment[h] for h in vs.time]


def _assert_proper(pairs, slots):
    assert len(slots) == len(pairs)
    for i in range(len(pairs)):
        for j in range(i):
            if set(pairs[i]) & set(pairs[j]):
                assert slots[i] != slots[j], (i, j, slots)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), device_name=st.sampled_from(["qx2", "grid2x3"]))
def test_retime_block_matches_model(seed, device_name):
    # a block as pass 1 leaves it: an injective mapping and a multiset of
    # device edges (repeats allowed) carrying the gates
    rng = random.Random(seed)
    device = bundled_device(f"{device_name}.json")
    N = device.num_physical
    M = rng.randint(2, N)
    at = rng.sample(range(N), M)
    qubit_on = {p: q for q, p in enumerate(at)}
    edges = [k for k, (a, b) in enumerate(device.edges)
             if a in qubit_on and b in qubit_on]
    # at most 7 gates: one pair repeated 8 times takes the reference model a
    # pigeonhole proof of several seconds
    locations = [rng.choice(edges) for _ in range(rng.randint(0, 7))] if edges else []
    gates = []
    for l, k in enumerate(locations):
        a, b = device.edges[k]
        if rng.random() < 0.5:
            a, b = b, a
        gates.append(Gate(index=l, name="zz", qubits=(qubit_on[a], qubit_on[b])))
    circuit = preprocess(Circuit(num_qubits=M, gates=tuple(gates)), user_deps=[])
    pairs = [(at[g.qubits[0]], at[g.qubits[1]]) for g in gates]

    slots = _retime_block(pairs, None)
    _assert_proper(pairs, slots)
    assert slots == _retime_block(pairs, None)
    reference = _model_retime_block(list(range(len(gates))), circuit, device,
                                    locations, None)
    assert max(slots, default=-1) == max(reference, default=-1)


PETERSEN = ([(i, (i + 1) % 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)])


@pytest.mark.parametrize("pairs, depth", [
    ([(0, 1), (1, 2), (0, 2)], 3),
    ([(i, (i + 1) % 5) for i in range(5)], 3),
    (PETERSEN, 4),
    ([(0, 1), (1, 0)], 2),
    ([], 0),
])
def test_retime_block_known_depths(pairs, depth):
    slots = _retime_block(pairs, None)
    _assert_proper(pairs, slots)
    assert max(slots, default=-1) + 1 == depth


def test_retime_block_deadline(monkeypatch):
    with pytest.raises(SynthesisTimeout):
        _retime_block([(0, 1)], time.monotonic() - 1.0)
    assert _retime_block([], None) == []

    # a deadline that passes during the search stops it too: the Petersen
    # graph needs hundreds of search nodes before 3 colours are ruled out
    class Clock:
        calls = 0

        @classmethod
        def monotonic(cls):
            cls.calls += 1
            return 0.0 if cls.calls == 1 else 2.0

    monkeypatch.setattr(qaoa, "time", Clock)
    with pytest.raises(SynthesisTimeout):
        _retime_block(PETERSEN, 1.0)
    assert Clock.calls > 1


def test_pass2_builds_no_model(monkeypatch):
    solves = []
    original = sv.solve

    def counting(*args, **kwargs):
        solves.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(sv, "solve", counting)
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    circ = phase_separation_from_graph(edges)
    dev = bundled_device("grid2x3.json")
    result, plan, details = synthesize_qaoa(circ, dev, objective="depth", S=1,
                                            return_details=True)
    assert plan.num_blocks > 1
    assert len(solves) == len(details.tried_T)


def _random_cubic_graph(num_nodes, rng):
    """Random simple 3-regular graph: pairing model with rejection."""
    while True:
        stubs = [v for v in range(num_nodes) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(e)) for e in zip(stubs[::2], stubs[1::2])}
        if len(edges) == len(stubs) // 2 and all(a != b for a, b in edges):
            return sorted(edges)


# 8-node graphs on grid2x4 run with the depth objective only: their swap
# objective spends about 2 s per graph in pass 1
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       case=st.sampled_from([(n, d, o) for n, d in [(4, "qx2"), (4, "grid2x3"),
                                                    (6, "grid2x3"), (6, "grid2x4"),
                                                    (8, "grid2x4")]
                             for o in ("swap", "depth") if (n, o) != (8, "swap")]))
def test_random_cubic_graphs(seed, case):
    num_nodes, device_name, objective = case
    edges = _random_cubic_graph(num_nodes, random.Random(seed))
    circ = phase_separation_from_graph(edges)
    dev = bundled_device(f"{device_name}.json")
    result, plan, _ = synthesize_qaoa(circ, dev, objective=objective, S=1,
                                      return_details=True)
    assert check_result(circ, dev, result, S=1) == []
    planned = sorted(k for _, ks in plan.transitions for k in ks)
    assert sorted(s.edge for s in result.swaps) == planned
