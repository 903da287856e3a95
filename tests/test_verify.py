"""Independent result checking: every family must catch its own violations."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qlayout.circuit import load_circuit, parse_program, preprocess
from qlayout.device import build_device, scaled_log_fidelity, swap_log_fidelity
from qlayout.exact import EncodingConfig, TCapExceeded, synthesize
from qlayout.qaoa import synthesize_qaoa
from qlayout.results import GatePlacement, SwapPlacement, SynthesisResult
from qlayout.transition import synthesize_tb
from qlayout.verify import check_result, metric_term_count, metrics

PATH3 = build_device(3, [(0, 1), (1, 2)])  # edges: e0=(0,1), e1=(1,2)


def mk(circuit, device, traj, gates, swaps, depth=None, count=None, fid=None):
    base = SynthesisResult(
        solver_T=len(traj),
        depth_slots=(1 + max((g.time for g in gates), default=-1)) if depth is None else depth,
        swap_count=len(swaps) if count is None else count,
        fidelity_scaled=0,
        initial_mapping=traj[0],
        gates=tuple(gates),
        swaps=tuple(swaps),
        mapping_trajectory=tuple(traj),
    )
    if fid is None:
        _, _, scaled, _ = metrics(circuit, device, base)
        return replace(base, fidelity_scaled=scaled)
    return replace(base, fidelity_scaled=fid)


def families(violations):
    return {v["family"] for v in violations}


CIRC = load_circuit("qubits 2\ncx q0 q1\nh q0\n")
GOOD = mk(CIRC, PATH3,
          traj=[(0, 1), (0, 1)],
          gates=[GatePlacement(0, 0, 0), GatePlacement(1, 1, 0)],
          swaps=[])


def test_clean_result_passes():
    assert check_result(CIRC, PATH3, GOOD) == []


def test_requires_preprocessing():
    raw = parse_program("qubits 2\ncx q0 q1\n")
    with pytest.raises(ValueError):
        check_result(raw, PATH3, GOOD)


@pytest.mark.parametrize("S", [0, -2])
def test_swap_duration_below_one_raises(S):
    # for S < 1 the SWAP-window families would test nothing
    with pytest.raises(ValueError, match="S must be >= 1"):
        check_result(CIRC, PATH3, GOOD, S=S)


@pytest.mark.parametrize("S", [2.5, 1.0, True, "1", None])
def test_swap_duration_that_is_no_int_raises(S):
    # no flow takes such an S, so there is no verdict to give for one
    with pytest.raises(ValueError, match="S must be an int"):
        check_result(CIRC, PATH3, GOOD, S=S)


def test_dimension_errors_raise():
    with pytest.raises(ValueError):
        check_result(CIRC, PATH3, replace(GOOD, mapping_trajectory=()))
    with pytest.raises(ValueError):
        check_result(CIRC, PATH3, replace(GOOD, mapping_trajectory=((0,), (1,))))
    with pytest.raises(ValueError):
        check_result(CIRC, PATH3, replace(GOOD, gates=GOOD.gates[:1]))
    with pytest.raises(ValueError):
        check_result(CIRC, PATH3,
                     replace(GOOD, gates=(GOOD.gates[0], GOOD.gates[0])))


def test_eq1_injectivity():
    r = mk(CIRC, PATH3, [(0, 1), (0, 0)],
           [GatePlacement(0, 0, 0), GatePlacement(1, 1, 0)], [])
    assert "eq1" in families(check_result(CIRC, PATH3, r))


def test_eq2_dependency_order():
    # h q0 collides with cx, so it may not share or precede its slot
    r = mk(CIRC, PATH3, [(0, 1)],
           [GatePlacement(0, 0, 0), GatePlacement(1, 0, 0)], [])
    assert "eq2" in families(check_result(CIRC, PATH3, r))


def test_eq3_single_qubit_location():
    r = mk(CIRC, PATH3, [(0, 1), (0, 1)],
           [GatePlacement(0, 0, 0), GatePlacement(1, 1, 2)], [])
    assert "eq3" in families(check_result(CIRC, PATH3, r))


def test_eq4_two_qubit_edge():
    r = mk(CIRC, PATH3, [(0, 1), (0, 1)],
           [GatePlacement(0, 0, 1), GatePlacement(1, 1, 0)], [])
    assert "eq4" in families(check_result(CIRC, PATH3, r))


def test_phys_shared_node():
    commuting = preprocess(parse_program("qubits 1\nh q0\nx q0\n"), user_deps=[])
    dev = build_device(1, [])
    r = mk(commuting, dev, [(0,)],
           [GatePlacement(0, 0, 0), GatePlacement(1, 0, 0)], [])
    out = check_result(commuting, dev, r)
    assert families(out) == {"phys"}


def test_eq5_swap_finishes_too_early():
    circ = load_circuit("qubits 2\ncx q0 q1\n")
    r = mk(circ, PATH3, [(0, 1), (0, 1), (1, 0)],
           [GatePlacement(0, 0, 0)],
           [SwapPlacement(edge=0, finish_time=1)])
    out = check_result(circ, PATH3, r, S=3)
    assert "eq5" in families(out)


def test_eq6_same_edge_window():
    circ = load_circuit("qubits 2\ncx q0 q1\n")
    traj = [(0, 1)] * 6
    traj = traj[:3] + [(1, 0), (1, 0), (0, 1)]
    r = mk(circ, PATH3, traj,
           [GatePlacement(0, 0, 0)],
           [SwapPlacement(0, 2), SwapPlacement(0, 4)])
    assert "eq6" in families(check_result(circ, PATH3, r, S=3))


def test_eq7_overlapping_edge_window():
    circ = load_circuit("qubits 3\ncx q0 q1\n")
    traj = [(0, 1, 2)] * 4
    r = mk(circ, PATH3, traj,
           [GatePlacement(0, 0, 0)],
           [SwapPlacement(0, 2), SwapPlacement(1, 3)])
    out = check_result(circ, PATH3, r, S=3)
    assert "eq7" in families(out)


def test_eq8_gate_inside_swap_window():
    circ = load_circuit("qubits 2\nh q0\n")
    traj = [(0, 2), (0, 2), (0, 2), (1, 2)]
    r = mk(circ, PATH3, traj,
           [GatePlacement(0, 1, 0)],
           [SwapPlacement(0, 2)])
    assert "eq8" in families(check_result(circ, PATH3, r, S=3))


def test_eq9_gate_on_overlapping_edge():
    circ = load_circuit("qubits 3\ncx q1 q2\n")
    traj = [(0, 1, 2), (0, 1, 2), (0, 1, 2), (1, 0, 2)]
    r = mk(circ, PATH3, traj,
           [GatePlacement(0, 1, 1)],
           [SwapPlacement(0, 2)])
    assert "eq9" in families(check_result(circ, PATH3, r, S=3))


def test_eq10_mapping_moves_without_swap():
    circ = load_circuit("qubits 2\ncx q0 q1\n")
    r = mk(circ, PATH3, [(0, 1), (1, 0)],
           [GatePlacement(0, 0, 0)], [])
    assert "eq10" in families(check_result(circ, PATH3, r))


def test_eq11_swap_not_applied():
    circ = load_circuit("qubits 2\ncx q0 q1\n")
    traj = [(0, 1), (0, 1), (0, 1), (0, 1)]
    r = mk(circ, PATH3, traj,
           [GatePlacement(0, 0, 0)],
           [SwapPlacement(0, 2)])
    assert "eq11" in families(check_result(circ, PATH3, r, S=3))


def test_shape_depth_and_count():
    r = replace(GOOD, depth_slots=17)
    assert "shape" in families(check_result(CIRC, PATH3, r))
    r = replace(GOOD, swap_count=2)
    assert "shape" in families(check_result(CIRC, PATH3, r))
    r = replace(GOOD, initial_mapping=(1, 0))
    assert "shape" in families(check_result(CIRC, PATH3, r))
    r = replace(GOOD, fidelity_scaled=GOOD.fidelity_scaled + 1)
    assert "shape" in families(check_result(CIRC, PATH3, r))


def test_shape_swap_past_the_trajectory():
    # the SWAP's mapping change falls at slot 2, which a 2-slot trajectory
    # does not show
    path4 = build_device(4, [(0, 1), (1, 2), (2, 3)])
    r = mk(CIRC, path4, [(0, 1), (0, 1)],
           [GatePlacement(0, 0, 0), GatePlacement(1, 1, 0)],
           [SwapPlacement(edge=2, finish_time=1)])
    assert families(check_result(CIRC, path4, r, S=1)) == {"shape"}


def test_empty_circuit_result():
    circ = load_circuit("qubits 2\n")
    r = mk(circ, PATH3, [(0, 1)], [], [])
    assert check_result(circ, PATH3, r) == []
    assert r.depth_slots == 0


def test_metrics_recompute():
    dev = build_device(3, [(0, 1), (1, 2)], {
        "measure": [0.9, 0.9, 0.9],
        "single": [0.99, 0.99, 0.99],
        "two": [0.97, 0.97],
    })
    circ = load_circuit("qubits 2\ncx q0 q1\nh q0\n")
    r = mk(circ, dev, [(0, 1), (0, 1)],
           [GatePlacement(0, 0, 0), GatePlacement(1, 1, 0)], [])
    depth, count, scaled, real = metrics(circ, dev, r)
    assert depth == 2
    assert count == 0
    want = 0.97 * 0.99 * 0.9 * 0.9
    assert math.isclose(real, want)
    assert abs(1000.0 * math.log(real) - scaled) <= 0.5 * metric_term_count(circ, r)


def test_metric_term_count():
    assert metric_term_count(CIRC, GOOD) == 2 + 2 + 0
    with_swap = replace(GOOD, swaps=(SwapPlacement(0, 2),))
    assert metric_term_count(CIRC, with_swap) == 2 + 2 + 3


# Mutation differential: one perturbation of a valid result of each flow is
# refused by check_result exactly when an independent replay refuses it.

MUTATION_DEVICES = [
    build_device(4, [(0, 1), (1, 2), (2, 3)]),
    build_device(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                 {"measure": [0.9, 0.99, 0.95, 0.99], "single": [0.99, 0.98, 0.99, 0.97],
                  "two": [0.98, 0.96, 0.98, 0.9]}),
    build_device(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    build_device(5, [(0, 1), (1, 2), (3, 4)]),
    build_device(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
]
# idle nodes let an added SWAP leave the mapping unchanged, so some mutants
# stay valid and others are wrong only by their SWAP windows
MUTATION_PROGRAMS = [
    "qubits 2\ncx q0 q1\nh q1\ncx q0 q1\nh q0\n",
    "qubits 3\ncx q0 q1\ncx q1 q2\nh q1\ncx q0 q2\n",
    "qubits 4\ncx q0 q1\nh q2\ncx q2 q3\ncx q0 q2\ncx q1 q3\n",
    "qubits 4\ncx q0 q3\ncx q1 q2\ncx q0 q3\nh q0\ncx q0 q1\ncx q2 q3\n",
]


@pytest.fixture(scope="module")
def flow_results():
    """(circuit, device, S, result) of the exact, TB and QAOA flows on every
    program and device that fit; the QAOA flow takes the two-qubit gates,
    commuting."""
    out = []
    for i, text in enumerate(MUTATION_PROGRAMS):
        commuting = load_circuit("".join(line for line in text.splitlines(True)
                                         if not line.startswith("h ")), user_deps=[])
        circuit = load_circuit(text)
        for j, device in enumerate(MUTATION_DEVICES):
            S = 1 + (i + j) % 3
            objective = ("swap", "depth")[j % 2]
            runs = [
                (circuit, lambda: synthesize(circuit, device, objective,
                                             EncodingConfig(T=1, S=S, max_T=12))),
                (circuit, lambda: synthesize_tb(circuit, device, objective, S=S)[1]),
                (commuting, lambda: synthesize_qaoa(commuting, device, objective, S=S)),
            ]
            for circ, run in runs:
                try:
                    out.append((circ, device, S, run()))
                except TCapExceeded:
                    pass
    return out


def _scaled_fidelity(circuit, device, result):
    total = sum(scaled_log_fidelity(device.f_measure[p])
                for p in result.mapping_trajectory[-1])
    for g in result.gates:
        two = circuit.gates[g.gate_id].is_two_qubit
        total += scaled_log_fidelity((device.f_two if two else device.f_single)[g.location])
    return total + sum(swap_log_fidelity(device, s.edge) for s in result.swaps)


def _replays(circuit, device, result, S):
    """Whether the result is valid, replayed slot by slot: in each slot the
    nodes held by running SWAPs and by the gates there are distinct, each
    gate sits where the mapping puts its qubits, and the next mapping is
    this one with the SWAPs finishing now applied."""
    traj, edges = result.mapping_trajectory, device.edges
    H = len(traj)
    times = {g.gate_id: g.time for g in result.gates}
    if (tuple(result.initial_mapping) != traj[0]
            or result.swap_count != len(result.swaps)
            or result.depth_slots != max(times.values(), default=-1) + 1
            or result.fidelity_scaled != _scaled_fidelity(circuit, device, result)
            or any(not 0 <= t < H for t in times.values())
            or any(times[l] >= times[lp] for l, lp in circuit.dependencies)
            or any(not S - 1 <= s.finish_time <= H - 2 for s in result.swaps)):
        return False
    for t, row in enumerate(traj):
        if len(set(row)) < len(row):
            return False
        held = [p for s in result.swaps if s.finish_time - S < t <= s.finish_time
                for p in edges[s.edge]]
        for g in result.gates:
            if g.time != t:
                continue
            nodes = [row[q] for q in circuit.gates[g.gate_id].qubits]
            if len(nodes) == 2 and tuple(sorted(nodes)) != edges[g.location]:
                return False
            if len(nodes) == 1 and nodes[0] != g.location:
                return False
            held += nodes
        if len(set(held)) < len(held):
            return False
        if t + 1 < H:
            step = list(row)
            for s in result.swaps:
                if s.finish_time == t:
                    a, b = edges[s.edge]
                    step = [b if p == a else a if p == b else p for p in step]
            if tuple(step) != traj[t + 1]:
                return False
    return True


def _mutate(circuit, device, result, draw):
    """One drawn perturbation of the result; the fields derived from the
    others (initial mapping, depth, SWAP count, fidelity) are recomputed."""
    gates, swaps = list(result.gates), list(result.swaps)
    traj = [list(row) for row in result.mapping_trajectory]
    kinds = ["time", "location", "trajectory", "add"]
    if swaps:
        kinds += ["finish", "edge", "drop"]
    kind = draw(st.sampled_from(kinds), label="kind")
    if kind in ("time", "location"):
        i = draw(st.integers(0, len(gates) - 1), label="gate")
        g = gates[i]
        if kind == "time":
            gates[i] = replace(g, time=g.time + draw(st.sampled_from([-1, 1])))
        else:
            two = circuit.gates[g.gate_id].is_two_qubit
            sites = device.num_edges if two else device.num_physical
            gates[i] = replace(g, location=draw(st.integers(0, sites - 1)))
    elif kind == "trajectory":
        t = draw(st.integers(0, len(traj) - 1), label="slot")
        q = draw(st.integers(0, circuit.num_qubits - 1), label="qubit")
        traj[t][q] = draw(st.integers(0, device.num_physical - 1))
    elif kind == "add":
        swaps.append(SwapPlacement(edge=draw(st.integers(0, device.num_edges - 1)),
                                   finish_time=draw(st.integers(0, len(traj) - 1))))
    else:
        j = draw(st.integers(0, len(swaps) - 1), label="swap")
        s = swaps.pop(j)
        if kind == "finish":
            swaps.insert(j, replace(s, finish_time=s.finish_time + draw(
                st.sampled_from([-2, -1, 1, 2]))))
        elif kind == "edge":
            swaps.insert(j, replace(s, edge=draw(st.integers(0, device.num_edges - 1))))
    mutant = replace(result, gates=tuple(gates), swaps=tuple(swaps),
                     mapping_trajectory=tuple(tuple(row) for row in traj),
                     initial_mapping=tuple(traj[0]), swap_count=len(swaps),
                     depth_slots=1 + max(g.time for g in gates))
    return replace(mutant, fidelity_scaled=_scaled_fidelity(circuit, device, mutant))


def test_flow_results_replay(flow_results):
    assert len(flow_results) >= 48
    assert any(result.swaps for *_, result in flow_results)
    for circuit, device, S, result in flow_results:
        assert check_result(circuit, device, result, S=S) == []
        assert _replays(circuit, device, result, S)


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_check_result_refuses_exactly_the_invalid_mutants(flow_results, data):
    circuit, device, S, result = data.draw(st.sampled_from(flow_results), label="result")
    mutant = _mutate(circuit, device, result, data.draw)
    assert (check_result(circuit, device, mutant, S=S) == []) == \
        _replays(circuit, device, mutant, S)
