"""Transition-based flow: coarse blocks, plan checking, exact-time replay."""

from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qlayout import _cdcl
from qlayout import solver as sv
from qlayout import transition
from qlayout.circuit import Circuit, Gate, load_circuit, parse_program, preprocess
from qlayout.device import DeviceError, build_device, load_device
from qlayout.results import SwapPlacement, TransitionPlan
from qlayout.transition import (
    _polish_plan,
    asap_schedule,
    check_plan,
    encode_tb,
    extract_plan,
    synthesize_tb,
)
from qlayout.verify import check_result

PATH3 = build_device(3, [(0, 1), (1, 2)])
CYCLE4 = build_device(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
TRIANGLE = load_circuit("qubits 3\ncx q0 q1\ncx q1 q2\ncx q0 q2\n")


def bundled_device(name):
    return load_device((resources.files("qlayout") / "data" / name).read_text())


def bundled_circuit(name):
    return load_circuit((resources.files("qlayout") / "data" / name).read_text())


def test_triangle_coarse_horizons():
    m1, _ = encode_tb(TRIANGLE, PATH3, 1)
    assert sv.solve(m1).status == sv.UNSAT
    m2, vs2 = encode_tb(TRIANGLE, PATH3, 2)
    verdict = sv.solve(m2)
    assert verdict.status == sv.SAT
    assert verdict.objective_value == 1
    plan = extract_plan(TRIANGLE, PATH3, verdict, vs2)
    check_plan(plan, TRIANGLE, PATH3)
    assert plan.num_blocks == 2
    assert sum(len(e) for _, e in plan.transitions) == 1


def test_triangle_end_to_end():
    plan, result = synthesize_tb(TRIANGLE, PATH3, objective="swap")
    assert result.swap_count == 1
    assert result.depth_blocks == 2
    assert check_result(TRIANGLE, PATH3, result) == []


def test_rejects_unpreprocessed():
    with pytest.raises(ValueError, match="preprocessed"):
        synthesize_tb(parse_program("qubits 3\ncx q0 q1\n"), PATH3)


def test_empty_circuit_plan():
    circ = load_circuit("qubits 2\n")
    plan, result = synthesize_tb(circ, PATH3)
    assert plan.num_blocks == 1
    assert plan.transitions == ()
    assert result.depth_slots == 0
    assert result.depth_blocks == 1
    assert check_result(circ, PATH3, result) == []


def test_or_qx2_matches_exact():
    plan, result = synthesize_tb(bundled_circuit("or.gates"),
                                 bundled_device("qx2.json"))
    assert result.swap_count == 0
    assert result.depth_slots == 9
    assert check_result(bundled_circuit("or.gates"),
                        bundled_device("qx2.json"), result) == []


def test_adder_qx2_one_swap_depth_16():
    circ = bundled_circuit("adder.gates")
    dev = bundled_device("qx2.json")
    plan, result = synthesize_tb(circ, dev, objective="swap")
    assert result.swap_count == 1
    assert result.depth_slots == 16
    assert check_result(circ, dev, result) == []


def test_adder_grids_swapless():
    circ = bundled_circuit("adder.gates")
    for dev_name in ("grid2x3.json", "grid2x4.json"):
        dev = bundled_device(dev_name)
        _, result = synthesize_tb(circ, dev, objective="swap")
        assert result.swap_count == 0
        assert check_result(circ, dev, result) == []


def test_unit_swap_duration():
    plan, result = synthesize_tb(TRIANGLE, PATH3, objective="swap", S=1)
    assert result.swap_count == 1
    assert check_result(TRIANGLE, PATH3, result, S=1) == []


def test_check_plan_catches_bad_blocks():
    plan = TransitionPlan(
        num_blocks=1,
        gate_block=(0, 0, 0),
        block_mapping=((0, 1, 1),),  # not injective
        transitions=(),
    )
    with pytest.raises(ValueError):
        check_plan(plan, TRIANGLE, PATH3)


def test_check_plan_catches_non_adjacent_gate():
    plan = TransitionPlan(
        num_blocks=1,
        gate_block=(0, 0, 0),
        block_mapping=((0, 1, 2),),  # q0,q2 not adjacent for gate 2
        transitions=(),
    )
    with pytest.raises(ValueError):
        check_plan(plan, TRIANGLE, PATH3)


def test_check_plan_catches_overlapping_transition_swaps():
    circ = load_circuit("qubits 2\ncx q0 q1\ncx q0 q1\n")
    plan = TransitionPlan(
        num_blocks=2,
        gate_block=(0, 1),
        block_mapping=((0, 1), (0, 1)),
        transitions=((0, frozenset({0, 1})),),  # edges 0,1 share node 1
    )
    with pytest.raises(ValueError):
        check_plan(plan, circ, PATH3)


def test_check_plan_catches_wrong_mapping_step():
    circ = load_circuit("qubits 2\ncx q0 q1\ncx q0 q1\n")
    plan = TransitionPlan(
        num_blocks=2,
        gate_block=(0, 1),
        block_mapping=((0, 1), (0, 1)),  # swap on edge 0 not applied
        transitions=((0, frozenset({0})),),
    )
    with pytest.raises(ValueError):
        check_plan(plan, circ, PATH3)


def test_asap_single_block_packs_parallel_gates():
    circ = load_circuit("qubits 4\ncx q0 q1\ncx q2 q3\n")
    dev = build_device(4, [(0, 1), (1, 2), (2, 3)])
    plan = TransitionPlan(
        num_blocks=1,
        gate_block=(0, 0),
        block_mapping=((0, 1, 2, 3),),
        transitions=(),
    )
    result = asap_schedule(plan, circ, dev)
    assert result.depth_slots == 1
    assert check_result(circ, dev, result) == []


def test_asap_transition_swap_window():
    # two sequential gates forced apart by a swap between their blocks
    circ = load_circuit("qubits 2\ncx q0 q1\ncx q0 q1\n")
    plan = TransitionPlan(
        num_blocks=2,
        gate_block=(0, 1),
        block_mapping=((0, 1), (1, 0)),
        transitions=((0, frozenset({0})),),
    )
    result = asap_schedule(plan, circ, PATH3, S=3)
    assert result.swap_count == 1
    # gate 0 at slot 0, swap occupies slots 1..3, gate 1 at slot 4
    assert [g.time for g in result.gates] == [0, 4]
    assert result.swaps[0].finish_time == 3
    assert check_result(circ, PATH3, result, S=3) == []


def test_asap_waits_for_declared_dependencies():
    # declared dependencies need not share a qubit; (1, 3) is implied
    # through gate 2, and gate 3 waits for the later of gates 0 and 2
    circ = load_circuit("qubits 3\nh q0\nh q1\nh q1\nh q2\n",
                        user_deps=[(0, 3), (1, 2), (2, 3), (1, 3)])
    plan = TransitionPlan(
        num_blocks=1,
        gate_block=(0, 0, 0, 0),
        block_mapping=((0, 1, 2),),
        transitions=(),
    )
    result = asap_schedule(plan, circ, PATH3)
    assert [g.time for g in result.gates] == [0, 0, 1, 2]
    assert check_result(circ, PATH3, result) == []


def _search_work(monkeypatch, run):
    """run()'s result, and the conflicts plus propagations summed over the
    Searcher.search calls it makes: search work that machine load cannot
    move."""
    work = [0]
    search = _cdcl.Searcher.search

    def spy(self, deadline=None):
        before = self.conflicts + self.propagations
        status = search(self, deadline)
        work[0] += self.conflicts + self.propagations - before
        return status

    monkeypatch.setattr(_cdcl.Searcher, "search", spy)
    result = run()
    monkeypatch.undo()
    return result, work[0]


def test_tb_runs_faster_than_exact_on_adder(monkeypatch):
    from qlayout.exact import synthesize
    circ = bundled_circuit("adder.gates")
    dev = bundled_device("qx2.json")
    _, tb_work = _search_work(
        monkeypatch, lambda: synthesize_tb(circ, dev, objective="swap"))
    exact_result, exact_work = _search_work(
        monkeypatch, lambda: synthesize(circ, dev, objective="swap"))
    assert exact_result.swap_count == 1
    # 61 + 3,265 against 4,976 + 238,172 when this test was written
    assert tb_work < exact_work


def test_heavy_polish_rows_keep_their_results():
    dev = bundled_device("grid2x3.json")
    for name, swaps, depth in (("adder", 5, 22), ("qaoa5", 4, 21)):
        circ = bundled_circuit(f"{name}.gates")
        _, result = synthesize_tb(circ, dev, objective="depth")
        assert (result.swap_count, result.depth_slots) == (swaps, depth)
        assert check_result(circ, dev, result) == []


# Reference polish: the per-leaf scheduler that rebuilt its predecessor
# lists, block buckets and SWAP records on every call, and the recursive
# walk over it. The table-driven version must make the same choices.

def _reference_schedule(gate_block, plan, circuit, device, S):
    preds = [[] for _ in range(circuit.num_gates)]
    for l, lp in circuit.dependencies:
        preds[lp].append(l)
    by_block = [[] for _ in range(plan.num_blocks)]
    for l, b in enumerate(gate_block):
        by_block[b].append(l)
    fired = dict(plan.transitions)
    node_free = [0] * device.num_physical
    gate_time = [0] * circuit.num_gates
    swaps = []
    for b in range(plan.num_blocks):
        row = plan.block_mapping[b]
        for l in by_block[b]:
            nodes = [row[q] for q in circuit.gates[l].qubits]
            bounds = [node_free[p] for p in nodes]
            bounds.extend(gate_time[i] + 1 for i in preds[l])
            slot = max(bounds, default=0)
            gate_time[l] = slot
            for p in nodes:
                node_free[p] = slot + 1
        for k in sorted(fired.get(b, ())):
            a, bb = device.edges[k]
            finish = max(node_free[a], node_free[bb]) + S - 1
            swaps.append(SwapPlacement(edge=k, finish_time=finish))
            node_free[a] = node_free[bb] = finish + 1
    swaps.sort(key=lambda s: (s.finish_time, s.edge))
    return gate_time, swaps


def _reference_polish(plan, circuit, device, S, node_budget, calls):
    """Returns the polished plan; appends one entry to `calls` per schedule."""
    B = plan.num_blocks
    L = circuit.num_gates
    if B < 2 or L == 0:
        return plan

    def position(g, b):
        row = plan.block_mapping[b]
        return tuple(row[q] for q in g.qubits)

    feas = []
    for g in circuit.gates:
        ok = []
        for b in range(B):
            if g.is_two_qubit:
                try:
                    device.edge_index(*position(g, b))
                except DeviceError:
                    continue
            ok.append(b)
        feas.append(ok)
    branching = [len({position(circuit.gates[l], b) for b in feas[l]}) > 1
                 for l in range(L)]
    if not any(branching):
        return plan
    preds = [[] for _ in range(L)]
    for l, lp in circuit.dependencies:
        preds[lp].append(l)

    def makespan(blocks):
        calls.append(None)
        gate_time, _ = _reference_schedule(blocks, plan, circuit, device, S)
        return max(gate_time) + 1

    best = {"blocks": list(plan.gate_block)}
    best["depth"] = makespan(best["blocks"])
    blocks = [0] * L
    visited = [0]

    def walk(l):
        if visited[0] >= node_budget:
            return
        if l == L:
            visited[0] += 1
            depth = makespan(blocks)
            if depth < best["depth"]:
                best["depth"], best["blocks"] = depth, blocks[:]
            return
        bound = max((blocks[i] for i in preds[l]), default=0)
        choices = [b for b in feas[l] if b >= bound]
        if not branching[l]:
            choices = choices[:1]
        for b in choices:
            blocks[l] = b
            walk(l + 1)
            if visited[0] >= node_budget:
                return

    walk(0)
    if best["blocks"] == list(plan.gate_block):
        return plan
    return replace(plan, gate_block=tuple(best["blocks"]))


def _counting_polish(monkeypatch, plan, circuit, device, S, node_budget):
    """The table-driven polish, with its _schedule_core calls counted."""
    calls = []
    core = transition._schedule_core

    def counted(*args):
        calls.append(None)
        return core(*args)

    with monkeypatch.context() as m:
        m.setattr(transition, "_schedule_core", counted)
        polished = _polish_plan(plan, circuit, device, S, node_budget)
    return polished, len(calls)


@st.composite
def tb_plans(draw):
    """A solved coarse plan for a small random circuit: one- and two-qubit
    gates, with repeated pairs made likely. Dependencies are the collisions,
    or drawn pairs that need not share a qubit."""
    device = draw(st.sampled_from([PATH3, CYCLE4, bundled_device("qx2.json")]))
    M = draw(st.integers(min_value=2, max_value=min(4, device.num_physical)))
    pairs = [(a, b) for a in range(M) for b in range(M) if a != b]
    favourite = draw(st.sampled_from(pairs))
    gates = []
    for i in range(draw(st.integers(min_value=1, max_value=7))):
        kind = draw(st.sampled_from(["1q", "pair", "repeat", "repeat"]))
        if kind == "1q":
            qubits = (draw(st.integers(min_value=0, max_value=M - 1)),)
        elif kind == "pair":
            qubits = draw(st.sampled_from(pairs))
        else:
            qubits = favourite
        gates.append(Gate(index=i, name="h" if len(qubits) == 1 else "cx",
                          qubits=qubits))
    user_deps = None
    if draw(st.booleans()):
        later = [(l, lp) for lp in range(len(gates)) for l in range(lp)]
        user_deps = draw(st.lists(st.sampled_from(later), max_size=6)) if later else []
    circuit = preprocess(Circuit(num_qubits=M, gates=tuple(gates)), user_deps)
    objective = draw(st.sampled_from(["swap", "depth"]))
    for T in range(1, 8):
        model, vs = encode_tb(circuit, device, T, objective)
        verdict = sv.solve(model)
        if verdict.status == sv.SAT:
            return circuit, device, extract_plan(circuit, device, verdict, vs)
    raise AssertionError("no coarse horizon up to 7 blocks")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tb_plans(), st.sampled_from([3, 1]), st.sampled_from([0, 1, 2, 3, 20000]))
def test_polish_matches_reference(monkeypatch, instance, S, node_budget):
    circuit, device, plan = instance
    ref_calls = []
    expected = _reference_polish(plan, circuit, device, S, node_budget, ref_calls)
    polished, calls = _counting_polish(monkeypatch, plan, circuit, device, S,
                                       node_budget)
    assert polished == expected
    assert calls == len(ref_calls)
    check_plan(polished, circuit, device)
    before = asap_schedule(plan, circuit, device, S=S)
    after = asap_schedule(polished, circuit, device, S=S)
    assert after.depth_slots <= before.depth_slots
    assert check_result(circuit, device, after, S=S) == []


@pytest.mark.parametrize("node_budget", [0, 1, 5, 20000])
def test_polish_budget_on_a_heavy_row(monkeypatch, node_budget):
    # adder/grid2x3/depth polishes over thousands of splits, so the small
    # budgets stop the walk early
    circ = bundled_circuit("adder.gates")
    dev = bundled_device("grid2x3.json")
    model, vs = encode_tb(circ, dev, 3, "depth")
    plan = extract_plan(circ, dev, sv.solve(model), vs)
    ref_calls = []
    expected = _reference_polish(plan, circ, dev, 3, node_budget, ref_calls)
    polished, calls = _counting_polish(monkeypatch, plan, circ, dev, 3, node_budget)
    assert polished == expected
    assert calls == len(ref_calls)
    if node_budget < 20000:
        assert calls == node_budget + 1
