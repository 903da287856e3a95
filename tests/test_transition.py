"""Transition-based flow: coarse blocks, plan checking, exact-time replay."""

from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from qlayout import _cdcl, exact
from qlayout import solver as sv
from qlayout import transition
from qlayout.circuit import (
    Circuit,
    Gate,
    load_circuit,
    parse_program,
    preprocess,
)
from qlayout.device import DeviceError, build_device, load_device
from qlayout.exact import OBJECTIVES, EncodingConfig, _fits, encode
from qlayout.oracle import oracle_optimal
from qlayout.qaoa import synthesize_qaoa
from qlayout.results import SwapPlacement, TransitionPlan
from qlayout.transition import (
    _block_order,
    _polish_plan,
    asap_schedule,
    check_plan,
    encode_tb,
    extract_plan,
    synthesize_tb,
)
from qlayout.verify import check_result
from test_exact import ORACLE_DEVICES, flow_pins, spy_searches
from test_solver import _with_search_calls

PATH3 = build_device(3, [(0, 1), (1, 2)])
CYCLE4 = build_device(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
TRIANGLE = load_circuit("qubits 3\ncx q0 q1\ncx q1 q2\ncx q0 q2\n")


def bundled_device(name):
    return load_device((resources.files("qlayout") / "data" / name).read_text())


def bundled_circuit(name):
    return load_circuit((resources.files("qlayout") / "data" / name).read_text())


def _encode_tb(circuit, device, T, objective="swap"):
    """encode_tb with the symmetry pins the flows find for it."""
    return encode_tb(circuit, device, T, objective,
                     pins=flow_pins(circuit, device, objective))


def test_triangle_coarse_horizons():
    m1, _ = _encode_tb(TRIANGLE, PATH3, 1)
    assert sv.solve(m1).status == sv.UNSAT
    m2, vs2 = _encode_tb(TRIANGLE, PATH3, 2)
    verdict = sv.solve(m2)
    assert verdict.status == sv.SAT
    assert verdict.objective_value == 1
    plan = extract_plan(TRIANGLE, PATH3, verdict, vs2)
    check_plan(plan, TRIANGLE, PATH3)
    assert plan.num_blocks == 2
    assert len(plan.transitions) == 1 and len(plan.transitions[0]) == 1


def test_triangle_end_to_end():
    plan, result = synthesize_tb(TRIANGLE, PATH3, objective="swap")
    assert result.swap_count == 1
    assert result.depth_blocks == 2
    assert check_result(TRIANGLE, PATH3, result) == []


def test_rejects_unpreprocessed():
    with pytest.raises(ValueError, match="preprocessed"):
        synthesize_tb(parse_program("qubits 3\ncx q0 q1\n"), PATH3)


def test_rejects_swap_duration_below_one_before_solving(monkeypatch):
    solves = []
    monkeypatch.setattr(sv, "solve", lambda *args, **kwargs: solves.append(1))
    with pytest.raises(ValueError, match="S must be >= 1"):
        synthesize_tb(TRIANGLE, PATH3, S=0)
    assert solves == []


@pytest.mark.parametrize("S", [1.5, 3.0, True, "3"])
def test_rejects_a_non_int_swap_duration_before_solving(monkeypatch, S):
    # S=1.5 once reached the scheduler and failed there as a backend error
    plan, _ = synthesize_tb(TRIANGLE, PATH3)
    with pytest.raises(ValueError, match="S must be an int"):
        asap_schedule(plan, TRIANGLE, PATH3, S=S)
    solves = []
    monkeypatch.setattr(sv, "solve", lambda *args, **kwargs: solves.append(1))
    with pytest.raises(ValueError, match="S must be an int"):
        synthesize_tb(bundled_circuit("adder.gates"), bundled_device("qx2.json"), S=S)
    assert solves == []


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
        transitions=(frozenset({0, 1}),),  # edges 0,1 share node 1
    )
    with pytest.raises(ValueError):
        check_plan(plan, circ, PATH3)


def test_check_plan_catches_wrong_mapping_step():
    circ = load_circuit("qubits 2\ncx q0 q1\ncx q0 q1\n")
    plan = TransitionPlan(
        num_blocks=2,
        gate_block=(0, 1),
        block_mapping=((0, 1), (0, 1)),  # swap on edge 0 not applied
        transitions=(frozenset({0}),),
    )
    with pytest.raises(ValueError):
        check_plan(plan, circ, PATH3)


def test_check_plan_needs_one_transition_per_boundary():
    # every block boundary has its SWAP set, an empty one included
    circ = load_circuit("qubits 2\ncx q0 q1\ncx q0 q1\n")
    plan = TransitionPlan(
        num_blocks=2,
        gate_block=(0, 1),
        block_mapping=((0, 1), (0, 1)),
        transitions=(frozenset(),),
    )
    check_plan(plan, circ, PATH3)
    assert asap_schedule(plan, circ, PATH3).swap_count == 0
    for transitions in ((), (frozenset(), frozenset())):
        with pytest.raises(ValueError, match="transitions for 2 blocks"):
            check_plan(replace(plan, transitions=transitions), circ, PATH3)


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
        transitions=(frozenset({0}),),
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
    circ = bundled_circuit("adder.gates")
    dev = bundled_device("qx2.json")
    pins = flow_pins(circ, dev, "swap")

    def build(T):
        model, vs = encode(circ, dev, EncodingConfig(T=T), pins=pins)
        return exact.apply_objective(model, vs, "swap", dev, circ), lambda verdict: verdict

    _, tb_work = _search_work(
        monkeypatch, lambda: synthesize_tb(circ, dev, objective="swap"))
    # the exact model the flow solved on this row before the TB schedule
    # certified it: the horizon loop from T0 with the pins
    (verdict, details), exact_work = _search_work(
        monkeypatch, lambda: exact.solve_horizons(
            build, circ.longest_chain, exact.grow_T, "swap", None, 256, min_swaps=1))
    assert (verdict.objective_value, details.solver_T) == (1, 16)
    # 61 + 3,265 against 4,976 + 238,172 when this test was written
    assert tb_work < exact_work
    # and the exact flow now answers the row from TB, with no exact model
    builds = []
    encode_ = exact.encode
    monkeypatch.setattr(exact, "encode", lambda *a, **k: builds.append(a[2].T) or encode_(*a, **k))
    result = exact.synthesize(circ, dev, "swap")
    assert builds == []
    assert (result.swap_count, result.solver_T) == (1, 16)


def test_proven_bounds_keep_every_result(monkeypatch):
    """The lower bounds the horizon loop hands each solve (1 SWAP off an
    embedding, the depth below the first satisfiable horizon) spare
    searches and change no result: with the bound dropped, every flow
    returns the same results."""
    from qlayout.qaoa import phase_separation_from_graph

    prism = phase_separation_from_graph(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    grid, qx2 = bundled_device("grid2x3.json"), bundled_device("qx2.json")
    runs = [lambda: synthesize_qaoa(prism, grid, objective=objective, S=1)
            for objective in ("swap", "depth")]
    for name in ("adder", "4mod5-v1_22"):
        circ = bundled_circuit(f"{name}.gates")
        runs += [lambda circ=circ, objective=objective: synthesize_tb(circ, grid, objective)
                 for objective in ("swap", "depth")]
        runs.append(lambda circ=circ: exact.synthesize(circ, qx2, "depth"))

    bounded, bounded_calls = _with_search_calls(lambda: [run() for run in runs])
    solve = sv.solve
    monkeypatch.setattr(sv, "solve", lambda model, deadline=None, bound=None: solve(model, deadline))
    plain, plain_calls = _with_search_calls(lambda: [run() for run in runs])
    assert bounded == plain
    assert bounded_calls < plain_calls


def test_heavy_polish_rows_keep_their_results():
    dev = bundled_device("grid2x3.json")
    for name, swaps, depth in (("adder", 4, 16), ("qaoa5", 4, 21)):
        circ = bundled_circuit(f"{name}.gates")
        _, result = synthesize_tb(circ, dev, objective="depth")
        assert (result.swap_count, result.depth_slots) == (swaps, depth)
        assert check_result(circ, dev, result) == []


# Reference polish: the per-leaf scheduler that rebuilt its predecessor
# lists, block buckets and SWAP records on every call, and the recursive
# exhaustive walk over it. The pruned walk must return its plan when the
# budget does not bind, and never end deeper when it does.

def _reference_schedule(gate_block, plan, circuit, device, S):
    preds = [[] for _ in range(circuit.num_gates)]
    for l, lp in circuit.dependencies:
        preds[lp].append(l)
    by_block = [[] for _ in range(plan.num_blocks)]
    for l, b in enumerate(gate_block):
        by_block[b].append(l)
    fired = (*plan.transitions, frozenset())
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
        for k in sorted(fired[b]):
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
    if all(len(blocks) == 1 for blocks in feas):
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
    """The pruned polish, with its full-split schedules counted: the plan's
    own and one per leaf reached. The reference's `calls` count the same."""
    calls = []
    core = transition._schedule_core

    def counted(tables, order, *args):
        if sum(map(len, order)) == circuit.num_gates:
            calls.append(None)
        return core(tables, order, *args)

    with monkeypatch.context() as m:
        m.setattr(transition, "_schedule_core", counted)
        polished = _polish_plan(plan, circuit, device, S, node_budget)
    return polished, len(calls)


def _coarse_plan(circuit, device, objective):
    """The unpolished plan of the first satisfiable coarse horizon."""
    for T in range(1, 8):
        model, vs = _encode_tb(circuit, device, T, objective)
        verdict = sv.solve(model)
        if verdict.status == sv.SAT:
            return extract_plan(circuit, device, verdict, vs)
    raise AssertionError("no coarse horizon up to 7 blocks")


@st.composite
def tb_circuits(draw, user_deps=True):
    """(circuit, device): a small random circuit of one- and two-qubit
    gates, with repeated pairs made likely. Dependencies are the collisions,
    or, if `user_deps`, maybe drawn pairs that need not share a qubit (always,
    if it is "always")."""
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
    deps = None
    if user_deps == "always" or user_deps and draw(st.booleans()):
        later = [(l, lp) for lp in range(len(gates)) for l in range(lp)]
        deps = draw(st.lists(st.sampled_from(later), max_size=6)) if later else []
    return preprocess(Circuit(num_qubits=M, gates=tuple(gates)), deps), device


@st.composite
def tb_plans(draw, user_deps=True):
    """A solved coarse plan for a tb_circuits circuit."""
    circuit, device = draw(tb_circuits(user_deps))
    objective = draw(st.sampled_from(["swap", "depth"]))
    return circuit, device, _coarse_plan(circuit, device, objective)


def _polished_depth(plan, circuit, device, S):
    return asap_schedule(plan, circuit, device, S=S).depth_slots


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tb_plans(), st.sampled_from([3, 1]), st.sampled_from([0, 1, 2, 3, 5, 20000]))
def test_polish_matches_reference(monkeypatch, instance, S, node_budget):
    # the pruned walk skips only leaves that cannot win: unbounded it returns
    # the exhaustive walk's plan, and under a binding budget it reaches no
    # more leaves and ends no deeper
    circuit, device, plan = instance
    ref_calls = []
    expected = _reference_polish(plan, circuit, device, S, node_budget, ref_calls)
    polished, calls = _counting_polish(monkeypatch, plan, circuit, device, S,
                                       node_budget)
    if node_budget == 20000:
        assert polished == expected
    assert (_polished_depth(polished, circuit, device, S)
            <= _polished_depth(expected, circuit, device, S))
    assert calls <= len(ref_calls)
    check_plan(polished, circuit, device)
    after = asap_schedule(polished, circuit, device, S=S)
    assert after.depth_slots <= _polished_depth(plan, circuit, device, S)
    assert check_result(circuit, device, after, S=S) == []


@pytest.mark.parametrize("node_budget", [0, 1, 5, 20000])
def test_polish_budget_on_a_heavy_row(monkeypatch, node_budget):
    # the exhaustive walk scores thousands of splits on these rows, so the
    # small budgets stop it early; qaoa5's is the row the prefix bound
    # prunes least, as no split beats the plan's own depth there
    dev = bundled_device("grid2x3.json")
    for name in ("adder", "qaoa5"):
        circ = bundled_circuit(f"{name}.gates")
        plan = _coarse_plan(circ, dev, "depth")
        ref_calls = []
        expected = _reference_polish(plan, circ, dev, 3, node_budget, ref_calls)
        polished, calls = _counting_polish(monkeypatch, plan, circ, dev, 3,
                                           node_budget)
        if node_budget == 20000:
            assert polished == expected, name
        else:
            assert len(ref_calls) == node_budget + 1, name
        assert (_polished_depth(polished, circ, dev, 3)
                <= _polished_depth(expected, circ, dev, 3)), name
        assert calls <= len(ref_calls), name


def test_dominated_blocks_cut_the_qaoa5_polish(monkeypatch):
    # qaoa5/grid2x3/depth: no split runs shorter than the plan's own 21
    # slots, and the walk took 6,889 schedules to prove it before it
    # skipped dominated blocks, and 1,189 before it left out the blocks past
    # the last one a gate's successors can follow
    dev = bundled_device("grid2x3.json")
    circ = bundled_circuit("qaoa5.gates")
    plan = _coarse_plan(circ, dev, "depth")
    schedules = []
    core = transition._schedule_core
    with monkeypatch.context() as m:
        m.setattr(transition, "_schedule_core",
                  lambda *args: schedules.append(None) or core(*args))
        polished = _polish_plan(plan, circ, dev, 3)
    assert polished is plan
    assert polished == _reference_polish(plan, circ, dev, 3, 20000, [])
    assert _polished_depth(plan, circ, dev, 3) == 21
    assert len(schedules) <= 900


def _feasible_blocks(plan, circuit, device):
    """Per gate, the blocks whose mapping puts its qubits on an edge."""
    feas = []
    for g in circuit.gates:
        sites = [[row[q] for q in g.qubits] for row in plan.block_mapping]
        feas.append([b for b, ps in enumerate(sites)
                     if len(ps) == 1 or ps[1] in device.neighbours[ps[0]]])
    return feas


def _random_split(plan, circuit, device, data):
    """A feasible split of the plan's gates into its blocks, drawn at
    random."""
    B, L = plan.num_blocks, circuit.num_gates
    feas = _feasible_blocks(plan, circuit, device)
    succs = [[] for _ in range(L)]
    for l, lp in circuit.dependencies:
        succs[l].append(lp)
    # latest[l]: the last block gate l can take with its successors placed;
    # the plan's own split keeps every latest[l] feasible
    latest = [B - 1] * L
    for l in reversed(range(L)):
        top = min((latest[s] for s in succs[l]), default=B - 1)
        latest[l] = max(b for b in feas[l] if b <= top)
    split = [0] * L
    for l in range(L):
        low = max((split[i] for i, lp in circuit.dependencies if lp == l), default=0)
        split[l] = data.draw(st.sampled_from(
            [b for b in feas[l] if low <= b <= latest[l]]))
    check_plan(replace(plan, gate_block=tuple(split)), circuit, device)
    return split


@settings(max_examples=60, deadline=None)
@given(tb_plans(), st.sampled_from([3, 1]), st.data())
def test_polish_bounds_are_sound(instance, S, data):
    # for a feasible split drawn at random, the longest dependency chain and
    # the bound of every prefix of the split stay within its depth
    circuit, device, plan = instance
    B, L = plan.num_blocks, circuit.num_gates
    split = _random_split(plan, circuit, device, data)
    tables = transition._schedule_tables(plan, circuit, device)
    gate_time, _ = transition._schedule_core(tables, _block_order(split, B), S)
    depth = max(gate_time) + 1
    assert circuit.longest_chain <= depth
    tail = circuit.tail
    for k in range(1, L + 1):
        prefix = _block_order(split[:k], B)
        times, _ = transition._schedule_core(tables, prefix, S)
        assert all(times[i] <= gate_time[i] for i in range(k))
        bound = max(times[i] + tail[i] + 1 for i in range(k))
        assert bound <= depth
        # the limit cuts the prefix exactly at its bound
        assert transition._schedule_core(tables, prefix, S, bound) is None
        assert transition._schedule_core(tables, prefix, S, bound + 1) is not None


PATH4 = build_device(4, [(0, 1), (1, 2), (2, 3)])
# two h gates on each qubit; the second pair in a chain after the second
# h q0, which commutes with the first
COMMUTING = load_circuit("qubits 2\nh q0\nh q0\nh q1\nh q1\n", [(1, 2), (2, 3)])


def test_polish_keeps_a_block_for_a_gate_that_commutes():
    # the first h q0 sits on node 0 in blocks 0 and 1, and the SWAP between
    # them leaves node 0 alone; but it commutes with its twin, so block 1 is
    # not dominated: in block 0 it holds up the twin and the chain after it,
    # in block 1 it runs beside them, 3 slots against 4. On the two-block
    # plan no block choice moves it off node 0, and the walk still tries
    # block 1
    three = TransitionPlan(
        num_blocks=3, gate_block=(0, 0, 0, 0),
        block_mapping=((0, 1), (0, 2), (1, 2)),
        transitions=(frozenset({PATH4.edge_index(1, 2)}),
                     frozenset({PATH4.edge_index(0, 1)})))
    two = TransitionPlan(
        num_blocks=2, gate_block=(0, 0, 0, 0),
        block_mapping=((0, 1), (0, 2)),
        transitions=(frozenset({PATH3.edge_index(1, 2)}),))
    for plan, device in ((three, PATH4), (two, PATH3)):
        assert _polished_depth(plan, COMMUTING, device, 3) == 4
        polished = _polish_plan(plan, COMMUTING, device, 3)
        assert polished.gate_block == (1, 0, 0, 0)
        assert _polished_depth(polished, COMMUTING, device, 3) == 3
        assert polished == _reference_polish(plan, COMMUTING, device, 3, 20000, [])


@st.composite
def drawn_plans(draw, user_deps=True):
    """A plan drawn rather than solved, for a small random circuit with the
    default dependencies or, if `user_deps`, maybe drawn ones: a random
    first mapping, random node-disjoint SWAP sets and the earliest feasible
    split. Unlike solved plans, these often move a qubit away and back."""
    device = draw(st.sampled_from([PATH4, CYCLE4, bundled_device("qx2.json")]))
    N = device.num_physical
    M = draw(st.integers(min_value=2, max_value=min(4, N)))
    rows = [tuple(draw(st.permutations(range(N)))[:M])]
    transitions = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        used, fired = set(), []
        for k in draw(st.lists(st.sampled_from(range(device.num_edges)), max_size=3)):
            a, b = device.edges[k]
            if not used & {a, b}:
                used |= {a, b}
                fired.append(k)
        transitions.append(frozenset(fired))
        rows.append(exact.swap_step(rows[-1], sorted(fired), device))
    gates = []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        qubits = draw(st.sampled_from(
            [(q,) for q in range(M)] + [(a, b) for a in range(M) for b in range(M) if a != b]))
        gates.append(Gate(index=i, name="h" if len(qubits) == 1 else "cx", qubits=qubits))
    deps = None
    if user_deps and draw(st.booleans()):
        later = [(l, lp) for lp in range(len(gates)) for l in range(lp)]
        deps = draw(st.lists(st.sampled_from(later), max_size=6)) if later else []
    circuit = preprocess(Circuit(num_qubits=M, gates=tuple(gates)), deps)
    plan = TransitionPlan(num_blocks=len(rows), gate_block=(0,) * len(gates),
                          block_mapping=tuple(rows), transitions=tuple(transitions))
    feas = _feasible_blocks(plan, circuit, device)
    split = []
    for l in range(len(gates)):
        low = max((split[i] for i, lp in circuit.dependencies if lp == l), default=0)
        split.append(next((b for b in feas[l] if b >= low), None))
        assume(split[-1] is not None)
    return circuit, device, replace(plan, gate_block=tuple(split))


@settings(max_examples=100, deadline=None)
@given(st.one_of(tb_plans(), drawn_plans()), st.sampled_from([3, 1]), st.data())
def test_a_dominated_block_is_never_better(instance, S, data):
    # moving a gate of a random split from a block the polish skips down to
    # the block it keeps instead leaves every gate time and SWAP as it was
    circuit, device, plan = instance
    B = plan.num_blocks
    split = _random_split(plan, circuit, device, data)
    tables = transition._schedule_tables(plan, circuit, device)
    dominated = transition._dominated(tables)
    scheduled = transition._schedule_core(tables, _block_order(split, B), S)
    for l, b in enumerate(split):
        bound = max((split[i] for i in tables.preds[l]), default=0)
        kept = b
        while kept > bound and dominated[l][kept]:
            kept -= 1
        if kept == b:
            continue
        moved = [*split[:l], kept, *split[l + 1:]]
        check_plan(replace(plan, gate_block=tuple(moved)), circuit, device)
        assert transition._schedule_core(tables, _block_order(moved, B), S) == scheduled


@settings(max_examples=100, deadline=None)
@example(instance=(
    load_circuit("qubits 2\nh q0\ncx q1 q0\nh q1\ncx q0 q1\nh q1\ncx q0 q1\n",
                 [(0, 1), (0, 3), (0, 5), (1, 5), (2, 4), (3, 4)]),
    CYCLE4,
    TransitionPlan(num_blocks=4, gate_block=(1, 1, 1, 1, 1, 1),
                   block_mapping=((0, 3), (0, 3), (0, 2), (1, 3)),
                   transitions=(frozenset(), frozenset({2}), frozenset({0, 2})))),
    S=1, node_budget=20000)
@given(drawn_plans(), st.sampled_from([3, 1]), st.sampled_from([1, 3, 20000]))
def test_polish_matches_reference_on_drawn_plans(instance, S, node_budget):
    # no drawn plan reaches the default budget, so there the pruned walk
    # must return the exhaustive walk's plan, and end no deeper under a
    # budget that binds. In the example, h q0 sits on node 0 in blocks 0 to
    # 2 and is ordered against every gate on q0, so the walk skips blocks 1
    # and 2 for it; cx q1 q0 after it, which commutes with h q1, keeps every
    # block of its own, and the best split stays
    circuit, device, plan = instance
    expected = _reference_polish(plan, circuit, device, S, node_budget, [])
    polished = _polish_plan(plan, circuit, device, S, node_budget)
    if node_budget == 20000:
        assert polished == expected
    assert (_polished_depth(polished, circuit, device, S)
            <= _polished_depth(expected, circuit, device, S))


def test_polish_stops_at_the_chain_bound(monkeypatch):
    # adder/qx2/swap: the plan's own split already runs as long as the
    # longest dependency chain, so no leaf can win; the exhaustive walk
    # scored 68 of them
    circ = bundled_circuit("adder.gates")
    dev = bundled_device("qx2.json")
    plan = _coarse_plan(circ, dev, "swap")
    assert _polished_depth(plan, circ, dev, 3) == circ.longest_chain == 16
    schedules = []
    core = transition._schedule_core
    monkeypatch.setattr(transition, "_schedule_core",
                        lambda *args: schedules.append(None) or core(*args))
    assert _polish_plan(plan, circ, dev, 3) is plan
    assert len(schedules) == 1


def test_automorphisms_found_once_per_flow_call(monkeypatch):
    # the symmetry pins do not depend on the horizon; the triangle tries two
    # TB horizons, and the exact flow with extra_t=2 at least three
    calls = []
    found = exact.enumerate_automorphisms
    monkeypatch.setattr(exact, "enumerate_automorphisms",
                        lambda device, deadline: calls.append(None) or found(device, deadline))
    _, result = synthesize_tb(TRIANGLE, CYCLE4)
    assert len(calls) == 1
    assert check_result(TRIANGLE, CYCLE4, result) == []
    calls.clear()
    result, details = exact.synthesize(TRIANGLE, CYCLE4, extra_t=2, return_details=True)
    assert len(details.tried_T) >= 3
    assert len(calls) == 1
    assert check_result(TRIANGLE, CYCLE4, result) == []


# Soundness of what encode_tb adds to the coarse model, on random instances
# within the oracle caps (M <= 4, L <= 6, N <= 5).

CUT_DEVICES = [
    build_device(4, [(0, 1), (1, 2), (2, 3)]),  # bipartite path
    CYCLE4,  # bipartite and symmetric
    build_device(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),  # odd cycle
    build_device(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),  # odd cycle, pendant
    build_device(5, [(0, 1), (1, 2), (3, 4)]),  # disconnected
    # a weaker edge and measurement leave only part of the group for fidelity
    build_device(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                 {"measure": [0.9, 0.99, 0.99, 0.99], "two": [0.98, 0.98, 0.95, 0.98]}),
]


@st.composite
def cut_instances(draw):
    """A device and a circuit of up to 6 gates on 2-4 qubits that fits it:
    one- and two-qubit gates with repeated pairs, dependencies derived or
    none (a commuting circuit, as in the QAOA flow)."""
    device = draw(st.sampled_from(CUT_DEVICES))
    M = draw(st.integers(min_value=2, max_value=4))
    pairs = [(a, b) for a in range(M) for b in range(a + 1, M)]
    favourite = draw(st.sampled_from(pairs))
    lines = [f"qubits {M}"]
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["1q", "pair", "repeat"]))
        if kind == "1q":
            lines.append(f"h q{draw(st.integers(min_value=0, max_value=M - 1))}")
        else:
            a, b = draw(st.sampled_from(pairs)) if kind == "pair" else favourite
            lines.append(f"cx q{a} q{b}")
    circuit = load_circuit("\n".join(lines) + "\n",
                           user_deps=[] if draw(st.booleans()) else None)
    assume(_fits(circuit, device))
    return circuit, device


class _ClauseRecorder:
    """Stands in for the model in _coarse_cuts and keeps its clause rows;
    the degree cut's weighted rows are dropped. Literal lists come from `model`, a
    coarse model of the same layout, so the rows hold that layout's
    literals."""

    def __init__(self, model):
        self.lits = model.lits
        self.clauses = []

    def require_clauses(self, rows):
        self.clauses += map(list, rows)

    def require_at_least(self, rows):
        pass


@settings(max_examples=50, deadline=None)
@given(cut_instances())
def test_one_hop_clauses_follow_from_the_coarse_model(instance):
    """Each clause _coarse_cuts adds to encode_tb's model at T = 2 and 3,
    the one-hop family, is implied by the coarse model without cuts: with
    the clause negated, that model is unsatisfiable.

    The degree cut, the other family, is left out because it is unsound: it
    counts a qubit's gates, not its distinct partners. The strict xfail
    test_tb_repeated_pair_fits_one_block in perfbench/ covers it.
    """
    circuit, device = instance
    for T in (2, 3):
        config = EncodingConfig(T=T, S=1)
        model, vs = encode(circuit, device, config, coarse=True)
        cuts = _ClauseRecorder(model)
        transition._coarse_cuts(cuts, vs, circuit, device, T)
        assert len(cuts.clauses) == circuit.num_qubits * (T - 1) * device.num_physical
        for clause in cuts.clauses:
            base, _ = encode(circuit, device, config, coarse=True)
            base.require_clauses([[lit ^ 1] for lit in clause])
            assert sv.solve(base).status == sv.UNSAT, clause


@settings(max_examples=50, deadline=None)
@example(instance=(load_circuit("qubits 2\ncx q0 q1\n"), CUT_DEVICES[-1]),
         objective="fidelity")  # the weak node 0 is no orbit representative
@given(cut_instances(), st.sampled_from(OBJECTIVES))
def test_symmetry_clauses_keep_the_optimum(instance, objective):
    # every horizon keeps its status and optimum without the clauses: the
    # coarse model at 1-3 blocks, the exact model at the longest chain and
    # one and two slots past it
    circuit, device = instance
    pins = flow_pins(circuit, device, objective)

    def optimum(model):
        verdict = sv.solve(model)
        return verdict.status, verdict.objective_value

    def exact_model(T, pins):
        model, vs = encode(circuit, device, EncodingConfig(T=T, objective=objective),
                           pins=pins)
        return exact.apply_objective(model, vs, objective, device, circuit)

    for T in (1, 2, 3):
        assert optimum(encode_tb(circuit, device, T, objective, pins=pins)[0]) == \
            optimum(encode_tb(circuit, device, T, objective, pins=())[0]), T
    chain = circuit.longest_chain
    for T in (chain, chain + 1, chain + 2):
        assert optimum(exact_model(T, pins)) == optimum(exact_model(T, ())), T


def _skewed(device):
    """The device with no uniform weight class: every site weighs
    differently, so objective_fidelity states its location rows."""
    n, k = device.num_physical, device.num_edges
    return build_device(n, device.edges, {"measure": [0.99 - 0.001 * p for p in range(n)],
                                          "single": [0.999 - 0.002 * p for p in range(n)],
                                          "two": [0.98 - 0.001 * e for e in range(k)]})


@pytest.mark.parametrize("circuit_name", ["or", "adder", "qaoa5", "4mod5-v1_22"])
@pytest.mark.parametrize("device_name", ["qx2", "grid2x3", "grid2x4", "skewed qx2"])
def test_no_clause_family_repeats_a_column_in_a_row(circuit_name, device_name):
    """Every clause row the exact model (each objective, at the longest
    chain) and the coarse model (T = 2) state names each column once: no
    repeat and no complementary pair, which require_clauses keeps as
    written. On the skewed device this covers the fidelity objective's
    location rows."""
    circuit = bundled_circuit(f"{circuit_name}.gates")
    device = bundled_device(f"{device_name.removeprefix('skewed ')}.json")
    if device_name.startswith("skewed"):
        device = _skewed(device)
        assert all(len(set(ws)) == len(ws) for ws in device.scaled_profile)
    for objective in OBJECTIVES:
        pins = flow_pins(circuit, device, objective)
        config = EncodingConfig(T=circuit.longest_chain, objective=objective)
        model, vs = encode(circuit, device, config, pins=pins)
        exact.apply_objective(model, vs, objective, device, circuit)
        coarse, _ = encode_tb(circuit, device, 2, objective, pins=pins)
        for m in (model, coarse):
            rows = [row for row in m._assertions if row.__class__ is list]
            assert rows and all(len({lit >> 1 for lit in row}) == len(row) for row in rows)


@pytest.mark.parametrize("run", [synthesize_tb, synthesize_qaoa], ids=["tb", "qaoa"])
def test_unknown_objective_is_refused_before_any_search(monkeypatch, run):
    # as EncodingConfig refuses it for the exact flow
    calls = spy_searches(monkeypatch)
    circuit = load_circuit("qubits 3\ncx q0 q1\ncx q1 q2\ncx q0 q2\n", user_deps=[])
    with pytest.raises(ValueError, match="objective must be one of"):
        run(circuit, PATH3, "foo")
    assert calls == []
    run(circuit, PATH3, "swap")
    assert calls == ["embedding", "automorphisms"]


@pytest.mark.parametrize("max_T", [2.5, 3.0, True])
@pytest.mark.parametrize("run", [synthesize_tb, synthesize_qaoa], ids=["tb", "qaoa"])
def test_tb_and_qaoa_refuse_a_max_T_that_is_no_int(monkeypatch, run, max_T):
    # refused before any build, as EncodingConfig refuses it for the exact flow
    circuit = load_circuit("qubits 2\ncx q0 q1\n")
    builds = []
    encode_tb_ = transition.encode_tb
    monkeypatch.setattr(transition, "encode_tb",
                        lambda *a, **k: builds.append(1) or encode_tb_(*a, **k))
    with pytest.raises(ValueError, match="max_T must be an int"):
        run(circuit, PATH3, max_T=max_T)
    assert builds == []
    run(circuit, PATH3, max_T=1)
    assert builds == [1]


# Every TB and QAOA result is a schedule the verifier accepts, so none may
# use fewer SWAPs than the oracle's slot-free minimum over all schedules.

GUARD_DEVICES = CUT_DEVICES + [ORACLE_DEVICES[name] for name in sorted(ORACLE_DEVICES)]


@st.composite
def guard_instances(draw, flows=("tb", "qaoa")):
    """A device and an input that fits it, within the oracle caps: for TB a
    circuit of one- and two-qubit gates with derived dependencies, for QAOA
    a commuting circuit of two-qubit gates. The flow is one of `flows`."""
    device = draw(st.sampled_from(GUARD_DEVICES))
    flow = draw(st.sampled_from(flows))
    M = draw(st.integers(min_value=2, max_value=4))
    pairs = [(a, b) for a in range(M) for b in range(a + 1, M)]
    gate = st.sampled_from(pairs)
    if flow == "tb":
        gate = gate | st.integers(min_value=0, max_value=M - 1)
    lines = [f"qubits {M}"]
    for g in draw(st.lists(gate, min_size=1, max_size=6)):
        lines.append(f"h q{g}" if isinstance(g, int) else f"cx q{g[0]} q{g[1]}")
    circuit = load_circuit("\n".join(lines) + "\n", user_deps=[] if flow == "qaoa" else None)
    assume(_fits(circuit, device))
    return circuit, device, flow


@settings(max_examples=100, deadline=None)
@given(guard_instances(), st.sampled_from([1, 3]))
def test_tb_and_qaoa_never_beat_the_oracle(instance, S):
    circuit, device, flow = instance
    if flow == "tb":
        _, result = synthesize_tb(circuit, device, "swap", S=S)
    else:
        result = synthesize_qaoa(circuit, device, "swap", S=S)
    assert check_result(circuit, device, result, S=S) == []
    assert result.swap_count >= oracle_optimal(circuit, device, "swap", bounds=None)


@settings(max_examples=60, deadline=None)
@example(instance=(load_circuit("qubits 4\ncx q0 q1\ncx q1 q2\ncx q2 q3\ncx q3 q0\n",
                                user_deps=[]), CYCLE4, "qaoa"),
         S=1, objective="depth")  # in index order the ring's one block takes 4 slots, not 2
@given(guard_instances(flows=["qaoa"]), st.sampled_from([1, 3]), st.sampled_from(OBJECTIVES))
def test_tb_is_the_qaoa_flow_on_a_commuting_circuit(instance, S, objective):
    # with no dependency to keep, TB re-times each block to a minimum
    # colouring, as QAOA does: the same plan gives the same result
    circuit, device, _ = instance
    _, tb = synthesize_tb(circuit, device, objective, S=S)
    assert tb == synthesize_qaoa(circuit, device, objective, S=S)
    assert check_result(circuit, device, tb, S=S) == []


def _unordered_pair(circuit) -> bool:
    """Whether two gates share a qubit with no dependency path between them."""
    later = [set() for _ in circuit.gates]
    for l, lp in reversed(circuit.dependencies):
        later[l] |= {lp} | later[lp]
    return any(set(a.qubits) & set(b.qubits) and b.index not in later[a.index]
               for b in circuit.gates for a in circuit.gates[:b.index])


@settings(max_examples=60, deadline=None)
@given(tb_circuits(user_deps="always"), st.sampled_from(["swap", "depth"]))
def test_drawn_dependencies_through_tb_and_the_exact_flow(instance, objective):
    # TB keeps gates on one node apart by node availability, whatever the
    # dependencies; the exact flow refuses gates on one qubit that no
    # dependency path orders, before any search
    circuit, device = instance
    _, tb = synthesize_tb(circuit, device, objective)
    assert check_result(circuit, device, tb) == []
    if _unordered_pair(circuit):
        with pytest.raises(ValueError, match="no dependency path"):
            exact.synthesize(circuit, device, objective)
    else:
        assert check_result(circuit, device, exact.synthesize(circuit, device, objective)) == []
