"""The one subgraph search, exact._placements, and what it answers: perfect
layouts (the exact flow's answer without a model when the circuit fits the
device with no SWAP) and the device's automorphisms."""

import math
import time
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from qlayout import exact, solver as sv, transition
from qlayout.circuit import load_circuit
from qlayout.device import build_device
from qlayout.exact import (
    OBJECTIVES,
    SynthesisTimeout,
    TCapExceeded,
    _embedding,
    _pins_and_swap_bound,
    apply_objective,
    decode,
    encode,
    enumerate_automorphisms,
    grow_T,
    solve_horizons,
    synthesize,
)
from qlayout.qaoa import phase_separation_from_graph, synthesize_qaoa
from qlayout.transition import encode_tb, synthesize_tb
from qlayout.verify import check_result

from test_exact import ORACLE_DEVICES, bundled_circuit, bundled_device, flow_pins, spy_searches
from test_transition import CUT_DEVICES, CYCLE4, TRIANGLE

EMBED_DEVICES = CUT_DEVICES + [ORACLE_DEVICES[name] for name in sorted(ORACLE_DEVICES)]

# the ring of demos/fidelity_objective.py: one bad link, so the two-qubit
# gates weigh differently by edge
RING = build_device(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                    {"measure": [0.99] * 4, "single": [0.999] * 4,
                     "two": [0.99, 0.99, 0.99, 0.50]})
PAIR = load_circuit("qubits 2\ncx q0 q1\n")


def _value(result, objective):
    return {"swap": result.swap_count, "depth": result.depth_slots,
            "fidelity": result.fidelity_scaled}[objective]


def _uniform(device):
    return all(len(set(ws)) <= 1 for ws in device.scaled_profile)


def _brute_force_embeds(circuit, device):
    pairs = {frozenset(g.qubits) for g in circuit.gates if g.is_two_qubit}
    edges = set(map(frozenset, device.edges))
    return any(all(frozenset(perm[q] for q in pair) in edges for pair in pairs)
               for perm in permutations(range(device.num_physical), circuit.num_qubits))


def _count_builds(monkeypatch):
    builds = []
    encode_ = exact.encode
    monkeypatch.setattr(exact, "encode",
                        lambda *a, **k: builds.append(a[2].T) or encode_(*a, **k))
    return builds


@st.composite
def embed_instances(draw):
    """A device and a circuit of up to 7 gates on 1 to N qubits: one-qubit
    gates, repeated pairs and qubits no gate touches."""
    device = draw(st.sampled_from(EMBED_DEVICES))
    M = draw(st.integers(min_value=1, max_value=device.num_physical))
    pairs = [(a, b) for a in range(M) for b in range(a + 1, M)]
    lines = [f"qubits {M}"]
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        if pairs and draw(st.booleans()):
            a, b = draw(st.sampled_from(pairs))
            lines.append(f"cx q{a} q{b}")
        else:
            lines.append(f"h q{draw(st.integers(min_value=0, max_value=M - 1))}")
    return load_circuit("\n".join(lines) + "\n"), device


@settings(max_examples=150, deadline=None)
@example(instance=(TRIANGLE, CYCLE4))  # the third qubit must neighbour both others
@example(instance=(load_circuit("qubits 4\ncx q0 q1\ncx q2 q3\n"),
                   ORACLE_DEVICES["split"]))
@example(instance=(load_circuit("qubits 5\ncx q0 q1\ncx q0 q2\ncx q0 q3\nh q4\n"),
                   ORACLE_DEVICES["star"]))
@example(instance=(load_circuit("qubits 4\ncx q0 q1\ncx q1 q2\ncx q2 q3\n"),
                   ORACLE_DEVICES["split"]))  # never fits: one 4-qubit component
@given(embed_instances())
def test_embedding_is_exact(instance):
    """_embedding finds a placement exactly when a brute-force search over
    every injective placement does. Where it finds none, the one-block
    coarse model is unsatisfiable, also for a circuit that no horizon can
    host (the flows refuse that one before any model). Where it finds one,
    the exact model's
    horizon loop proves the value, objective value and horizon the flow
    reports without a model, under swap, depth and uniform fidelity."""
    circuit, device = instance
    placement = _embedding(circuit, device)
    assert (placement is not None) == _brute_force_embeds(circuit, device)
    if placement is None:
        model, _ = encode_tb(circuit, device, 1, "swap", pins=())
        assert sv.solve(model).status == sv.UNSAT
        return
    assert len(placement) == circuit.num_qubits == len(set(placement))
    assert all(0 <= p < device.num_physical for p in placement)
    edges = set(map(frozenset, device.edges))
    assert all(frozenset(placement[q] for q in g.qubits) in edges
               for g in circuit.gates if g.is_two_qubit)
    for objective in OBJECTIVES:
        if objective == "fidelity" and not _uniform(device):
            continue

        def build(T):
            model, vs = encode(circuit, device,
                               exact.EncodingConfig(T=T, objective=objective))
            apply_objective(model, vs, objective, device, circuit)
            return model, lambda verdict: decode(circuit, device, verdict, vs, T, objective)

        expected, proven = solve_horizons(
            build, max(1, circuit.longest_chain), grow_T, objective, None, 256)
        result, details = synthesize(circuit, device, objective, return_details=True)
        assert check_result(circuit, device, result) == []
        assert result.swap_count == 0
        assert result.initial_mapping == placement
        assert _value(result, objective) == _value(expected, objective)
        assert details == proven


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_perfect_layout_builds_no_model(monkeypatch, objective):
    builds = _count_builds(monkeypatch)
    searches = spy_searches(monkeypatch)
    circuit, device = bundled_circuit("or.gates"), bundled_device("qx2.json")
    result, details = synthesize(circuit, device, objective, return_details=True)
    assert builds == []
    # the embedding answers the call: no pins, no SWAP bound, no TB run
    assert searches == ["embedding"]
    assert check_result(circuit, device, result) == []
    assert (result.swap_count, result.depth_slots, result.solver_T) == (0, 9, 9)
    assert (details.tried_T, details.solver_T) == ([9], 9)
    assert details.objective_value == {"swap": 0, "depth": 8, "fidelity": -170}[objective]
    # no later horizon can beat a value at its bound
    assert synthesize(circuit, device, objective, extra_t=2) == result
    assert builds == []


@pytest.mark.parametrize("circuit, device, objective", [
    (bundled_circuit("4mod5-v1_22.gates"), bundled_device("qx2.json"), "depth"),
    (TRIANGLE, RING, "fidelity"),  # the demo: no embedding
    (PAIR, RING, "fidelity"),  # embeds, but the edges weigh differently
], ids=["4mod5-v1_22/qx2/depth", "ring/triangle/fidelity", "ring/pair/fidelity"])
def test_inputs_without_a_perfect_layout_build_a_model(monkeypatch, circuit, device,
                                                       objective):
    builds = _count_builds(monkeypatch)
    result, details = synthesize(circuit, device, objective, return_details=True)
    assert builds == details.tried_T
    assert check_result(circuit, device, result) == []


def test_ring_pair_under_swap_builds_no_model(monkeypatch):
    builds = _count_builds(monkeypatch)
    assert synthesize(PAIR, RING, "swap").swap_count == 0
    assert builds == []
    # the fidelity optimum keeps the pair off the bad link, (0, 3)
    result = synthesize(PAIR, RING, "fidelity")
    assert set(result.initial_mapping) != {0, 3}


@pytest.mark.parametrize("text", ["qubits 0\n", "qubits 2\n"], ids=["0 qubits", "2 idle qubits"])
def test_circuits_with_no_gate_need_no_swap(monkeypatch, text):
    # the exact flow answers each from its embedding, () for no qubit, with
    # no exact model; the coarse encodes go through transition's own name
    # and are not counted
    circuit, device = load_circuit(text, user_deps=[]), bundled_device("qx2.json")
    builds = _count_builds(monkeypatch)
    for objective in OBJECTIVES:
        for result in (synthesize(circuit, device, objective),
                       synthesize_tb(circuit, device, objective)[1],
                       synthesize_qaoa(circuit, device, objective)):
            assert result.swap_count == 0
            assert check_result(circuit, device, result) == []
    assert builds == []


@pytest.mark.parametrize("device_name", ["qx2.json", "grid2x3.json"])
def test_or_depth_optimum_needs_no_swap(device_name):
    circuit, device = bundled_circuit("or.gates"), bundled_device(device_name)
    result = synthesize(circuit, device, "depth")
    assert (result.depth_slots, result.swap_count) == (9, 0)
    assert check_result(circuit, device, result) == []


def test_perfect_layout_keeps_the_time_budget(monkeypatch):
    builds = _count_builds(monkeypatch)
    circuit, device = bundled_circuit("or.gates"), bundled_device("qx2.json")
    with pytest.raises(SynthesisTimeout):
        synthesize(circuit, device, config=exact.EncodingConfig(T=1, timeout=0))
    with pytest.raises(TCapExceeded):
        synthesize(circuit, device, config=exact.EncodingConfig(T=1, max_T=8))
    assert builds == []


# a time budget is None or a number of seconds >= 0: NaN would fail every
# deadline comparison and so lift the budget, a negative one is refused
# rather than read as spent, and a bool is no number of seconds (True would
# run for 1 s)
BAD_TIMEOUTS = [-1, -0.5, math.nan, "1", True, False]


@pytest.mark.parametrize("extra_t, timeout", [(-1, None)] + [(0, t) for t in BAD_TIMEOUTS])
def test_perfect_layout_checks_its_inputs_first(monkeypatch, extra_t, timeout):
    builds = _count_builds(monkeypatch)
    searches = spy_searches(monkeypatch)
    monkeypatch.setattr(sv, "solve", lambda *a, **k: searches.append("solve"))
    circuit, device = bundled_circuit("or.gates"), bundled_device("qx2.json")
    with pytest.raises(ValueError, match="extra_t" if extra_t else "timeout"):
        synthesize(circuit, device, extra_t=extra_t,
                   config=exact.EncodingConfig(T=1, timeout=timeout))
    with pytest.raises(ValueError, match="objective"):
        synthesize(circuit, device, "makespan")
    assert builds == searches == []


@pytest.mark.parametrize("timeout", [10**400, math.inf], ids=["10**400", "inf"])
def test_a_timeout_past_every_float_is_no_budget(monkeypatch, timeout):
    # 10**400 is a number >= 0 that no float holds: as inf, it sets no
    # deadline, where time.monotonic() + 10**400 would overflow
    assert exact._deadline(timeout, 1) is None
    calls = spy_deadlines(monkeypatch)
    adder, qx2 = bundled_circuit("adder.gates"), bundled_device("qx2.json")
    for result in (synthesize(adder, qx2, config=exact.EncodingConfig(T=1, timeout=timeout)),
                   synthesize_tb(adder, qx2, timeout=timeout)[1]):
        assert check_result(adder, qx2, result) == []
    assert synthesize_qaoa(K4, qx2, timeout=timeout) is not None
    assert calls and {deadline for _, deadline in calls} == {None}


def _coarse_horizons(monkeypatch):
    """The horizon of every coarse model built, and the solve count."""
    horizons, solves = [], []
    encode_tb_, solve = transition.encode_tb, sv.solve
    monkeypatch.setattr(transition, "encode_tb",
                        lambda c, d, T, *a, **k: horizons.append(T) or encode_tb_(c, d, T, *a, **k))
    monkeypatch.setattr(sv, "solve", lambda *a, **k: solves.append(1) or solve(*a, **k))
    return horizons, solves


K4 = phase_separation_from_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.mark.parametrize("flow, circuit, device", [
    ("tb", TRIANGLE, CYCLE4),
    ("tb", bundled_circuit("adder.gates"), bundled_device("qx2.json")),
    ("qaoa", K4, bundled_device("qx2.json")),
], ids=["tb/triangle/cycle4", "tb/adder/qx2", "qaoa/k4/qx2"])
def test_coarse_flows_skip_one_block_when_the_graph_does_not_embed(monkeypatch, flow,
                                                                   circuit, device):
    assert _embedding(circuit, device) is None
    horizons, solves = _coarse_horizons(monkeypatch)
    if flow == "tb":
        _, result = synthesize_tb(circuit, device)
    else:
        result = synthesize_qaoa(circuit, device)
    assert result.swap_count >= 1
    assert horizons[0] == 2 and len(solves) == len(horizons)
    assert check_result(circuit, device, result, S=3 if flow == "tb" else 1) == []


def test_coarse_flows_keep_one_block_when_the_graph_embeds(monkeypatch):
    # the one-block coarse model still decides, with its cuts
    horizons, _ = _coarse_horizons(monkeypatch)
    synthesize_tb(bundled_circuit("or.gates"), bundled_device("qx2.json"))
    assert horizons == [1]
    horizons.clear()
    synthesize_qaoa(phase_separation_from_graph([(0, 1), (1, 2), (2, 0)]),
                    bundled_device("qx2.json"))
    assert horizons == [1]


@pytest.mark.parametrize("timeout", BAD_TIMEOUTS)
@pytest.mark.parametrize("flow", ["tb", "qaoa"])
def test_coarse_flows_check_the_budget_before_the_embedding(monkeypatch, flow, timeout):
    # a bad timeout is refused before the placement search could read it as
    # spent; no horizon reaches a solve either way
    horizons, solves = _coarse_horizons(monkeypatch)
    searches = spy_searches(monkeypatch)
    run, circuit = {"tb": (synthesize_tb, TRIANGLE), "qaoa": (synthesize_qaoa, K4)}[flow]
    with pytest.raises(ValueError, match="timeout"):
        run(circuit, CYCLE4, timeout=timeout, max_T=1)
    assert searches == []
    with pytest.raises(SynthesisTimeout):
        run(circuit, CYCLE4, timeout=0)
    assert horizons == solves == []


# The device's automorphisms are _placements of the device in itself.

# a random cubic graph on 24 nodes, frozen: every node has degree 3, so
# colour refinement splits no class and a search pruned by it alone
# backtracks for minutes
CUBIC24 = build_device(24, [
    (0, 2), (0, 17), (0, 22), (1, 9), (1, 20), (1, 22), (2, 10), (2, 14), (3, 4),
    (3, 6), (3, 16), (4, 12), (4, 16), (5, 10), (5, 12), (5, 18), (6, 21), (6, 22),
    (7, 15), (7, 19), (7, 20), (8, 11), (8, 14), (8, 17), (9, 10), (9, 12), (11, 13),
    (11, 14), (13, 19), (13, 23), (15, 17), (15, 23), (16, 19), (18, 21), (18, 23),
    (20, 21)])


def _brute_force_automorphisms(device):
    """Every node permutation mapping the edge set onto itself, sorted, or
    None past the cap."""
    edges = set(map(frozenset, device.edges))
    found = [perm for perm in permutations(range(device.num_physical))
             if {frozenset(perm[p] for p in e) for e in edges} == edges]
    return None if len(found) > exact.AUTOMORPHISM_CAP else found


@pytest.mark.parametrize("device", EMBED_DEVICES + [
    bundled_device(f"{name}.json") for name in ("qx2", "grid2x3", "grid2x4")])
def test_automorphisms_equal_brute_force_on_the_test_devices(device):
    assert enumerate_automorphisms(device) == _brute_force_automorphisms(device)


@st.composite
def graphs(draw):
    """A graph on 1 to 7 nodes, isolated nodes included."""
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_device(n, edges)


@settings(max_examples=100, deadline=None)
@example(device=build_device(4, [(0, 1)]))  # two isolated nodes trade places
@example(device=build_device(7, []))  # 5,040 permutations: past the cap
@given(graphs())
def test_automorphisms_equal_brute_force(device):
    assert enumerate_automorphisms(device) == _brute_force_automorphisms(device)


@pytest.mark.parametrize("name, size", [("qx2", 8), ("grid2x3", 4), ("grid2x4", 4),
                                        ("grid4x4", 8)])
def test_bundled_device_groups(name, size):
    perms = enumerate_automorphisms(bundled_device(f"{name}.json"))
    assert len(perms) == size
    assert perms[0] == tuple(range(len(perms[0])))


def test_groups_past_the_cap_are_none(monkeypatch):
    assert enumerate_automorphisms(build_device(8, [])) is None  # 8! elements
    qx2 = bundled_device("qx2.json")
    monkeypatch.setattr(exact, "AUTOMORPHISM_CAP", 8)
    assert len(enumerate_automorphisms(qx2)) == 8
    monkeypatch.setattr(exact, "AUTOMORPHISM_CAP", 7)
    assert enumerate_automorphisms(qx2) is None
    assert flow_pins(TRIANGLE, qx2, "swap") == []


def test_automorphism_search_keeps_the_deadline():
    with pytest.raises(SynthesisTimeout):
        enumerate_automorphisms(CYCLE4, deadline=time.monotonic())
    with pytest.raises(SynthesisTimeout):
        _pins_and_swap_bound(TRIANGLE, CYCLE4, "swap", True, deadline=time.monotonic())
    start = time.monotonic()
    assert enumerate_automorphisms(CUBIC24, deadline=start + 10) == [tuple(range(24))]
    assert time.monotonic() - start < 10


def test_flows_hand_their_budget_to_the_automorphism_search(monkeypatch):
    deadlines = []
    found = exact.enumerate_automorphisms
    monkeypatch.setattr(exact, "enumerate_automorphisms",
                        lambda device, deadline: deadlines.append(deadline)
                        or found(device, deadline))
    adder, qx2 = bundled_circuit("adder.gates"), bundled_device("qx2.json")
    start = time.monotonic()
    synthesize(adder, qx2, config=exact.EncodingConfig(T=1, timeout=60))
    synthesize_tb(adder, qx2, timeout=60)
    synthesize_qaoa(K4, qx2, timeout=60)
    assert len(deadlines) == 3
    assert all(start < d <= time.monotonic() + 60 for d in deadlines)


def spy_deadlines(monkeypatch) -> list:
    """Log (step, deadline) for each solve and each placement search; each
    still runs."""
    calls = []
    solve, placements = sv.solve, exact._placements

    def solving(model, deadline=None, **kwargs):
        calls.append(("solve", deadline))
        return solve(model, deadline, **kwargs)

    def searching(partners, device, deadline):
        calls.append(("placements", deadline))
        return placements(partners, device, deadline)

    monkeypatch.setattr(sv, "solve", solving)
    monkeypatch.setattr(exact, "_placements", searching)
    return calls


@pytest.mark.parametrize("flow, objective, searches, solves",
                         [("exact", "swap", 3, 3), ("tb", "depth", 2, 2)],
                         ids=["exact-swap-3", "tb-depth-2"])
def test_every_step_of_a_call_keeps_its_one_deadline(monkeypatch, flow, objective,
                                                     searches, solves):
    # both rows search for an embedding and for the automorphisms; the exact
    # row also runs the one-SWAP cover check, whose first edge orbit has a
    # cover, then the one-SWAP certificate's coarse solve and the exact
    # horizons, the TB row two horizons: every search and solve of the call
    # keeps the deadline the flow computed once, so `timeout` bounds the
    # whole call
    calls = spy_deadlines(monkeypatch)
    circuit, device = bundled_circuit("4mod5-v1_22.gates"), bundled_device("grid2x3.json")
    start = time.monotonic()
    if flow == "exact":
        synthesize(circuit, device, objective, config=exact.EncodingConfig(T=1, timeout=30.0))
    else:
        synthesize_tb(circuit, device, objective, timeout=30.0)
    end = time.monotonic()
    assert sorted(step for step, _ in calls) == ["placements"] * searches + ["solve"] * solves
    [deadline] = {d for _, d in calls}
    assert start + 30.0 <= deadline <= end + 30.0
