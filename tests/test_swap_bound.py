"""The two-mapping SWAP lower bound: a schedule with one SWAP, on the edge
(a, b), runs its gates under two mappings, so the interaction graph embeds
in E ∪ s(E), s the transposition of a and b. When no edge gives such a
cover, every solution needs 2 SWAPs, and the core stops tightening at 2."""

import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from qlayout import exact, transition
from qlayout.circuit import load_circuit
from qlayout.exact import (
    EncodingConfig,
    _edge_orbit_reps,
    _fits,
    _one_swap_cover,
    enumerate_automorphisms,
    synthesize,
)
from qlayout.oracle import _slot_free_min_swaps, oracle_optimal
from qlayout.qaoa import phase_separation_from_graph, synthesize_qaoa
from qlayout.transition import synthesize_tb
from qlayout.verify import check_result

from test_exact import ORACLE_DEVICES, bundled_circuit, bundled_device
from test_solver import _with_search_calls
from test_transition import CUT_DEVICES

DEVICES = {**ORACLE_DEVICES, **{f"cut{i}": d for i, d in enumerate(CUT_DEVICES)}}


class _Bound(Exception):
    """Raised in place of the coarse horizon loop, with the bound it got."""


def flow_bound(circuit, device) -> int:
    """The SWAP bound the TB flow hands its horizon loop under swap; the
    loop itself does not run."""

    def capture(*args, min_swaps, **kwargs):
        raise _Bound(min_swaps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transition, "solve_horizons", capture)
        with pytest.raises(_Bound) as bound:
            synthesize_tb(circuit, device, "swap")
    return bound.value.args[0]


@st.composite
def bound_instances(draw):
    """A device and a circuit of up to 6 gates on 2 to 4 qubits that fits
    it: one- and two-qubit gates, pairs repeated, dependencies derived or
    none (a commuting circuit)."""
    name = draw(st.sampled_from(sorted(DEVICES)))
    device = DEVICES[name]
    M = draw(st.integers(min_value=2, max_value=min(4, device.num_physical)))
    pairs = [(a, b) for a in range(M) for b in range(a + 1, M)]
    lines = [f"qubits {M}"]
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        if draw(st.integers(min_value=0, max_value=3)):
            a, b = draw(st.sampled_from(pairs))
            lines.append(f"cx q{a} q{b}")
        else:
            lines.append(f"h q{draw(st.integers(min_value=0, max_value=M - 1))}")
    text = "\n".join(lines) + "\n"
    return text, name, draw(st.booleans())


def _check_bound(text, device_name, commuting):
    circuit = load_circuit(text, user_deps=[] if commuting else None)
    device = DEVICES[device_name]
    if not _fits(circuit, device):
        return
    bound = flow_bound(circuit, device)
    optimum = _slot_free_min_swaps(circuit, device)
    assert bound <= optimum
    if commuting:
        # with no order between the gates, a cover is a one-SWAP schedule
        assert bound == min(optimum, 2)
    perms = enumerate_automorphisms(device)
    partners = circuit.partners
    assert _one_swap_cover(partners, device, _edge_orbit_reps(device, perms), None) \
        == _one_swap_cover(partners, device, device.edges, None)


@settings(max_examples=150, deadline=None)
# a triangle on the 4-cycle: every edge's cover holds it (one orbit)
@example(instance=("qubits 3\ncx q0 q1\ncx q1 q2\ncx q0 q2\n", "cycle", True))
# a 4-cycle of gates on the path: only the middle edge's cover holds it,
# so skipping its orbit refuses a one-SWAP schedule
@example(instance=("qubits 4\ncx q0 q1\ncx q1 q2\ncx q2 q3\ncx q0 q3\n", "path", True))
# K4 on the path: no cover, and the optimum is 2 or more
@example(instance=("qubits 4\ncx q0 q1\ncx q2 q3\ncx q0 q2\ncx q1 q3\ncx q0 q3\ncx q1 q2\n",
                   "path", False))
@given(bound_instances())
def test_the_swap_bound_is_sound_and_tight_on_commuting_circuits(instance):
    """The flow's SWAP bound is never above the oracle's slot-free minimum;
    on a commuting circuit it equals that minimum capped at 2. Walking one
    edge per automorphism orbit gives the verdict of walking every edge."""
    _check_bound(*instance)


# K4 as a circuit: its six gates need six edges, and E ∪ s(E) has at most
# five on the 4-node path
K4_TEXT = "qubits 4\ncx q0 q1\ncx q2 q3\ncx q0 q2\ncx q1 q3\ncx q0 q3\ncx q1 q2\n"


def spy_covers(monkeypatch) -> list:
    """Log each one-SWAP cover check; each still runs."""
    calls = []
    cover = exact._one_swap_cover
    monkeypatch.setattr(exact, "_one_swap_cover",
                        lambda *a, **k: calls.append(1) or cover(*a, **k))
    return calls


def test_exact_input_with_a_bound_of_2_runs_no_coarse_solve(monkeypatch):
    # with no cover the certificate could only return None, so the exact
    # model runs at once, with the bound, and meets the oracle's optimum
    circuit, device = load_circuit(K4_TEXT), ORACLE_DEVICES["path"]
    covers = spy_covers(monkeypatch)
    monkeypatch.setattr(transition, "_solve_coarse",
                        lambda *a, **k: pytest.fail("the coarse flow ran"))
    config = EncodingConfig(T=1, S=1)
    result, details = synthesize(circuit, device, "swap", config=config,
                                 return_details=True)
    assert covers == [1]
    assert result.swap_count == details.objective_value >= 2
    assert result.swap_count == oracle_optimal(circuit, device, "swap",
                                               bounds=details.solver_T, S=1)
    assert check_result(circuit, device, result, S=1) == []


# pinned0.n6/grid2x3/swap of the qaoa-regular workload: a 3-regular graph
# on six nodes with no one-SWAP cover on grid2x3
PINNED0 = ((0, 5), (3, 5), (1, 4), (0, 4), (1, 2), (2, 5), (3, 4), (0, 2), (1, 3))


def test_qaoa_row_with_a_bound_of_2_spares_the_final_proof():
    # the 2-SWAP plan at two blocks meets the bound: one search, where a
    # bound of 1 takes a second one to prove that 1 SWAP cannot do; the
    # result is the one the bound of 1 gives (the digest of its to_json)
    circuit, device = phase_separation_from_graph(PINNED0), bundled_device("grid2x3.json")
    (result, _, details), searches = _with_search_calls(
        lambda: synthesize_qaoa(circuit, device, "swap", return_details=True))
    assert searches == 1
    assert (details.objective_value, details.tried_T) == (2, [2])
    assert (result.swap_count, result.depth_slots) == (2, 4)
    assert hashlib.sha256(result.to_json().encode()).hexdigest()[:16] == "828253a769627e86"
    assert check_result(circuit, device, result, S=1) == []


@pytest.mark.parametrize("flow, circuit, device, objective, checks", [
    ("exact", bundled_circuit("adder.gates"), bundled_device("qx2.json"), "swap", 1),
    ("exact", bundled_circuit("4mod5-v1_22.gates"), bundled_device("grid2x3.json"), "swap", 1),
    ("exact", bundled_circuit("or.gates"), bundled_device("qx2.json"), "swap", 0),
    ("exact", bundled_circuit("adder.gates"), bundled_device("qx2.json"), "depth", 0),
    ("tb", bundled_circuit("adder.gates"), bundled_device("qx2.json"), "swap", 1),
    ("tb", bundled_circuit("adder.gates"), bundled_device("qx2.json"), "depth", 0),
    ("qaoa", phase_separation_from_graph(PINNED0), bundled_device("grid2x3.json"), "swap", 1),
    ("qaoa", phase_separation_from_graph(PINNED0), bundled_device("grid2x3.json"), "depth", 0),
], ids=["exact/adder/qx2/swap", "exact/4mod5/grid2x3/swap", "exact/or/qx2/swap",
        "exact/adder/qx2/depth", "tb/adder/qx2/swap", "tb/adder/qx2/depth",
        "qaoa/pinned0/swap", "qaoa/pinned0/depth"])
def test_each_flow_runs_the_cover_check_at_most_once(monkeypatch, flow, circuit, device,
                                                     objective, checks):
    # once under swap when the graph does not embed (adder in qx2, 4mod5 in
    # grid2x3, the pinned graph in grid2x3; or embeds in qx2), never
    # otherwise; the exact flow's certificate reuses its caller's bound
    covers = spy_covers(monkeypatch)
    run = {"exact": lambda: synthesize(circuit, device, objective),
           "tb": lambda: synthesize_tb(circuit, device, objective)[1],
           "qaoa": lambda: synthesize_qaoa(circuit, device, objective)}[flow]
    run()
    assert len(covers) == checks


def test_the_cover_check_keeps_the_deadline():
    circuit, device = load_circuit(K4_TEXT), ORACLE_DEVICES["path"]
    with pytest.raises(exact.SynthesisTimeout):
        _one_swap_cover(circuit.partners, device, device.edges, 0.0)


@pytest.mark.parametrize("name, reps", [
    ("qx2", 2), ("grid2x3", 3), ("grid2x4", 4), ("grid4x4", 4)])
def test_edge_orbits_of_the_bundled_devices(name, reps):
    device = bundled_device(f"{name}.json")
    perms = enumerate_automorphisms(device)
    found = _edge_orbit_reps(device, perms)
    assert len(found) == reps
    # every edge is the image of one representative
    assert {(min(g[a], g[b]), max(g[a], g[b])) for a, b in found for g in perms} \
        == set(device.edges)
    assert _edge_orbit_reps(device, None) == list(device.edges)
