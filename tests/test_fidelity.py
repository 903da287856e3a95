"""Fidelity objective: equal-weight classes fold into a constant.

The reference below is the encoding without the fold: every gate gets a
location column x_l tied to the mapping, and every measurement weight is a
term on the last slot's mapping. The folded objective must give the same
optimum on every model, and the same model wherever no class is uniform.
"""

import random
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from qlayout import solver as sv
from qlayout.circuit import load_circuit
from qlayout.device import build_device, load_device, scaled_log_fidelity, swap_log_fidelity
from qlayout.exact import (
    OBJECTIVES,
    EncodingConfig,
    TCapExceeded,
    encode,
    objective_fidelity,
    synthesize,
)
from qlayout.qaoa import phase_separation_from_graph, synthesize_qaoa
from qlayout.transition import synthesize_tb
from qlayout.verify import check_result, metrics
from test_exact import ORACLE_DEVICES, _random_program, flow_pins

DATA = resources.files("qlayout") / "data"
BUNDLED_DEVICES = sorted(p.name for p in DATA.iterdir() if p.name.endswith(".json"))


def reference_objective_fidelity(model, vs, device, circuit):
    """The fidelity objective with a location column for every gate."""
    terms = []
    N = device.num_physical
    T = len(vs.pi[0]) if vs.pi else 0
    for q in range(len(vs.pi)):
        for p in range(N):
            s0 = scaled_log_fidelity(device.f_measure[p])
            if s0:
                terms.append((s0, model.lits(vs.pi[q][T - 1])[p]))
    at = [[model.lits(h) for h in row] for row in vs.pi]
    rows = []
    for g in circuit.gates:
        if g.is_two_qubit:
            sites, weights = device.incident, device.f_two
        else:
            sites, weights = [(p,) for p in range(N)], device.f_single
        x = model.int_var(0, len(weights) - 1, f"x_{g.index}")
        placed = model.lits(x).__getitem__
        tl = vs.time[g.index]
        for t, now in zip(model._var(tl).domain, model.lits(tl)):
            for q in g.qubits:
                here = at[q][t]
                rows += [[now ^ 1, here[p] ^ 1, *map(placed, sites[p])] for p in range(N)]
        for s, f in enumerate(weights):
            w = scaled_log_fidelity(f)
            if w:
                terms.append((w, placed(s)))
    model.require_clauses(rows)
    for k in range(len(vs.sigma)):
        w = swap_log_fidelity(device, k)
        if w:
            for t in range(len(vs.sigma[k])):
                terms.append((w, model.lits(vs.sigma[k][t])[1]))
    model.maximize(terms)
    return model


def _model(circuit, device, T, objective=objective_fidelity, pins=()):
    model, vs = encode(circuit, device, EncodingConfig(T=T, objective="fidelity"), pins=pins)
    objective(model, vs, device, circuit)
    return model


def _location_columns(model):
    return sorted(v.name for v in model._vars if v.name.startswith("x_"))


# Fidelities drawn from a few values, so a class drawn at random is rarely
# uniform but its sites often share a weight; 1.0 weighs 0.
FIDELITIES = [0.9, 0.95, 0.98, 0.99, 1.0]


@st.composite
def profiles(draw, device):
    """Each class (measure, single, two) uniform or drawn site by site."""
    sizes = {"measure": device.num_physical, "single": device.num_physical,
             "two": device.num_edges}
    out = {}
    for name, n in sizes.items():
        if draw(st.booleans()):
            out[name] = [draw(st.sampled_from(FIDELITIES))] * n
        else:
            out[name] = draw(st.lists(st.sampled_from(FIDELITIES), min_size=n, max_size=n))
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), device_name=st.sampled_from(sorted(ORACLE_DEVICES)),
       data=st.data())
def test_fold_keeps_every_optimum(seed, device_name, data):
    # the folded model and the reference give the same status and optimum
    # at the longest chain and up to two slots past it, under the pins
    # synthesize adds; a synthesized result's objective is its fidelity
    base = ORACLE_DEVICES[device_name]
    device = build_device(base.num_physical, base.edges, data.draw(profiles(base)))
    circuit = load_circuit(_random_program(random.Random(seed)))
    try:
        pins = flow_pins(circuit, device, "fidelity")
        for T in range(circuit.longest_chain, circuit.longest_chain + 3):
            got = sv.solve(_model(circuit, device, T, pins=pins))
            want = sv.solve(_model(circuit, device, T, reference_objective_fidelity, pins))
            assert (got.status, got.objective_value) == (want.status, want.objective_value), T
        result, details = synthesize(circuit, device, "fidelity",
                                     config=EncodingConfig(T=1, max_T=12),
                                     return_details=True)
    except TCapExceeded:
        return
    assert details.objective_value == result.fidelity_scaled == \
        metrics(circuit, device, result)[2]
    assert check_result(circuit, device, result) == []


def test_no_location_column_on_a_bundled_device():
    # every bundled device has a uniform profile: the fidelity objective is
    # a constant plus one weight per SWAP
    circuit = load_circuit((DATA / "or.gates").read_text())
    for name in BUNDLED_DEVICES:
        device = load_device((DATA / name).read_text())
        model = _model(circuit, device, circuit.longest_chain)
        assert _location_columns(model) == [], name
        sigma = {v.first_col for v in model._vars if v.name.startswith("sigma_")}
        objective = {col for _, col in model._compile()[2]}
        assert len(objective - sigma) == 1, name  # the constant's carrier


def test_demo_ring_gives_columns_to_two_qubit_gates_only():
    # demos/fidelity_objective.py's ring: uniform measure and single
    # weights, one bad link
    device = build_device(4, [(0, 1), (1, 2), (2, 3), (0, 3)], {
        "measure": [0.99] * 4, "single": [0.999] * 4, "two": [0.99, 0.99, 0.99, 0.50]})
    circuit = load_circuit("qubits 3\ncx q0 q1\nh q0\ncx q1 q2\nh q2\ncx q0 q2\n")
    model = _model(circuit, device, circuit.longest_chain + 1)
    assert _location_columns(model) == sorted(
        f"x_{g.index}" for g in circuit.gates if g.is_two_qubit)


def test_non_uniform_profile_compiles_to_the_reference_model():
    # no class folds, so no constant and the same columns, rows and terms
    rng = random.Random(7)
    base = load_device((DATA / "qx2.json").read_text())
    device = build_device(base.num_physical, base.edges, {
        "measure": [rng.uniform(0.9, 1.0) for _ in range(base.num_physical)],
        "single": [rng.uniform(0.9, 1.0) for _ in range(base.num_physical)],
        "two": [rng.uniform(0.9, 1.0) for _ in range(base.num_edges)]})
    for name in ("or.gates", "4mod5-v1_22.gates"):
        circuit = load_circuit((DATA / name).read_text())
        T = circuit.longest_chain + 1
        pins = flow_pins(circuit, device, "fidelity")
        assert _model(circuit, device, T, pins=pins)._compile() == \
            _model(circuit, device, T, reference_objective_fidelity, pins)._compile(), name


def test_weights_equal_after_scaling_keep_the_uniform_pins():
    # the objective sees only scaled integers; two edges that differ below
    # the scaling resolution weigh the same, so the pins keep their group
    base = ORACLE_DEVICES["cycle"]
    near = build_device(base.num_physical, base.edges,
                        {"two": [0.98, 0.98000001, 0.98, 0.98]})
    circuit = load_circuit("qubits 3\ncx q0 q1\ncx q1 q2\n")
    pins = flow_pins(circuit, base, "fidelity")
    assert len(pins[0]) == 1  # one orbit of nodes
    assert flow_pins(circuit, near, "fidelity") == pins


def _flow_results(circuit, device, objective):
    """(circuit, result) of the exact and TB flows on the circuit and of
    the QAOA flow on its two-qubit gates, all commuting."""
    commuting = phase_separation_from_graph(
        [g.qubits for g in circuit.gates if g.is_two_qubit], circuit.num_qubits)
    return [(circuit, synthesize(circuit, device, objective)),
            (circuit, synthesize_tb(circuit, device, objective)[1]),
            (commuting, synthesize_qaoa(commuting, device, objective))]


def _assert_fidelity_recomputes(circuit, device, result, S):
    # build_result sums the device's weights; verify recomputes them from
    # the fidelities, and check_result still refuses a sum off by one
    assert result.fidelity_scaled == metrics(circuit, device, result)[2]
    assert check_result(circuit, device, result, S) == []
    off = replace(result, fidelity_scaled=result.fidelity_scaled + 1)
    assert [v["family"] for v in check_result(circuit, device, off, S)] == ["shape"]


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("device_name", ["qx2", "grid2x3"])
@pytest.mark.parametrize("circuit_name", ["or", "adder", "qaoa5", "4mod5-v1_22"])
def test_every_flow_sums_the_fidelity_verify_recomputes(circuit_name, device_name,
                                                        objective):
    circuit = load_circuit((DATA / f"{circuit_name}.gates").read_text())
    device = load_device((DATA / f"{device_name}.json").read_text())
    for (flow_circuit, result), S in zip(_flow_results(circuit, device, objective), (3, 3, 1)):
        _assert_fidelity_recomputes(flow_circuit, device, result, S)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), device_name=st.sampled_from(["qx2", "grid2x3"]),
       objective=st.sampled_from(OBJECTIVES), data=st.data())
def test_every_flow_sums_a_drawn_profile_as_verify_does(seed, device_name, objective, data):
    base = load_device((DATA / f"{device_name}.json").read_text())
    device = build_device(base.num_physical, base.edges, data.draw(profiles(base)))
    circuit = load_circuit(_random_program(random.Random(seed)))
    for (flow_circuit, result), S in zip(_flow_results(circuit, device, objective), (3, 3, 1)):
        _assert_fidelity_recomputes(flow_circuit, device, result, S)
