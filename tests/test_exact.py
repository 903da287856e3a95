"""Exact synthesizer: optimality, growth policy, decode contract."""

import math
import random
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from qlayout import _cdcl, exact, solver as sv
from qlayout.circuit import load_circuit
from qlayout.device import build_device, load_device
from qlayout.exact import (
    EncodingConfig,
    TCapExceeded,
    _symmetry_pins,
    apply_objective,
    decode,
    encode,
    grow_T,
    synthesize,
)
from qlayout.oracle import OracleError, oracle_optimal
from qlayout.qaoa import phase_separation_from_graph, synthesize_qaoa
from qlayout.transition import encode_tb, synthesize_tb
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


def test_negative_extra_t_is_refused_before_any_build(monkeypatch):
    circ = load_circuit("qubits 3\ncx q0 q1\ncx q1 q2\ncx q0 q2\n")
    builds = []
    encode_ = exact.encode
    monkeypatch.setattr(exact, "encode", lambda *a, **k: builds.append(1) or encode_(*a, **k))
    with pytest.raises(ValueError, match="extra_t"):
        synthesize(circ, PATH3, objective="swap", extra_t=-1)
    assert builds == []
    assert synthesize(circ, PATH3, objective="swap", extra_t=0).swap_count == 1
    assert builds


def test_unsat_at_cap():
    # a 2-qubit gate can never run on an edgeless device
    circ = load_circuit("qubits 2\ncx q0 q1\n")
    dev = build_device(2, [])
    cfg = EncodingConfig(T=1, max_T=4)
    with pytest.raises(TCapExceeded):
        synthesize(circ, dev, config=cfg)


NEVER_FITS = {
    "more qubits than nodes": ("qubits 6\ncx q0 q1\ncx q2 q3\ncx q4 q5\n",
                               bundled_device("qx2.json")),
    "edgeless device": ("qubits 2\ncx q0 q1\n", build_device(2, [])),
    # one 4-qubit interaction component; the device's components hold 3 and 2
    "components do not pack": ("qubits 4\ncx q0 q1\ncx q2 q3\ncx q2 q3\ncx q1 q2\nh q3\n",
                               build_device(5, [(0, 1), (1, 2), (3, 4)])),
}


@pytest.mark.parametrize("case", sorted(NEVER_FITS))
@pytest.mark.parametrize("flow", ["exact", "tb", "qaoa"])
def test_inputs_that_never_fit_end_before_any_solve(monkeypatch, flow, case):
    text, device = NEVER_FITS[case]
    if flow == "qaoa":  # the two-qubit gates, commuting
        text = "".join(line for line in text.splitlines(True) if not line.startswith("h "))
    circuit = load_circuit(text, user_deps=[] if flow == "qaoa" else None)
    solves = []
    monkeypatch.setattr(sv, "solve", lambda *args, **kwargs: solves.append(1))
    run = {"exact": synthesize, "tb": synthesize_tb, "qaoa": synthesize_qaoa}[flow]
    with pytest.raises(TCapExceeded):
        run(circuit, device)
    assert solves == []


def _fidelity_repro():
    # measuring on node 1 costs far more than a SWAP, so the optimum moves a
    # qubit off node 1 after the gate
    circ = load_circuit("qubits 2\ncx q0 q1\n")
    dev = build_device(3, [(0, 1), (1, 2)],
                       {"measure": [0.99, 0.3, 0.99], "two": [0.999, 0.999]})
    return circ, dev


def test_fidelity_result_keeps_the_swaps_its_objective_paid_for():
    # the result must show the SWAP that moves a qubit off node 1
    circ, dev = _fidelity_repro()
    result, details = synthesize(circ, dev, "fidelity", extra_t=4, return_details=True)
    assert result.swap_count > 0
    assert result.fidelity_scaled == details.objective_value
    assert check_result(circ, dev, result) == []


def test_growth_past_the_cap_tries_the_cap():
    # the chain is 5, so growth goes 5, 7, 10, 13; 13 is past max_T=12, and
    # the oracle's minimum depth is 11
    circ = load_circuit("qubits 3\ncx q2 q1\ncx q0 q2\nh q1\ncx q0 q1\n"
                        "cx q0 q2\ncx q2 q1\n")
    device = ORACLE_DEVICES["path"]
    config = EncodingConfig(T=1, S=3, max_T=12)
    result, details = synthesize(circ, device, config=config, return_details=True)
    assert details.tried_T == [5, 7, 10, 12]
    assert details.solver_T == result.solver_T == 12
    assert check_result(circ, device, result, S=3) == []


def test_fidelity_objective_matches_metrics():
    dev = build_device(3, [(0, 1), (1, 2)], {
        "measure": [0.9, 0.92, 0.95],
        "single": [0.99, 0.985, 0.99],
        "two": [0.97, 0.96],
    })
    circ = load_circuit("qubits 2\ncx q0 q1\nh q1\ncx q0 q1\n")
    for extra_t in (0, 2):  # 2: every gate has slack in its window
        result, details = synthesize(circ, dev, objective="fidelity",
                                     extra_t=extra_t, return_details=True)
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


@pytest.mark.parametrize("field,value", [
    ("T", 2.5), ("T", True), ("S", 1.5), ("S", 3.0), ("max_T", 12.0), ("max_T", False),
    ("epsilon", math.inf), ("epsilon", math.nan), ("epsilon", -math.inf), ("epsilon", "0.3"),
])
def test_config_refuses_non_integral_and_non_finite_values(field, value):
    # an infinite growth factor once overflowed in grow_T, a NaN one failed
    # only after solving, and S=1.5 reached the model as a float
    with pytest.raises(ValueError, match=field):
        EncodingConfig(**{"T": 1, field: value})


def test_exact_flow_refuses_a_non_int_swap_duration():
    with pytest.raises(ValueError, match="S must be an int"):
        synthesize(bundled_circuit("adder.gates"), bundled_device("qx2.json"),
                   config=EncodingConfig(T=1, S=1.5))


# Two parallel dependency chains of lengths 3 and 2: at the longest chain
# the short one has a slot of slack, and every gate more at T + 2.
SLACK_TEXT = "qubits 4\ncx q0 q1\ncx q0 q1\ncx q0 q1\nh q2\ncx q2 q3\n"


@pytest.mark.parametrize("objective", ["swap", "depth", "fidelity"])
def test_engines_agree_on_exact_model(objective):
    # the MILP engine sees every clause row expanded to a linear row; or at
    # its longest chain, and the slack circuit two slots past its own, both
    # with the symmetry pins synthesize adds
    device = bundled_device("qx2.json")
    for circuit, extra in ((bundled_circuit("or.gates"), 0), (load_circuit(SLACK_TEXT), 2)):
        T = circuit.longest_chain + extra
        pins = _symmetry_pins(circuit, device, objective)
        assert pins
        verdicts = []
        for method in ("sat", "milp"):
            model, vs = encode(circuit, device, EncodingConfig(T=T, objective=objective),
                               pins=pins)
            apply_objective(model, vs, objective, device, circuit)
            verdicts.append(sv.solve(model, method=method))
        sat, milp = verdicts
        assert sat.status == milp.status == sv.SAT
        assert sat.objective_value == milp.objective_value


# Model size with gates placed by the mapping, each gate's slots cut to its
# dependency window: no location column outside the fidelity objective, and
# the compiled rows of that encoding (the rows the search core loads) as a
# ceiling. The coarse (TB) row has only the degree and one-hop cuts: no
# move-balance `mv_` column. The ids leave out the ceiling.
def _size_case(*case, rows, coarse=False):
    return pytest.param(*case, rows, coarse,
                        id="-".join(map(str, case)) + ("-tb" if coarse else ""))


@pytest.mark.parametrize("circuit_name,device_name,objective,T,rows,coarse", [
    _size_case("adder", "qx2", "swap", 16, rows=4316),
    _size_case("or", "grid4x4", "swap", 9, rows=8183),
    _size_case("4mod5-v1_22", "grid4x4", "swap", 14, rows=21220),
    _size_case("or", "qx2", "fidelity", 9, rows=1533),
    _size_case("adder", "grid2x3", "depth", 3, rows=1438, coarse=True)])
def test_model_size_ceiling(circuit_name, device_name, objective, T, rows, coarse):
    circuit = bundled_circuit(f"{circuit_name}.gates")
    device = bundled_device(f"{device_name}.json")
    if coarse:
        model, _ = encode_tb(circuit, device, T, objective,
                             pins=_symmetry_pins(circuit, device, objective))
        assert not [v.name for v in model._vars if v.name.startswith("mv_")]
        assert len(model._compile()[1]) <= rows
        return
    for obj in (objective, "depth"):
        model, vs = encode(circuit, device, EncodingConfig(T=T, objective=obj))
        apply_objective(model, vs, obj, device, circuit)
        if obj != "fidelity":
            assert not [v.name for v in model._vars if v.name.startswith("x_")]
        if obj == objective:
            assert len(model._compile()[1]) <= rows


# The coarse model keeps every slot for every gate: pinned compiled rows of
# adder on grid2x3 at the first TB horizon and at the one that solves
@pytest.mark.parametrize("objective,T,rows", [("swap", 1, 283), ("depth", 3, 1438)],
                         ids=["swap-1", "depth-3"])
def test_coarse_model_keeps_full_time_domains(objective, T, rows):
    circuit, device = bundled_circuit("adder.gates"), bundled_device("grid2x3.json")
    model, vs = encode_tb(circuit, device, T, objective,
                          pins=_symmetry_pins(circuit, device, objective))
    assert all(model._var(h).domain == range(T) for h in vs.time)
    assert len(model._compile()[1]) == rows


def _flow_model(flow):
    """The exact model of adder/qx2/swap, the coarse model of
    adder/grid2x3/depth, and the QAOA coarse model of a 3-regular graph on
    six nodes over grid2x3, each at a horizon that solves."""
    if flow == "exact":
        circuit, device = bundled_circuit("adder.gates"), bundled_device("qx2.json")
        model, vs = encode(circuit, device, EncodingConfig(T=circuit.longest_chain),
                           pins=_symmetry_pins(circuit, device, "swap"))
        apply_objective(model, vs, "swap", device, circuit)
        return model
    if flow == "tb":
        circuit, device = bundled_circuit("adder.gates"), bundled_device("grid2x3.json")
        objective, T = "depth", 3
    else:
        prism = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
        circuit, device = phase_separation_from_graph(prism), bundled_device("grid2x3.json")
        objective, T = "swap", 2
    return encode_tb(circuit, device, T, objective,
                     pins=_symmetry_pins(circuit, device, objective))[0]


@pytest.mark.parametrize("flow", ["exact", "tb", "qaoa"])
def test_core_loads_exactly_the_compiled_rows(flow):
    # the Model states the core's two row kinds, and add_rows only stores
    # them: the clause store is the clause rows in order, the counting rows
    # are the PB rows in order
    model = _flow_model(flow)
    ncols, rows, _ = model._compile()
    clauses = [row for row in rows if row.__class__ is list]
    pb = [row for row in rows if row.__class__ is not list]
    assert all(row.__class__ is tuple and len(row) == 3 for row in pb)
    assert (len(pb) > 0) == (flow == "tb")  # the degree cuts are counting rows
    searcher = _cdcl.Searcher(ncols)
    searcher.add_rows(rows)
    assert searcher.clauses == clauses
    assert list(zip(searcher.pb_lits, searcher.pb_coefs, searcher.pb_b)) == pb
    assert not searcher.hard_unsat
    assert sv.solve(model).status == sv.SAT


@pytest.mark.parametrize("S", [1, 2, 3])
def test_no_row_restates_the_early_swap_slots(S):
    # eq5's unit rows fix sigma at every finish slot below S-1; no other
    # row mentions those columns, and each still has its objective term
    circuit, device = bundled_circuit("adder.gates"), bundled_device("qx2.json")
    T = circuit.longest_chain + 2
    model, vs = encode(circuit, device, EncodingConfig(T=T, S=S))
    apply_objective(model, vs, "swap", device, circuit)
    early = {model._var(row[t]).first_col for row in vs.sigma for t in range(S - 1)}
    assert len(early) == device.num_edges * (S - 1)
    units = 0
    for row in model._compile()[1]:
        cols = [lit >> 1 for lit in (row if isinstance(row, list) else row[0])]
        if early.intersection(cols):
            assert isinstance(row, list) and len(row) == 1, row
            units += 1
    assert units == len(early)
    assert early <= {col for _, col in model._compile()[2]}


def test_time_domains_are_dependency_windows():
    model, vs = encode(load_circuit(SLACK_TEXT), ORACLE_DEVICES["path"], EncodingConfig(T=5))
    assert [model._var(h).domain for h in vs.time] == \
        [range(0, 3), range(1, 4), range(2, 5), range(0, 4), range(1, 5)]


@pytest.mark.parametrize("objective", ["swap", "depth", "fidelity"])
def test_horizon_below_the_longest_chain_is_unsatisfiable(objective):
    circuit = load_circuit("qubits 2\ncx q0 q1\nh q0\n")
    model, vs = encode(circuit, PATH3, EncodingConfig(T=1, objective=objective))
    apply_objective(model, vs, objective, PATH3, circuit)
    assert sv.solve(model).status == sv.UNSAT


def test_depth_bound_is_the_last_slot():
    # gate 0's window ends at T-2; a depth bound read from it would make
    # T=2 unsatisfiable and report solver_T 3
    circuit = load_circuit("qubits 2\ncx q0 q1\nh q0\n")
    result = synthesize(circuit, PATH3, "depth")
    assert (result.solver_T, result.depth_slots) == (2, 2)


def test_build_result_refuses_non_adjacent_operands():
    # a model or plan that puts a 2q gate's operands on p0 and p2 is wrong;
    # that is a backend fault, not a bad device file
    circ = load_circuit("qubits 2\ncx q0 q1\n")
    with pytest.raises(sv.SolverBackendError, match="not adjacent"):
        exact.build_result(circ, PATH3, 1, (0, 2), [0], [])


# Exact optima of the bundled reference rows (value of the objective's result
# field, first satisfiable horizon), as in perfbench/expected_exact.json; the
# 4mod5-v1_22/grid2x3/swap row was also confirmed with HiGHS at T=14. The
# 4mod5-v1_22 rows on grid2x4 and grid4x4 are not in that file; they need
# the symmetry pins to solve in about a second.
BUNDLED_OPTIMA = [
    ("or", "qx2", "swap", 0, 9), ("or", "qx2", "depth", 9, 9),
    ("or", "grid2x3", "swap", 0, 9), ("or", "grid2x3", "depth", 9, 9),
    ("adder", "qx2", "swap", 1, 16), ("adder", "qx2", "depth", 16, 16),
    ("adder", "grid2x3", "swap", 0, 16), ("adder", "grid2x3", "depth", 16, 16),
    ("qaoa5", "qx2", "swap", 0, 15), ("qaoa5", "qx2", "depth", 15, 15),
    ("qaoa5", "grid2x3", "swap", 1, 15), ("qaoa5", "grid2x3", "depth", 15, 15),
    ("4mod5-v1_22", "qx2", "swap", 1, 14), ("4mod5-v1_22", "qx2", "depth", 14, 14),
    ("4mod5-v1_22", "grid2x3", "swap", 2, 14), ("4mod5-v1_22", "grid2x3", "depth", 14, 14),
    ("4mod5-v1_22", "grid2x4", "swap", 2, 14), ("4mod5-v1_22", "grid4x4", "swap", 2, 14),
]


@pytest.mark.parametrize("circuit_name,device_name,objective,value,T", BUNDLED_OPTIMA,
                         ids=lambda x: str(x))
def test_bundled_exact_optima(circuit_name, device_name, objective, value, T):
    circuit = bundled_circuit(f"{circuit_name}.gates")
    device = bundled_device(f"{device_name}.json")
    result = synthesize(circuit, device, objective)
    got = result.swap_count if objective == "swap" else result.depth_slots
    assert (got, result.solver_T) == (value, T)
    assert check_result(circuit, device, result) == []


# Fidelity optima of the bundled rows (fidelity_scaled, first satisfiable
# horizon); the first three are in perfbench/expected_exact.json, confirmed
# with HiGHS. The objective value is the result's fidelity.
FIDELITY_OPTIMA = [
    ("or", "qx2", -170, 9), ("or", "grid2x3", -170, 9), ("4mod5-v1_22", "qx2", -450, 14),
    ("adder", "qx2", -470, 16), ("qaoa5", "qx2", -450, 15), ("or", "grid2x4", -170, 9),
    ("adder", "grid2x3", -410, 16),
]


@pytest.mark.parametrize("circuit_name,device_name,value,T", FIDELITY_OPTIMA,
                         ids=lambda x: str(x))
def test_bundled_fidelity_optima(circuit_name, device_name, value, T):
    circuit = bundled_circuit(f"{circuit_name}.gates")
    device = bundled_device(f"{device_name}.json")
    result, details = synthesize(circuit, device, "fidelity", return_details=True)
    assert (result.fidelity_scaled, result.solver_T) == (value, T)
    assert details.objective_value == result.fidelity_scaled
    assert check_result(circuit, device, result) == []


# Exact flow against the brute-force oracle, within its caps (M <= 4, L <= 6,
# N <= 5), for every SWAP duration up to the default.

ORACLE_DEVICES = {
    "path": build_device(4, [(0, 1), (1, 2), (2, 3)]),
    "cycle": build_device(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "paw": build_device(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "split": build_device(5, [(0, 1), (1, 2), (3, 4)]),  # disconnected
    "cycle5": build_device(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "star": build_device(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),  # K1,4
    "k4": build_device(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
}


def _random_program(rng: random.Random) -> str:
    """Up to 6 gates on 2-4 qubits; about a third 1q, and 2q gates often
    reuse a pair."""
    num_qubits = rng.randint(2, 4)
    lines = [f"qubits {num_qubits}"]
    pairs = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.3:
            lines.append(f"h q{rng.randrange(num_qubits)}")
            continue
        if pairs and rng.random() < 0.4:
            a, b = rng.choice(pairs)
        else:
            a, b = rng.sample(range(num_qubits), 2)
            pairs.append((a, b))
        lines.append(f"cx q{a} q{b}")
    return "\n".join(lines) + "\n"


def _optimum_at(circuit, device, objective, T, S):
    # the model synthesize solves, symmetry pins included
    model, vs = encode(circuit, device, EncodingConfig(T=T, S=S, objective=objective),
                       pins=_symmetry_pins(circuit, device, objective))
    apply_objective(model, vs, objective, device, circuit)
    verdict = sv.solve(model)
    assert verdict.status == sv.SAT
    result = decode(circuit, device, verdict, vs, T, objective)
    assert check_result(circuit, device, result, S=S) == []
    return result.swap_count if objective == "swap" else result.depth_slots


@settings(max_examples=60, deadline=None)
@example(seed=186, device_name="path", S=3)  # growth jumps past max_T
@given(seed=st.integers(0, 2**32 - 1), device_name=st.sampled_from(sorted(ORACLE_DEVICES)),
       S=st.sampled_from([1, 2, 3]))
def test_exact_matches_oracle(seed, device_name, S):
    _check_against_oracle(_random_program(random.Random(seed)), device_name, S)


def _check_against_oracle(text, device_name, S):
    """Swap and depth optima at the first satisfiable horizon and two
    slots past it equal the oracle's; an input the oracle says never fits
    ends in TCapExceeded."""
    circuit = load_circuit(text)
    device = ORACLE_DEVICES[device_name]
    config = EncodingConfig(T=1, S=S, max_T=12)
    try:
        oracle_optimal(circuit, device, "swap")  # slot-free: is there any schedule?
    except OracleError:  # some gate pair can never meet on this device
        with pytest.raises(TCapExceeded):
            synthesize(circuit, device, config=config)
        return
    T = synthesize(circuit, device, config=config).solver_T
    for horizon in (T, T + 2):
        for objective in ("swap", "depth"):
            assert _optimum_at(circuit, device, objective, horizon, S) == \
                oracle_optimal(circuit, device, objective, bounds=horizon, S=S), (horizon, objective)


# Circuits with slack: parallel dependency chains of different lengths, so
# most gates have more than one slot in their window.
SLACK_PROGRAMS = [
    SLACK_TEXT,
    "qubits 3\ncx q0 q1\nh q0\ncx q0 q1\nh q1\nh q2\n",
    "qubits 3\ncx q0 q1\ncx q1 q2\ncx q1 q2\ncx q1 q2\nh q0\n",
]


@pytest.mark.parametrize("S", [1, 2, 3])
@pytest.mark.parametrize("device_name", sorted(ORACLE_DEVICES))
@pytest.mark.parametrize("text", SLACK_PROGRAMS, ids=range(len(SLACK_PROGRAMS)))
def test_exact_matches_oracle_with_slack(text, device_name, S):
    _check_against_oracle(text, device_name, S)


# The result builder replays the SWAPs that decode keeps; the replay must be
# the model's own mapping at every slot.

def test_swap_finishing_in_the_last_gate_slot_is_dropped():
    # a SWAP on (2, 3) forced to finish in slot 1, the last gate's slot:
    # the 2-slot trajectory could never show its mapping change
    circ = load_circuit("qubits 2\ncx q0 q1\nh q0\n")
    device = ORACLE_DEVICES["path"]
    model, vs = encode(circ, device, EncodingConfig(T=2, S=1, objective="depth"))
    model.require_clause([(vs.sigma[2][1], 1, True)])
    apply_objective(model, vs, "depth", device, circ)
    verdict = sv.solve(model)
    assert verdict.status == sv.SAT and verdict.assignment[vs.sigma[2][1]] == 1
    result = decode(circ, device, verdict, vs, 2, "depth")
    assert result.depth_slots == len(result.mapping_trajectory) == 2
    assert all(s.finish_time == 0 for s in result.swaps)
    assert check_result(circ, device, result, S=1) == []


def _decoded_runs(monkeypatch):
    """Record (verdict, variables, result) of every exact.decode call."""
    runs = []
    real = exact.decode

    def spy(circuit, device, verdict, vs, solver_T, objective):
        result = real(circuit, device, verdict, vs, solver_T, objective)
        runs.append((verdict, vs, result))
        return result

    monkeypatch.setattr(exact, "decode", spy)
    return runs


@pytest.mark.parametrize("run", [
    lambda: synthesize(bundled_circuit("adder.gates"), bundled_device("qx2.json"), "swap"),
    lambda: synthesize(bundled_circuit("adder.gates"), bundled_device("qx2.json"), "depth"),
    lambda: synthesize(bundled_circuit("4mod5-v1_22.gates"), bundled_device("qx2.json"),
                       "depth"),
    lambda: synthesize(*_fidelity_repro(), "fidelity", extra_t=4),
], ids=["adder-qx2-swap", "adder-qx2-depth", "4mod5-qx2-depth", "fidelity-extra-t"])
def test_replayed_trajectory_equals_the_model_mapping(monkeypatch, run):
    runs = _decoded_runs(monkeypatch)
    run()
    verdict, vs, result = runs[-1]
    assert result.swaps
    a = verdict.assignment
    for t, row in enumerate(result.mapping_trajectory):
        assert row == tuple(a[pi_q[t]] for pi_q in vs.pi), t
