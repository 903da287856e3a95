"""The exact flow's one-SWAP certificate: under swap, when the interaction
graph does not embed, a TB schedule with 1 SWAP and depth T0 meets both
lower bounds and is returned with no exact model."""

import pytest
from hypothesis import example, given, settings, strategies as st

from qlayout import transition
from qlayout.circuit import load_circuit
from qlayout.exact import (
    EncodingConfig,
    SynthesisDetails,
    SynthesisTimeout,
    TCapExceeded,
    apply_objective,
    encode,
    grow_T,
    solve_horizons,
    synthesize,
)
from qlayout.oracle import oracle_optimal
from qlayout.verify import check_result
from test_embedding import _count_builds
from test_exact import ORACLE_DEVICES, bundled_circuit, bundled_device, flow_pins, spy_searches
from test_transition import CUT_DEVICES

# _count_builds spies on exact.encode: the coarse model's encodes go through
# transition's own name and are not counted
DEVICES = {**ORACLE_DEVICES, **{f"cut{i}": d for i, d in enumerate(CUT_DEVICES)}}


@st.composite
def dense_programs(draw):
    """Up to 6 gates on 3-4 qubits, 3-5 of them two-qubit gates on distinct
    pairs, in any order: most such interaction graphs do not embed in the
    small devices."""
    M = draw(st.integers(min_value=3, max_value=4))
    pairs = [(a, b) for a in range(M) for b in range(a + 1, M)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=3,
                           max_size=min(5, len(pairs)), unique=True))
    ones = draw(st.lists(st.integers(min_value=0, max_value=M - 1),
                         max_size=6 - len(chosen)))
    gates = [f"cx q{a} q{b}" for a, b in chosen] + [f"h q{q}" for q in ones]
    return "\n".join([f"qubits {M}", *draw(st.permutations(gates))]) + "\n"


@settings(max_examples=80, deadline=None)
# certified: a triangle with slack on the star, and on the weighted 4-cycle
@example(text="qubits 3\ncx q0 q1\nh q1\ncx q1 q2\ncx q0 q2\n", device_name="star", S=1)
@example(text="qubits 3\ncx q0 q1\ncx q1 q2\ncx q0 q2\n", device_name="cut5", S=1)
# TB finds 1 SWAP at depth T0 + 1, where the exact optimum at T0 is 2 or
# no schedule fits: a certificate must refuse both
@example(text="qubits 3\nh q0\nh q0\ncx q1 q2\ncx q0 q2\ncx q0 q1\nh q0\n",
         device_name="cycle5", S=1)
@example(text="qubits 4\ncx q2 q3\ncx q0 q2\nh q3\ncx q0 q3\n", device_name="path", S=1)
@given(text=dense_programs(), device_name=st.sampled_from(sorted(DEVICES)),
       S=st.sampled_from([1, 2, 3]))
def test_a_result_without_an_exact_model_is_the_exact_optimum(text, device_name, S):
    """Whenever the swap flow returns without an exact encode (a perfect
    layout or the certificate), its SWAP count is the optimum at T0, by the
    oracle and by the horizon loop over the exact model, and T0 is the
    first satisfiable horizon."""
    circuit, device = load_circuit(text), DEVICES[device_name]
    config = EncodingConfig(T=1, S=S, max_T=12)
    with pytest.MonkeyPatch.context() as mp:
        builds = _count_builds(mp)
        try:
            result, details = synthesize(circuit, device, "swap", config=config,
                                         return_details=True)
        except TCapExceeded:
            return
    if builds:
        return  # the exact model decided
    T0 = max(1, circuit.longest_chain)
    assert (result.swap_count, result.solver_T) == \
        (oracle_optimal(circuit, device, "swap", bounds=T0, S=S), T0)
    assert check_result(circuit, device, result, S=S) == []
    pins = flow_pins(circuit, device, "swap")

    def build(T):
        model, vs = encode(circuit, device, EncodingConfig(T=T, S=S), pins=pins)
        return apply_objective(model, vs, "swap", device, circuit), lambda verdict: verdict

    verdict, proven = solve_horizons(build, T0, grow_T, "swap", None, 12)
    assert (verdict.objective_value, proven.solver_T) == (result.swap_count, T0)
    assert details == proven


@pytest.mark.parametrize("circuit_name,T0", [("adder", 16), ("4mod5-v1_22", 14)])
def test_bundled_rows_take_the_certificate(monkeypatch, circuit_name, T0):
    circuit, device = bundled_circuit(f"{circuit_name}.gates"), bundled_device("qx2.json")
    builds = _count_builds(monkeypatch)
    searches = spy_searches(monkeypatch)
    result, details = synthesize(circuit, device, "swap", return_details=True)
    assert builds == []
    # the TB run takes the exact flow's pins and bound, so it searches for
    # neither an embedding nor automorphisms again
    assert searches == ["embedding", "automorphisms"]
    assert (result.swap_count, result.depth_slots, result.solver_T) == (1, T0, T0)
    assert result.depth_blocks is None
    assert details == SynthesisDetails(1, [T0], T0)
    assert check_result(circuit, device, result) == []
    # no later horizon can beat a value at its bound
    assert synthesize(circuit, device, "swap", extra_t=2) == result
    assert builds == []


@pytest.mark.parametrize("circuit_name,value,T", [("qaoa5", 1, 15), ("4mod5-v1_22", 2, 14)])
def test_bundled_rows_fall_back_to_the_exact_model(monkeypatch, circuit_name, value, T):
    # test_exact.BUNDLED_OPTIMA's values on grid2x3
    circuit, device = bundled_circuit(f"{circuit_name}.gates"), bundled_device("grid2x3.json")
    builds = _count_builds(monkeypatch)
    result, details = synthesize(circuit, device, "swap", return_details=True)
    assert builds == [T]
    assert (result.swap_count, result.solver_T) == (value, T)
    assert details == SynthesisDetails(value, [T], T)
    assert check_result(circuit, device, result) == []


def test_zero_timeout_still_times_out():
    circuit, device = bundled_circuit("adder.gates"), bundled_device("qx2.json")
    with pytest.raises(SynthesisTimeout):
        synthesize(circuit, device, "swap", config=EncodingConfig(T=1, timeout=0))


def test_cap_below_the_longest_chain_tries_no_tb_schedule(monkeypatch):
    circuit, device = bundled_circuit("adder.gates"), bundled_device("qx2.json")
    monkeypatch.setattr(transition, "_solve_coarse", lambda *a, **k: pytest.fail("TB ran"))
    with pytest.raises(TCapExceeded):
        synthesize(circuit, device, "swap", config=EncodingConfig(T=1, max_T=15))
