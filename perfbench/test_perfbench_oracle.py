"""Self-test of the benchmark's notion of a correct result, against the oracle.

On seeded tiny instances inside the brute-force caps (M <= 4, L <= 6, N <= 5):
the exact swap and depth optima at the exact flow's horizon T equal
`oracle_optimal(..., bounds=T)`, no flow beats the oracle, and every result
passes `check_result`. Run:  python3 -m pytest perfbench
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qlayout import (  # noqa: E402
    EncodingConfig,
    OracleError,
    TCapExceeded,
    build_device,
    check_result,
    load_circuit,
    oracle_optimal,
    phase_separation_from_graph,
    synthesize,
    synthesize_qaoa,
    synthesize_tb,
)

DEVICES = {
    "path4": build_device(4, [(0, 1), (1, 2), (2, 3)]),  # bipartite
    "square": build_device(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),  # bipartite
    "paw": build_device(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),  # odd cycle
    "split": build_device(5, [(0, 1), (1, 2), (3, 4)]),  # disconnected
}
SEEDS = range(6)
MAX_T = 12  # every feasible instance here is satisfiable well below this


def random_program(rng: random.Random, num_qubits: int) -> str:
    """Up to 6 gates; about a third 1q, and 2q gates often reuse a pair."""
    lines = [f"qubits {num_qubits}"]
    pairs = []
    for _ in range(rng.randint(2, 6)):
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


def cases():
    for name, device in DEVICES.items():
        for seed in SEEDS:
            rng = random.Random(f"{name}/{seed}")
            program = random_program(rng, rng.randint(2, 4))
            yield pytest.param(program, name, id=f"{name}-{seed}")
    # repeated pair with 1q gates between; a triangle that needs a SWAP
    yield pytest.param("qubits 2\ncx q0 q1\nh q0\ncx q0 q1\ncx q1 q0\n", "path4", id="repeat")
    yield pytest.param("qubits 3\ncx q0 q1\ncx q1 q2\ncx q0 q2\n", "path4", id="triangle")


def assert_valid(circuit, device, result, S):
    assert check_result(circuit, device, result, S=S) == []


@pytest.mark.parametrize("program,device_name", list(cases()))
@pytest.mark.parametrize("objective", ["swap", "depth"])
def test_flows_against_oracle(program, device_name, objective):
    circuit = load_circuit(program)
    device = DEVICES[device_name]
    config = EncodingConfig(T=1, objective=objective, max_T=MAX_T)
    try:
        free_swaps = oracle_optimal(circuit, device, "swap")
    except OracleError:  # some gate pair can never meet on this device
        with pytest.raises(TCapExceeded):
            synthesize(circuit, device, objective, config=config)
        return
    exact = synthesize(circuit, device, objective, config=config)
    assert_valid(circuit, device, exact, 3)
    T = exact.solver_T
    if objective == "swap":
        assert exact.swap_count == oracle_optimal(circuit, device, "swap", bounds=T)
    else:
        assert exact.depth_slots == oracle_optimal(circuit, device, "depth", bounds=T)
    _, tb = synthesize_tb(circuit, device, objective, max_T=MAX_T)
    assert_valid(circuit, device, tb, 3)
    assert tb.swap_count >= free_swaps
    assert tb.depth_slots >= oracle_optimal(circuit, device, "depth")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("objective", ["swap", "depth"])
def test_qaoa_never_beats_oracle(seed, objective):
    rng = random.Random(f"qaoa/{seed}")
    nodes = rng.randint(3, 4)
    all_pairs = [(a, b) for a in range(nodes) for b in range(a + 1, nodes)]
    edges = rng.sample(all_pairs, rng.randint(2, len(all_pairs)))
    circuit = phase_separation_from_graph(edges, nodes)
    device = DEVICES["path4"]
    result = synthesize_qaoa(circuit, device, objective, S=1, max_T=MAX_T)
    assert_valid(circuit, device, result, 1)
    assert result.swap_count >= oracle_optimal(circuit, device, "swap", S=1)
    assert result.depth_slots >= oracle_optimal(circuit, device, "depth", S=1)


@pytest.mark.xfail(strict=True, reason=(
    "TB degree cut counts gates, not distinct partners: two gates on one "
    "qubit pair force a second block"))
def test_tb_repeated_pair_fits_one_block():
    circuit = load_circuit("qubits 2; cx q0 q1; cx q0 q1")
    device = build_device(2, [(0, 1)])
    plan, result = synthesize_tb(circuit, device, "swap")
    assert_valid(circuit, device, result, 3)
    assert plan.num_blocks == 1
