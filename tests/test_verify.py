"""Independent result checking: every family must catch its own violations."""

import math
from dataclasses import replace

import pytest

from qlayout.circuit import load_circuit, parse_program, preprocess
from qlayout.device import build_device
from qlayout.results import GatePlacement, SwapPlacement, SynthesisResult
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
