"""Commutation-aware two-pass synthesis for phase-separation circuits.

Phase-separation stages are made of two-qubit ZZ gates that all commute,
so gate order is free: pass 1 runs the coarse block model with no
dependency constraints at all, pass 2 re-times the gates inside each block
with the edge assignments pinned and every SWAP variable forced off. Two
gates sharing a logical qubit still contend for one physical qubit, so
pass 2 serializes them explicitly. Depth accounting here follows the unit
metric: ZZ gates and SWAPs both take one slot (S=1) unless overridden.
"""

from __future__ import annotations

from . import solver as sv
from .circuit import Circuit, CircuitError, Gate, preprocess
from .device import Device
from .exact import EncodingConfig, SynthesisDetails, apply_objective, encode
from .exact import SynthesisTimeout, TCapExceeded
from .transition import (
    _block_order,
    _polish_plan,
    _schedule_core,
    _schedule_result,
    _schedule_tables,
    check_plan,
    encode_tb,
    extract_plan,
)


def phase_separation_from_graph(edges, num_nodes: int | None = None) -> Circuit:
    """One ZZ gate per graph edge, in input order, with no dependencies."""
    gates = []
    top = -1
    for i, j in edges:
        if i == j:
            raise CircuitError(f"self-loop on node {i}")
        if i < 0 or j < 0:
            raise CircuitError(f"negative node in edge ({i}, {j})")
        gates.append(Gate(index=len(gates), name="zz", qubits=(i, j)))
        top = max(top, i, j)
    if num_nodes is None:
        num_nodes = top + 1
    elif num_nodes <= top:
        raise CircuitError(f"edge touches node {top}, graph has {num_nodes} nodes")
    circuit = Circuit(num_qubits=num_nodes, gates=tuple(gates))
    return preprocess(circuit, user_deps=[])


def parse_graph(text: str):
    """Edge-list format: one "i j" pair per line; blank lines and #-comments
    are skipped. Returns (num_nodes, edges)."""
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CircuitError(f"line {lineno}: expected 'i j', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise CircuitError(f"line {lineno}: bad node in {line!r}") from None
        if i < 0 or j < 0:
            raise CircuitError(f"line {lineno}: negative node")
        edges.append((i, j))
        top = max(top, i, j)
    return top + 1, edges


def _retime_block(block_gates, circuit: Circuit, device: Device,
                  locations, timeout):
    """Minimum-depth re-timing of one block: edge assignments pinned, SWAPs
    off, same-qubit gates kept apart. Returns slot per block gate."""
    L_b = len(block_gates)
    if L_b == 0:
        return []
    sub = Circuit(
        num_qubits=circuit.num_qubits,
        gates=tuple(
            Gate(index=i, name=circuit.gates[l].name, qubits=circuit.gates[l].qubits)
            for i, l in enumerate(block_gates)
        ),
    )
    sub = preprocess(sub, user_deps=[])
    cfg = EncodingConfig(T=L_b, S=1, objective="depth",
                         relaxed_dependencies=True, gate_swap_conflicts=False)
    model, vs = encode(sub, device, cfg)
    for i in range(L_b):
        model.require_clause([(vs.space[i], locations[i], True)])
    for row in vs.sigma:
        for h in row:
            model.require_clause([(h, 0, True)])
    for i in range(L_b):
        for j in range(i + 1, L_b):
            if set(sub.gates[i].qubits) & set(sub.gates[j].qubits):
                model.require(sv.NeVar(vs.time[i], vs.time[j]))
    apply_objective(model, vs, "depth", device, sub)
    verdict = sv.solve(model, timeout=timeout)
    if verdict.status == sv.TIMEOUT:
        raise SynthesisTimeout("solver hit time budget re-timing a block")
    if verdict.status != sv.SAT:
        raise RuntimeError("block re-timing is infeasible: pass-1 output broken")
    return [verdict.assignment[h] for h in vs.time]


def synthesize_qaoa(circuit: Circuit, device: Device, objective: str = "swap",
                    S: int = 1, timeout: float | None = None, max_T: int = 256,
                    return_details: bool = False):
    """Two passes: the coarse block model with dependencies removed picks
    blocks, mappings, and transitions; each block is then re-timed at fixed
    edges to its minimum depth and the blocks are stitched by earliest
    node availability. Pass-1 SWAPs are carried over unchanged.

    The stitch is transition._schedule_core run on the pass-2 gate order;
    with no dependencies, only node availability places each gate.
    """
    if circuit.dependencies is None:
        raise ValueError("circuit must be preprocessed before synthesis")
    for g in circuit.gates:
        if not g.is_two_qubit:
            raise ValueError(
                f"gate {g.index} is single-qubit: phase separation takes "
                f"two-qubit gates only")
    if circuit.dependencies:
        raise ValueError(
            "phase-separation input must declare all gates commuting "
            "(empty dependency list)")

    # pass 1: coarse blocks with no gate ordering at all
    tried = []
    T = 1
    while True:
        if T > max_T:
            raise TCapExceeded(f"no satisfiable coarse horizon up to max_T={max_T}")
        model, vs = encode_tb(circuit, device, T, objective)
        verdict = sv.solve(model, timeout=timeout)
        tried.append(T)
        if verdict.status == sv.TIMEOUT:
            raise SynthesisTimeout(f"solver hit time budget at coarse T={T}")
        if verdict.status == sv.SAT:
            break
        T += 1
    plan = extract_plan(circuit, device, verdict, vs)
    plan = _polish_plan(plan, circuit, device, S)
    check_plan(plan, circuit, device)

    tables = _schedule_tables(plan, circuit, device)

    # pass 2: optimal layer order inside each block
    order: list[list[int]] = []
    for b, block_gates in enumerate(_block_order(plan.gate_block, plan.num_blocks)):
        locs = [device.edge_index(*tables.nodes[b][l]) for l in block_gates]
        layers = _retime_block(block_gates, circuit, device, locs, timeout)
        ranked = sorted(range(len(block_gates)), key=lambda i: (layers[i], block_gates[i]))
        order.append([block_gates[i] for i in ranked])

    # stitch: earliest node availability, pass-2 order preserved
    gate_time, swaps = _schedule_core(tables, order, S)
    result = _schedule_result(plan, circuit, device, tables, gate_time, swaps)
    if return_details:
        details = SynthesisDetails(
            objective_value=verdict.objective_value, tried_T=tried,
            solver_T=plan.num_blocks)
        return result, plan, details
    return result
