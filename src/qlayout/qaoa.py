"""Commutation-aware two-pass synthesis for phase-separation circuits.

Phase-separation stages are made of two-qubit ZZ gates that all commute,
so gate order is free: pass 1 runs the coarse block model with no
dependency constraints at all, pass 2 re-times the gates inside each block
with the block's mapping fixed and no SWAPs. Two gates of a block clash
exactly when they share a physical node, so pass 2 is a minimum colouring
of that clash graph, found by an exact search with no solver model. Depth
accounting here follows the unit metric: ZZ gates and SWAPs both take one
slot (S=1) unless overridden.
"""

from __future__ import annotations

import time
from collections import Counter

from .circuit import Circuit, CircuitError, Gate, preprocess
from .device import Device
from .exact import SynthesisDetails, SynthesisTimeout
from .transition import (
    _block_order,
    _schedule_core,
    _schedule_result,
    _schedule_tables,
    _solve_coarse,
    check_plan,
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


def _retime_block(pairs, deadline: float | None):
    """Minimum-depth re-timing of one block: pairs[i] is gate i's physical
    node pair under the block's fixed mapping. Returns a slot per gate.

    Gates sharing a node clash, so the fewest slots is the fewest colours.
    Iterative deepening on k from the largest node load, a lower bound: a
    depth-first search gives each gate in turn the lowest colour below k
    that no clashing earlier gate holds, opening at most one colour above
    the highest used so far. The first k that fits is the minimum. Raises
    SynthesisTimeout once `deadline` (time.monotonic) has passed, checked
    on the first search node and every 256 after.
    """
    n = len(pairs)
    clash = [[j for j in range(i) if set(pairs[i]) & set(pairs[j])]
             for i in range(n)]
    k = max(Counter(p for pair in pairs for p in pair).values(), default=0)
    searched = 0
    while True:
        slot = [-1] * n
        i = 0
        while 0 <= i < n:
            if searched % 256 == 0 and deadline is not None \
                    and time.monotonic() >= deadline:
                raise SynthesisTimeout("time budget passed re-timing a block")
            searched += 1
            taken = {slot[j] for j in clash[i]}
            limit = min(max(slot[:i], default=-1) + 2, k)
            free = [c for c in range(slot[i] + 1, limit) if c not in taken]
            if free:
                slot[i] = free[0]
                i += 1
            else:
                slot[i] = -1
                i -= 1
        if i == n:
            return slot
        k += 1


def synthesize_qaoa(circuit: Circuit, device: Device, objective: str = "swap",
                    S: int = 1, timeout: float | None = None, max_T: int = 256,
                    return_details: bool = False):
    """Two passes: the coarse block model with dependencies removed picks
    blocks, mappings, and transitions; each block is then re-timed to its
    minimum depth, an exact minimum colouring of its gates by shared
    physical node with no solver model, and the blocks are stitched by
    earliest node availability. Pass-1 SWAPs are carried over unchanged.

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
    plan, verdict, tried = _solve_coarse(circuit, device, objective, S,
                                         timeout, max_T)
    check_plan(plan, circuit, device)

    tables = _schedule_tables(plan, circuit, device)

    # pass 2: minimum-depth gate order inside each block
    order: list[list[int]] = []
    for b, block_gates in enumerate(_block_order(plan.gate_block, plan.num_blocks)):
        deadline = None if timeout is None else time.monotonic() + timeout
        slots = _retime_block([tables.nodes[b][l] for l in block_gates], deadline)
        ranked = sorted(range(len(block_gates)), key=lambda i: (slots[i], block_gates[i]))
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
