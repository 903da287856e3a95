"""Commutation-aware synthesis for phase-separation circuits.

Phase-separation stages are made of two-qubit ZZ gates that all commute,
so gate order is free: the QAOA flow is the TB flow (transition) with its
input checks. Its coarse block model has no dependency constraints, and
asap_schedule re-times each block's gates with the mapping fixed. Two gates
of a block clash exactly when they share a physical node, so the re-timing
is a minimum colouring of that clash graph (_retime_block, an exact search
with no solver model). Depth accounting follows the unit metric: ZZ gates
and SWAPs both take one slot (S=1) unless overridden.
"""

from __future__ import annotations

import time
from collections import Counter

from .circuit import Circuit, CircuitError, Gate, preprocess
from .device import Device
from .exact import SynthesisTimeout, _deadline
from .transition import _solve_coarse


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
    """The TB flow (transition._solve_coarse) at S=1 on two-qubit gates
    with an empty dependency list: the coarse model picks blocks, mappings
    and SWAPs, and each block is re-timed to its minimum depth. timeout
    bounds the whole call: every step keeps its one deadline.
    """
    deadline = _deadline(timeout, max_T)
    for g in circuit.gates:
        if not g.is_two_qubit:
            raise ValueError(
                f"gate {g.index} is single-qubit: phase separation takes "
                f"two-qubit gates only")
    if circuit.dependencies:
        raise ValueError(
            "phase-separation input must declare all gates commuting "
            "(empty dependency list)")
    plan, result, details = _solve_coarse(circuit, device, objective, S, deadline, max_T)
    if return_details:
        return result, plan, details
    return result
