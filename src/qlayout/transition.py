"""Transition-based synthesis: coarse gate blocks, then exact-time scheduling.

The coarse model reuses the exact encoder with one slot per block (S=1),
dependencies weakened to <= so dependent gates may share a block, and the
gate/SWAP conflict families dropped: a transition owns the block boundary.
The solved assignment becomes a TransitionPlan; asap_schedule replays it
with real S-slot SWAPs and emits a result that passes the full verifier.

Each plan is compiled once into schedule tables (the circuit's per-gate
predecessors, ancestor sets and dependency tails, and the plan's per-block
gate nodes and fired SWAPs). One
node-availability scheduler, _schedule_core, runs on them: for the ASAP
replay, and for the block splits and partial splits the polish step bounds
and scores. The polish walks every feasible block split, and skips each
block that is dominated by the one before it (_dominated): a gate ordered
against every gate that shares a qubit with it, on nodes the transition
between the two blocks leaves alone, runs in the same slot in either block.

asap_schedule is the one path from a plan to a result. It runs each block's
gates in index order, or, when the circuit has no dependencies, re-timed to
a minimum colouring (qaoa._retime_block; the QAOA flow is this one with its
input checks), and hands the times and SWAPs to exact.build_result.

_solve_coarse is the whole coarse flow of TB, QAOA and the exact flow's
one-SWAP certificate: it finds the symmetry pins and the SWAP bound once
with exact._pins_and_swap_bound (or takes the caller's), runs the one
horizon loop, exact.solve_horizons, on encode_tb with them, from two
blocks when the interaction graph does not embed (exact._embedding), then
polishes and schedules the plan the loop returns (extract_plan). encode_tb hands the pins to exact.encode,
which owns the pin clauses; the coarse model adds only its cuts.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from typing import NamedTuple

from . import solver as sv
from .circuit import Circuit
from .device import Device
from .exact import (
    OBJECTIVES,
    EncodingConfig,
    _check_fits,
    _deadline,
    _embedding,
    _pins_and_swap_bound,
    apply_objective,
    build_result,
    encode,
    solve_horizons,
    swap_step,
)
from .results import SynthesisResult, TransitionPlan


def encode_tb(circuit: Circuit, device: Device, T_coarse: int,
              objective: str, *, pins):
    """Emit the coarse block model; returns (model, variables).

    pins are the symmetry clauses of exact._symmetry_pins under `objective`,
    handed to encode; the flows find them once, in _solve_coarse.
    """
    cfg = EncodingConfig(T=T_coarse, S=1, objective=objective)
    model, vs = encode(circuit, device, cfg, coarse=True, pins=pins)
    _coarse_cuts(model, vs, circuit, device, T_coarse)
    apply_objective(model, vs, objective, device, circuit)
    return model, vs


def _coarse_cuts(model, vs, circuit: Circuit, device: Device, T: int) -> None:
    """Cuts for the coarse model: the degree cut and the one-hop clauses.

    The degree cut says a qubit whose block t runs g of its gates needs g
    distinct neighbours, so it cannot sit on a node p of degree d < g. For a
    qubit q with g >= 2 gates it is one weighted row per block t and such
    node p, stated in one require_at_least call:
    sum over q's gates l of [t_l != t] + (g - d) * [pi_q^t != p] >= g - d,
    so on p at most d of them run in block t. Each (q, t) builds its
    "t_l != t" literals once. The cut is not implied by the base families:
    it counts a qubit's gates, not its distinct partners, so it can refuse
    a block that runs two gates on one pair.

    The one-hop clauses follow from the base families: with S=1 the SWAPs of
    one transition are pairwise node-disjoint, so a qubit moves at most one
    hop.
    """
    N = device.num_physical
    M = circuit.num_qubits
    degree = [len(device.incident[p]) for p in range(N)]
    at = [[model.lits(h) for h in row] for row in vs.pi]
    when = [model.lits(h) for h in vs.time]

    touching: list[list[int]] = [[] for _ in range(M)]
    for g in circuit.gates:
        if g.is_two_qubit:
            for q in g.qubits:
                touching[q].append(g.index)
    rows = []
    for q, gates_q in enumerate(touching):
        g = len(gates_q)
        if g < 2:
            continue
        # (node, coefficients, bound) of each node of degree below g
        low = [(p, [1] * g + [g - d], g - d) for p, d in enumerate(degree) if d < g]
        for t in range(T):
            away = [when[l][t] ^ 1 for l in gates_q]
            here = at[q][t]
            rows += [([*away, here[p] ^ 1], coefs, b) for p, coefs, b in low]
    model.require_at_least(rows)

    # disjoint SWAPs move a qubit at most one hop per transition
    # ([pi_q^t != p] or pi_q^{t+1} in {p} + neighbours(p), over Model.lits)
    closed = [[p, *device.neighbours[p]] for p in range(N)]
    model.require_clauses([[at[q][t][p] ^ 1, *map(at[q][t + 1].__getitem__, closed[p])]
                           for q in range(M) for t in range(T - 1) for p in range(N)])


def extract_plan(circuit: Circuit, device: Device, verdict: sv.Verdict,
                 vs) -> TransitionPlan:
    """Assignment -> TransitionPlan. Blocks past the last gate are dropped,
    along with any transition variables fired after the final block; every
    boundary between the blocks kept gets its SWAP set, empty or not."""
    a = verdict.assignment
    times = [a[h] for h in vs.time]
    B = max(times) + 1 if times else 1
    mappings = tuple(
        tuple(a[vs.pi[q][t]] for q in range(circuit.num_qubits))
        for t in range(B)
    )
    transitions = tuple(
        frozenset(k for k in range(device.num_edges) if a[vs.sigma[k][j]])
        for j in range(B - 1))
    return TransitionPlan(
        num_blocks=B,
        gate_block=tuple(times),
        block_mapping=mappings,
        transitions=transitions,
    )


def check_plan(plan: TransitionPlan, circuit: Circuit, device: Device) -> None:
    """Raise ValueError on any violated plan invariant."""
    if circuit.dependencies is None:
        raise ValueError("circuit must be preprocessed before planning")
    M, L, N = circuit.num_qubits, circuit.num_gates, device.num_physical
    B = plan.num_blocks
    if B < 1:
        raise ValueError("plan needs at least one block")
    if len(plan.gate_block) != L:
        raise ValueError(f"plan assigns {len(plan.gate_block)} gates, circuit has {L}")
    for l, b in enumerate(plan.gate_block):
        if not 0 <= b < B:
            raise ValueError(f"gate {l} assigned to block {b} outside 0..{B - 1}")
    if len(plan.block_mapping) != B:
        raise ValueError(f"plan has {len(plan.block_mapping)} mappings for {B} blocks")
    for b, row in enumerate(plan.block_mapping):
        if len(row) != M:
            raise ValueError(f"block {b} mapping has {len(row)} entries, expected {M}")
        for q, p in enumerate(row):
            if not 0 <= p < N:
                raise ValueError(f"block {b}: q{q} mapped to p{p} outside device")
        if len(set(row)) != M:
            raise ValueError(f"block {b} mapping is not injective")
    for l, lp in circuit.dependencies:
        if plan.gate_block[l] > plan.gate_block[lp]:
            raise ValueError(f"dependency {l}->{lp} runs backwards across blocks")
    for g in circuit.gates:
        if not g.is_two_qubit:
            continue
        row = plan.block_mapping[plan.gate_block[g.index]]
        pq, pr = row[g.qubits[0]], row[g.qubits[1]]
        if pr not in device.neighbours[pq]:
            raise ValueError(
                f"gate {g.index} operands sit on p{pq},p{pr}: not adjacent "
                f"in block {plan.gate_block[g.index]}")
    if len(plan.transitions) != B - 1:
        raise ValueError(f"plan has {len(plan.transitions)} transitions for {B} blocks")
    for j, edges in enumerate(plan.transitions):
        used: set[int] = set()
        for k in edges:
            if not 0 <= k < device.num_edges:
                raise ValueError(f"transition {j}: edge {k} out of range")
            a, b = device.edges[k]
            if a in used or b in used:
                raise ValueError(f"transition {j}: SWAP edges overlap on a node")
            used.add(a)
            used.add(b)
        # consecutive mappings must differ exactly by the fired SWAPs
        row = swap_step(plan.block_mapping[j], sorted(edges), device)
        if row != tuple(plan.block_mapping[j + 1]):
            raise ValueError(
                f"block {j + 1} mapping does not follow from block {j} "
                f"through transition {j}")


class _ScheduleTables(NamedTuple):
    """A plan's mappings and transitions, compiled for _schedule_core, with
    the circuit's own tables the scheduler reads.

    They do not depend on the gate-to-block split, so one set serves every
    split of the same plan.
    """

    num_physical: int
    # preds[l]: the dependency predecessors of gate l, transitively reduced
    # (Circuit.preds)
    preds: tuple[tuple[int, ...], ...]
    # tail[l]: the longest dependency chain after gate l, in gates; a
    # schedule runs at least that many slots after l (Circuit.tail)
    tail: tuple[int, ...]
    # nodes[b][l]: gate l's physical nodes under block b's mapping; a
    # one-qubit gate lists its node twice
    nodes: list[list[tuple[int, int]]]
    # fired[b]: the SWAPs after block b as (edge, p, q), p and q the edge's
    # endpoints, in edge order
    fired: list[list[tuple[int, int, int]]]
    # ancestors[l]: gate l's dependency ancestors, as a bit set; the
    # polish reads them (_dominated), the scheduler does not
    ancestors: tuple[int, ...]


def _schedule_tables(plan: TransitionPlan, circuit: Circuit,
                    device: Device) -> _ScheduleTables:
    """Build the schedule tables of a plan (see _ScheduleTables).

    Circuit.preds drops a predecessor implied through another one: a
    schedule runs each gate after its predecessors (a plan never puts a
    dependent gate in an earlier block), so times strictly rise along every
    dependency path and the implied predecessor never binds.
    """
    nodes = [[(row[g.qubits[0]], row[g.qubits[-1]]) for g in circuit.gates]
             for row in plan.block_mapping]
    fired = [[(k, *device.edges[k]) for k in sorted(edges)]
             for edges in (*plan.transitions, ())]
    return _ScheduleTables(device.num_physical, circuit.preds, circuit.tail, nodes, fired,
                           circuit.ancestors)


def _schedule_core(tables: _ScheduleTables, order, S: int,
                   limit: int = sys.maxsize):
    """Node-availability simulation: the one scheduler behind asap_schedule
    and the plan polish step.

    order[b] lists block b's gates in execution order. Each gate runs at
    the earliest slot its nodes are free and its predecessors are done;
    after block b its SWAPs start, in edge order, once both endpoints are
    free, and hold them for S slots. Returns (gate_time, swaps), swaps as
    sorted (finish, edge) pairs.

    The simulation is monotone: inserting a gate into `order` never makes a
    gate or SWAP earlier, as every free slot it reads only grows. So once a
    gate gets slot t, every full split that extends `order` runs at least
    t + tail + 1 slots. The call returns None as soon as that bound reaches
    `limit`.
    """
    preds, tail, nodes, fired = tables.preds, tables.tail, tables.nodes, tables.fired
    cap = limit - 1
    node_free = [0] * tables.num_physical
    gate_time = [0] * len(preds)
    swaps = []
    for b, gates in enumerate(order):
        at = nodes[b]
        for l in gates:
            p, q = at[l]
            slot = node_free[p]
            if node_free[q] > slot:
                slot = node_free[q]
            for i in preds[l]:
                if gate_time[i] >= slot:
                    slot = gate_time[i] + 1
            if slot + tail[l] >= cap:
                return None
            gate_time[l] = slot
            node_free[p] = node_free[q] = slot + 1
        for k, p, q in fired[b]:
            finish = max(node_free[p], node_free[q]) + S - 1
            swaps.append((finish, k))
            node_free[p] = node_free[q] = finish + 1
    swaps.sort()
    return gate_time, swaps


def _block_order(gate_block, num_blocks: int) -> list[list[int]]:
    """Per-block gate lists in index order."""
    order: list[list[int]] = [[] for _ in range(num_blocks)]
    for l, b in enumerate(gate_block):
        order[b].append(l)
    return order


def _check_slots(S) -> None:
    """ValueError unless the SWAP duration S is an int of at least 1 slot."""
    if S.__class__ is not int:
        raise ValueError(f"S must be an int, not {S!r}")
    if S < 1:
        raise ValueError("S must be >= 1")


def asap_schedule(plan: TransitionPlan, circuit: Circuit, device: Device,
                  S: int = 3, deadline: float | None = None) -> SynthesisResult:
    """Exact-time replay of a plan, the one path from a plan to a result:
    every gate runs at the earliest slot allowed by its dependencies and by
    the SWAP windows on its nodes. A block runs its gates in index order, or,
    with no dependencies (every gate commutes), ranked by (slot, index) in a
    minimum colouring by shared node (qaoa._retime_block, within `deadline`).

    A transition SWAP starts once every earlier-block gate on its endpoints
    has finished and holds both nodes for S slots; gates elsewhere are free
    to run alongside it. The trajectory extends past the last gate when a
    late SWAP still has a mapping step to show.
    """
    _check_slots(S)
    check_plan(plan, circuit, device)
    order = _block_order(plan.gate_block, plan.num_blocks)
    if not circuit.dependencies:
        from .qaoa import _retime_block  # qaoa imports this module
        for row, gates in zip(plan.block_mapping, order):
            slots = _retime_block([[row[q] for q in circuit.gates[l].qubits] for l in gates],
                                  deadline)
            gates[:] = [l for _, l in sorted(zip(slots, gates))]
    gate_time, swaps = _schedule_core(_schedule_tables(plan, circuit, device), order, S)
    return build_result(circuit, device, plan.num_blocks, plan.block_mapping[0],
                        gate_time, swaps, plan.num_blocks)


def _dominated(tables: _ScheduleTables) -> list[list[bool]]:
    """dominated[l][b]: block b is never a better choice for gate l than
    block b - 1, when its predecessors allow both.

    That holds when (i) every gate that shares a qubit with gate l is its
    dependency ancestor or descendant, and (ii) transition b - 1 moves
    neither of its nodes. Its qubits then sit on those nodes in both
    blocks, so each other gate on them there shares a qubit with it: an
    ancestor, in block b - 1 or earlier and before it in index order, or a
    descendant, in block b or later and after it. Between its place in
    block b - 1 and its place in block b, no gate and no SWAP touches its
    nodes or waits for it. Moving it down, every other gate kept where it
    is, runs it in the same slot and leaves the schedule as it was.
    """
    nodes = tables.nodes
    L, B = len(tables.preds), len(nodes)
    # loose: the gates that share a qubit (a node under one mapping) with
    # a gate that is neither their ancestor nor descendant, as a bit set
    loose = 0
    on_node = [0] * tables.num_physical
    for l, (p, q) in enumerate(nodes[0]):
        shared = (on_node[p] | on_node[q]) & ~tables.ancestors[l]
        if shared:
            loose |= shared | 1 << l
        on_node[p] |= 1 << l
        on_node[q] |= 1 << l
    touched = [{p for _, *edge in swaps for p in edge} for swaps in tables.fired]
    dominated = [[False] * B for _ in range(L)]
    for l in range(L):
        if not loose >> l & 1:
            for b in range(1, B):
                dominated[l][b] = touched[b - 1].isdisjoint(nodes[b][l])
    return dominated


def _polish_plan(plan: TransitionPlan, circuit: Circuit, device: Device,
                 S: int, node_budget: int = 20000) -> TransitionPlan:
    """Re-assign gates to blocks, keeping mappings and transitions fixed, to
    minimize the scheduled makespan.

    The coarse solver optimizes its own objective and is free to pick any
    block split among equally good ones; splits differ widely in scheduled
    depth. The walk assigns gates in index order (a topological order),
    each to a feasible block no earlier than its predecessors' latest one,
    so its space is every feasible split. It returns the first split in
    walk order with the smallest depth; the plan's own split wins ties.

    The walk is a branch-and-bound over _schedule_core's monotone bound (a
    gate at slot t puts every full split that extends the scheduled one at
    t + tail + 1 slots or more). It makes five sound cuts, so within the
    budget it returns the split the exhaustive walk would:
    - it stops once the best depth equals the longest dependency chain, a
      lower bound on every split; the plan's own split is checked first;
    - at a gate with more than one choice, it schedules the gates assigned
      so far and every SWAP, and prunes the subtree when their bound
      reaches the best depth;
    - it stops scoring a leaf as soon as one gate's bound reaches it;
    - it skips a block that is dominated by the one before it (see
      _dominated): each split with the gate there is matched by the split
      with the gate one block down, earlier in walk order, that runs the
      same schedule, so the first best split stays;
    - it gives no gate a block past the last one its successors can still
      follow: the subtree below holds no split.
    The walk keeps each block's gate list in index order as it assigns and
    unassigns gates, so every prefix and leaf goes to the scheduler as is.

    node_budget counts the leaves the walk reaches, scored in full or not;
    at the budget it stops and keeps the best seen (a budget of 0 keeps the
    plan). The pruned walk reaches a subsequence of the exhaustive walk's
    leaves and skips only those that cannot win or are matched by an
    earlier one, so under a budget that binds its depth is never worse.
    """
    B = plan.num_blocks
    L = circuit.num_gates
    if B < 2 or L == 0:
        return plan
    tables = _schedule_tables(plan, circuit, device)
    preds, nodes = tables.preds, tables.nodes

    feas = [[b for b, (p, q) in enumerate(row[g.index] for row in nodes)
             if not g.is_two_qubit or q in device.neighbours[p]]
            for g in circuit.gates]
    if all(len(blocks) == 1 for blocks in feas):
        return plan
    gate_time, _ = _schedule_core(tables, _block_order(plan.gate_block, B), S)
    best_depth = max(gate_time) + 1
    lower = max(tables.tail) + 1
    if best_depth == lower:
        return plan
    dominated = _dominated(tables)
    # latest[l]: the last block gate l can take with every successor still
    # given a feasible block at or after it; the plan's own split is such a
    # split, so one exists
    latest = [B - 1] * L
    for l in reversed(range(L)):
        latest[l] = max(b for b in feas[l] if b <= latest[l])
        for i in preds[l]:
            latest[i] = min(latest[i], latest[l])
    # choices[l][bound]: the blocks gate l may take when its predecessors'
    # latest block is `bound`; no gate takes a block past latest[l] or one
    # that is dominated by the block before it
    choices = [[[b for b in feas[l] if b <= latest[l]
                 and (b == bound or b > bound and not dominated[l][b])]
                for bound in range(B)] for l in range(L)]

    best_blocks = None
    blocks = [0] * L
    order: list[list[int]] = [[] for _ in range(B)]
    visited = 0

    def walk(l: int) -> None:
        nonlocal best_depth, best_blocks, visited
        if l == L:
            visited += 1
            scored = _schedule_core(tables, order, S, best_depth)
            if scored is not None:
                best_depth = max(scored[0]) + 1
                best_blocks = blocks[:]
            return
        bound = 0
        for i in preds[l]:
            if blocks[i] > bound:
                bound = blocks[i]
        options = choices[l][bound]
        if len(options) > 1 and _schedule_core(tables, order, S, best_depth) is None:
            return
        for b in options:
            blocks[l] = b
            order[b].append(l)
            walk(l + 1)
            order[b].pop()
            if visited >= node_budget or best_depth == lower:
                return

    if node_budget > 0:
        walk(0)
    if best_blocks is None:
        return plan
    return replace(plan, gate_block=tuple(best_blocks))


def _solve_coarse(circuit: Circuit, device: Device, objective: str, S: int,
                  deadline: float | None, max_T: int, *, pins=None,
                  min_swaps: int | None = None):
    """The coarse flow of TB, QAOA and the exact flow's one-SWAP
    certificate: grow the block count until the block model is
    satisfiable, then polish and schedule (asap_schedule) its plan.

    min_swaps is the SWAP count every plan needs and pins the symmetry
    pins under `objective`; a caller passes both or neither, and for
    neither they are found once, for every horizon, with exact._embedding
    (after exact._check_fits) and exact._pins_and_swap_bound. The count
    starts at 1 block when min_swaps is 0, and else at 2, as one block
    holds no SWAP; the horizon loop gets min_swaps as its bound. Every step
    keeps the caller's deadline (exact._deadline). An unknown objective is
    refused first. Returns (plan, result, details)."""
    _check_slots(S)
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    if pins is None:
        _check_fits(circuit, device)
        needs_swap = _embedding(circuit, device, deadline) is None
        pins, min_swaps = _pins_and_swap_bound(circuit, device, objective, needs_swap,
                                               deadline)

    def build(T):
        model, vs = encode_tb(circuit, device, T, objective, pins=pins)
        return model, lambda verdict: extract_plan(circuit, device, verdict, vs)

    plan, details = solve_horizons(build, 1 if min_swaps == 0 else 2, lambda T: T + 1,
                                   objective, deadline, max_T, min_swaps=min_swaps)
    plan = _polish_plan(plan, circuit, device, S)
    return plan, asap_schedule(plan, circuit, device, S, deadline), details


def synthesize_tb(circuit: Circuit, device: Device, objective: str = "swap",
                  S: int = 3, timeout: float | None = None, max_T: int = 256):
    """Grow the coarse horizon one block at a time, from 1 when the
    interaction graph embeds in the coupling graph and from 2 otherwise,
    until the block model is satisfiable, then schedule the optimal plan at
    exact time (_solve_coarse).

    The solved plan's block split is refined first: the coarse model cannot
    see exact-time slots, so among equal-objective splits the one with the
    smallest scheduled makespan is kept (mappings, transitions, and the
    SWAP count are untouched). With no dependencies, each block is re-timed
    (asap_schedule): the QAOA flow is this flow at S=1.

    timeout bounds the whole call: every step keeps its one deadline.
    Returns (plan, result).
    """
    plan, result, _ = _solve_coarse(circuit, device, objective, S,
                                    _deadline(timeout, max_T), max_T)
    return plan, result
