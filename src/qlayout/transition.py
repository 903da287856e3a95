"""Transition-based synthesis: coarse gate blocks, then exact-time scheduling.

The coarse model reuses the exact encoder with one slot per block (S=1),
dependencies weakened to <= so dependent gates may share a block, and the
gate/SWAP conflict families dropped: a transition owns the block boundary.
The solved assignment becomes a TransitionPlan; asap_schedule replays it
with real S-slot SWAPs and emits a result that passes the full verifier.

Each plan is compiled once into schedule tables (per-gate predecessors,
per-block gate nodes and fired SWAPs). One node-availability scheduler,
_schedule_core, runs on them: for the ASAP replay, for every block split
the polish step scores, and for the QAOA flow's stitch. One helper,
_schedule_result, turns its gate times and SWAPs into a SynthesisResult.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import NamedTuple

from . import solver as sv
from . import verify
from .circuit import Circuit
from .device import Device, DeviceError, bipartition, enumerate_automorphisms
from .exact import (
    EncodingConfig,
    SynthesisDetails,
    SynthesisTimeout,
    TCapExceeded,
    apply_objective,
    encode,
)
from .results import GatePlacement, SwapPlacement, SynthesisResult, TransitionPlan


def encode_tb(circuit: Circuit, device: Device, T_coarse: int,
              objective: str = "swap"):
    """Emit the coarse block model; returns (model, variables)."""
    cfg = EncodingConfig(T=T_coarse, S=1, objective=objective,
                         relaxed_dependencies=True, gate_swap_conflicts=False)
    model, vs = encode(circuit, device, cfg)
    _coarse_cuts(model, vs, circuit, device, T_coarse)
    _symmetry_clauses(model, vs, circuit, device, objective)
    apply_objective(model, vs, objective, device, circuit)
    return model, vs


def _profile_invariant(device: Device, perm) -> bool:
    f0, f1, f2 = device.f_measure, device.f_single, device.f_two
    for p in range(device.num_physical):
        if f0[perm[p]] != f0[p] or f1[perm[p]] != f1[p]:
            return False
    for k, (a, b) in enumerate(device.edges):
        if f2[device.edge_index(perm[a], perm[b])] != f2[k]:
            return False
    return True


def _symmetry_clauses(model, vs, circuit: Circuit, device: Device,
                      objective: str) -> None:
    """Pin the row-0 placement of up to two qubits to orbit representatives
    of the device's cost-preserving automorphisms.

    Relabeling a whole solution by such an automorphism yields another
    solution with the same block count, SWAP count, and objective value,
    so restricting one solution per group orbit cannot change the optimum.
    The first qubit may only start on an orbit representative; under each
    representative with a nontrivial stabilizer, the second qubit is pinned
    to stabilizer-orbit representatives.
    """
    M = circuit.num_qubits
    if M == 0:
        return
    perms = enumerate_automorphisms(device)
    if perms is None or len(perms) <= 1:
        return
    if objective == "fidelity":
        perms = [g for g in perms if _profile_invariant(device, g)]
        if len(perms) <= 1:
            return
    N = device.num_physical
    rep = [min(g[p] for g in perms) for p in range(N)]
    reps = sorted(set(rep))
    model.require_clause([(vs.pi[0][0], r, True) for r in reps])
    if M < 2:
        return
    for r in reps:
        stab = [g for g in perms if g[r] == r]
        if len(stab) <= 1:
            continue
        # injectivity keeps the second qubit off r, so drop r's own orbit
        sreps = sorted({min(g[p] for g in stab) for p in range(N) if p != r})
        if len(sreps) >= N - 1:
            continue
        model.require_clause([(vs.pi[0][0], r, False),
                              *[(vs.pi[1][0], s, True) for s in sreps]])


def _odd_cycles(circuit: Circuit, cap: int = 1500):
    """Short odd cycles (length 3, 5, 7) of the interaction graph, each as
    a tuple of gate-index lists, one list per cycle edge (a qubit pair may
    be realized by several gates)."""
    M = circuit.num_qubits
    pair_gates: dict[tuple[int, int], list[int]] = {}
    for g in circuit.gates:
        if g.is_two_qubit:
            a, b = sorted(g.qubits)
            pair_gates.setdefault((a, b), []).append(g.index)
    adj: list[list[int]] = [[] for _ in range(M)]
    for a, b in pair_gates:
        adj[a].append(b)
        adj[b].append(a)

    cycles = []
    # canonical form: the start is the cycle minimum, second < last
    for v in range(M):
        stack = [(v, (v,))]
        while stack:
            p, path = stack.pop()
            if len(path) in (3, 5, 7) and v in adj[p] and path[1] < path[-1]:
                cycles.append(path)
            if len(path) == 7:
                continue
            for q in adj[p]:
                if q > v and q not in path:
                    stack.append((q, path + (q,)))
    cycles.sort(key=len)
    out = []
    for cyc in cycles[:cap]:
        edges = [tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)])))
                 for i in range(len(cyc))]
        out.append(tuple(pair_gates[e] for e in edges))
    return out


def _coarse_cuts(model, vs, circuit: Circuit, device: Device, T: int) -> None:
    """Implied inequalities for the coarse model. All are consequences of
    the base families (with S=1 the SWAPs of one transition are pairwise
    node-disjoint), so they change no solution set, only the relaxation."""
    N = device.num_physical
    M = circuit.num_qubits
    L = circuit.num_gates
    degree = [len(device.incident[p]) for p in range(N)]

    # a block's interaction subgraph maps edge-preserving into the device,
    # so on a bipartite device no block may hold a whole odd cycle
    bipartite = device.num_edges > 0 and bipartition(device) is not None
    odd_cycles = _odd_cycles(circuit) if bipartite else []
    cycle_qubits: list[set[int]] = []
    for gate_lists in odd_cycles:
        qs: set[int] = set()
        for gl in gate_lists:
            for l in gl:
                qs.update(circuit.gates[l].qubits)
        cycle_qubits.append(qs)
        combos = 1
        for gl in gate_lists:
            combos *= len(gl)
        if combos > 8:
            continue
        for combo in itertools.product(*gate_lists):
            for t in range(T):
                model.require_clause([(vs.time[l], t, False) for l in combo])

    # a qubit whose block runs g of its gates needs g distinct neighbours,
    # so it cannot sit on a node of degree < g
    touching: list[list[int]] = [[] for _ in range(M)]
    for g in circuit.gates:
        if g.is_two_qubit:
            for q in g.qubits:
                touching[q].append(g.index)
    for q, gates_q in enumerate(touching):
        if len(gates_q) < 2:
            continue
        for t in range(T):
            for p in range(N):
                if degree[p] >= len(gates_q):
                    continue
                terms = [(1, (vs.time[l], t)) for l in gates_q]
                terms.append((L, (vs.pi[q][t], p)))
                model.require_sum(terms, "<=", degree[p] + L)

    if T < 2:
        return
    closed = [[p] + [a + b - p for (a, b) in
                     (device.edges[k] for k in device.incident[p])]
              for p in range(N)]

    # disjoint SWAPs move a qubit at most one hop per transition
    for q in range(M):
        for t in range(T - 1):
            for p in range(N):
                model.require_clause([(vs.pi[q][t], p, False),
                                      *[(vs.pi[q][t + 1], pp, True) for pp in closed[p]]])

    # each SWAP relocates at most two qubits
    moved_all: list[list] = [[] for _ in range(M)]
    for t in range(T - 1):
        moved = [model.bool_var(f"mv_{q}_{t}") for q in range(M)]
        for q in range(M):
            moved_all[q].append(moved[q])
            for p in range(N):
                model.require_sum(
                    [(1, moved[q]),
                     (1, (vs.pi[q][t + 1], p)),
                     (-1, (vs.pi[q][t], p))], ">=", 0)
        balance = [(1, mv) for mv in moved]
        balance += [(-2, vs.sigma[k][t]) for k in range(device.num_edges)]
        model.require_sum(balance, "<=", 0)

    # a never-moving odd cycle would pin one 2-coloring for all its edges,
    # which an odd cycle cannot satisfy: someone on it has to move
    for qs in cycle_qubits:
        terms = [(1, mv) for q in qs for mv in moved_all[q]]
        model.require_sum(terms, ">=", 1)


def extract_plan(circuit: Circuit, device: Device, verdict: sv.Verdict,
                 vs) -> TransitionPlan:
    """Assignment -> TransitionPlan. Blocks past the last gate are dropped,
    along with any transition variables fired after the final block."""
    a = verdict.assignment
    times = [a[h] for h in vs.time]
    B = max(times) + 1 if times else 1
    mappings = tuple(
        tuple(a[vs.pi[q][t]] for q in range(circuit.num_qubits))
        for t in range(B)
    )
    transitions = []
    for j in range(B - 1):
        edges = frozenset(
            k for k in range(device.num_edges) if a[vs.sigma[k][j]]
        )
        if edges:
            transitions.append((j, edges))
    return TransitionPlan(
        num_blocks=B,
        gate_block=tuple(times),
        block_mapping=mappings,
        transitions=tuple(transitions),
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
        try:
            device.edge_index(pq, pr)
        except DeviceError:
            raise ValueError(
                f"gate {g.index} operands sit on p{pq},p{pr}: not adjacent "
                f"in block {plan.gate_block[g.index]}") from None
    last = -1
    fired: dict[int, frozenset[int]] = {}
    for j, edges in plan.transitions:
        if not 0 <= j < B - 1:
            raise ValueError(f"transition index {j} outside 0..{B - 2}")
        if j <= last:
            raise ValueError("transition indices must be strictly ascending")
        last = j
        used: set[int] = set()
        for k in edges:
            if not 0 <= k < device.num_edges:
                raise ValueError(f"transition {j}: edge {k} out of range")
            a, b = device.edges[k]
            if a in used or b in used:
                raise ValueError(f"transition {j}: SWAP edges overlap on a node")
            used.add(a)
            used.add(b)
        fired[j] = edges
    # Replay: consecutive mappings must differ exactly by the fired SWAPs.
    for j in range(B - 1):
        row = _swap_step(plan.block_mapping[j], sorted(fired.get(j, ())), device)
        if row != tuple(plan.block_mapping[j + 1]):
            raise ValueError(
                f"block {j + 1} mapping does not follow from block {j} "
                f"through transition {j}")


def _swap_step(row, edges, device: Device) -> tuple[int, ...]:
    """The mapping row after SWAPs on `edges`, applied in the given order."""
    out = list(row)
    for k in edges:
        a, b = device.edges[k]
        for q, p in enumerate(out):
            if p == a:
                out[q] = b
            elif p == b:
                out[q] = a
    return tuple(out)


class _ScheduleTables(NamedTuple):
    """A plan's mappings and transitions, compiled for _schedule_core.

    They do not depend on the gate-to-block split, so one set serves every
    split of the same plan.
    """

    num_physical: int
    # preds[l]: the dependency predecessors of gate l, transitively reduced
    preds: list[list[int]]
    # nodes[b][l]: gate l's physical nodes under block b's mapping; a
    # one-qubit gate lists its node twice
    nodes: list[list[tuple[int, int]]]
    # fired[b]: the SWAPs after block b as (edge, p, q), p and q the edge's
    # endpoints, in edge order
    fired: list[list[tuple[int, int, int]]]


def _schedule_tables(plan: TransitionPlan, circuit: Circuit,
                    device: Device) -> _ScheduleTables:
    """Build the schedule tables of a plan (see _ScheduleTables).

    A predecessor implied through another one is dropped. Gate indices are
    a topological order, and a schedule runs each gate after its
    predecessors (a plan never puts a dependent gate in an earlier block),
    so times strictly rise along every dependency path and the implied
    predecessor never binds.
    """
    L = circuit.num_gates
    preds: list[list[int]] = [[] for _ in range(L)]
    for l, lp in circuit.dependencies:
        preds[lp].append(l)
    ancestors = [0] * L
    for l in range(L):
        for i in preds[l]:
            ancestors[l] |= ancestors[i] | (1 << i)
        preds[l] = [i for i in preds[l]
                    if not any(ancestors[j] >> i & 1 for j in preds[l])]
    nodes = [[(row[g.qubits[0]], row[g.qubits[-1]]) for g in circuit.gates]
             for row in plan.block_mapping]
    transitions = dict(plan.transitions)
    fired = [[(k, *device.edges[k]) for k in sorted(transitions.get(b, ()))]
             for b in range(plan.num_blocks)]
    return _ScheduleTables(device.num_physical, preds, nodes, fired)


def _schedule_core(tables: _ScheduleTables, order, S: int):
    """Node-availability simulation: the one scheduler behind asap_schedule,
    the plan polish step and the QAOA stitch.

    order[b] lists block b's gates in execution order. Each gate runs at
    the earliest slot its nodes are free and its predecessors are done;
    after block b its SWAPs start, in edge order, once both endpoints are
    free, and hold them for S slots. Returns (gate_time, swaps), swaps as
    sorted (finish, edge) pairs.
    """
    preds, nodes, fired = tables.preds, tables.nodes, tables.fired
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


def _schedule_result(plan: TransitionPlan, circuit: Circuit, device: Device,
                    tables: _ScheduleTables, gate_time, swaps) -> SynthesisResult:
    """Assemble the result of a scheduled plan: gate placements, SWAP
    placements, the slot-by-slot mapping trajectory and the fidelity."""
    placements = []
    for g in circuit.gates:
        p, q = tables.nodes[plan.gate_block[g.index]][g.index]
        loc = device.edge_index(p, q) if g.is_two_qubit else p
        placements.append(GatePlacement(
            gate_id=g.index, time=gate_time[g.index], location=loc))

    depth_slots = max(gate_time) + 1 if circuit.num_gates else 0
    horizon = max(1, depth_slots)
    if swaps:
        horizon = max(horizon, swaps[-1][0] + 2)
    finish_at: dict[int, list[int]] = {}
    for finish, k in swaps:
        finish_at.setdefault(finish, []).append(k)
    traj = [tuple(plan.block_mapping[0])]
    for t in range(horizon - 1):
        edges = finish_at.get(t)
        traj.append(_swap_step(traj[-1], edges, device) if edges else traj[-1])

    base = SynthesisResult(
        solver_T=plan.num_blocks,
        depth_slots=depth_slots,
        swap_count=len(swaps),
        fidelity_scaled=0,
        initial_mapping=traj[0],
        gates=tuple(placements),
        swaps=tuple(SwapPlacement(edge=k, finish_time=finish)
                    for finish, k in swaps),
        mapping_trajectory=tuple(traj),
        depth_blocks=plan.num_blocks,
    )
    _, _, scaled, _ = verify.metrics(circuit, device, base)
    return replace(base, fidelity_scaled=scaled)


def asap_schedule(plan: TransitionPlan, circuit: Circuit, device: Device,
                  S: int = 3) -> SynthesisResult:
    """Exact-time replay of a plan: every gate runs at the earliest slot
    allowed by its dependencies and by the SWAP windows on its nodes.

    A transition SWAP starts once every earlier-block gate on its endpoints
    has finished and holds both nodes for S slots; gates elsewhere are free
    to run alongside it. The trajectory extends past the last gate when a
    late SWAP still has a mapping step to show.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    check_plan(plan, circuit, device)
    tables = _schedule_tables(plan, circuit, device)
    order = _block_order(plan.gate_block, plan.num_blocks)
    gate_time, swaps = _schedule_core(tables, order, S)
    return _schedule_result(plan, circuit, device, tables, gate_time, swaps)


def _polish_plan(plan: TransitionPlan, circuit: Circuit, device: Device,
                 S: int, node_budget: int = 20000) -> TransitionPlan:
    """Re-assign gates to blocks, keeping mappings and transitions fixed, to
    minimize the scheduled makespan.

    The coarse solver optimizes its own objective and is free to pick any
    block split among equally good ones; splits differ widely in scheduled
    depth. Only gates whose physical position changes between feasible
    blocks can matter, so the search branches on those alone, walking gates
    in index order (a topological order) with dependency lower bounds.
    Deterministic; gives up after node_budget leaves and keeps the best
    seen (a budget of 0 keeps the plan).

    The schedule tables are built once; every split, the plan's own first,
    is scored by one _schedule_core call on them. The walk keeps each
    block's gate list in index order as it assigns and unassigns gates, so
    a leaf hands it to the scheduler as is.
    """
    B = plan.num_blocks
    L = circuit.num_gates
    if B < 2 or L == 0:
        return plan
    tables = _schedule_tables(plan, circuit, device)
    preds, nodes = tables.preds, tables.nodes

    feas: list[list[int]] = []
    for g in circuit.gates:
        ok = []
        for b in range(B):
            if g.is_two_qubit:
                try:
                    device.edge_index(*nodes[b][g.index])
                except DeviceError:
                    continue
            ok.append(b)
        feas.append(ok)
    branching = [len({nodes[b][l] for b in feas[l]}) > 1 for l in range(L)]
    if not any(branching):
        return plan
    # choices[l][bound]: the blocks gate l may take when its predecessors'
    # latest block is `bound`; a gate whose position never changes takes
    # the first only
    choices = []
    for l in range(L):
        at_bound = [[b for b in feas[l] if b >= bound] for bound in range(B)]
        choices.append(at_bound if branching[l] else [c[:1] for c in at_bound])

    best_blocks = list(plan.gate_block)
    gate_time, _ = _schedule_core(tables, _block_order(best_blocks, B), S)
    best_depth = max(gate_time) + 1
    blocks = [0] * L
    order: list[list[int]] = [[] for _ in range(B)]
    visited = 0

    def walk(l: int) -> None:
        nonlocal best_depth, best_blocks, visited
        if l == L:
            visited += 1
            gate_time, _ = _schedule_core(tables, order, S)
            depth = max(gate_time) + 1
            if depth < best_depth:
                best_depth = depth
                best_blocks = blocks[:]
            return
        bound = 0
        for i in preds[l]:
            if blocks[i] > bound:
                bound = blocks[i]
        for b in choices[l][bound]:
            blocks[l] = b
            order[b].append(l)
            walk(l + 1)
            order[b].pop()
            if visited >= node_budget:
                return

    if node_budget > 0:
        walk(0)
    if best_blocks == list(plan.gate_block):
        return plan
    return replace(plan, gate_block=tuple(best_blocks))


def _solve_coarse(circuit: Circuit, device: Device, objective: str, S: int,
                  timeout: float | None, max_T: int):
    """The coarse horizon loop of the TB and QAOA flows: grow T from 1 until
    the block model is satisfiable, then extract and polish its plan.
    Returns (plan, verdict, tried), tried the horizons in order."""
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
    return _polish_plan(plan, circuit, device, S), verdict, tried


def synthesize_tb(circuit: Circuit, device: Device, objective: str = "swap",
                  S: int = 3, timeout: float | None = None, max_T: int = 256,
                  return_details: bool = False):
    """Grow the coarse horizon one block at a time from 1 until the block
    model is satisfiable, then schedule the optimal plan at exact time.

    The solved plan's block split is refined first: the coarse model cannot
    see exact-time slots, so among equal-objective splits the one with the
    smallest scheduled makespan is kept (mappings, transitions, and the
    SWAP count are untouched).

    Returns (plan, result); with return_details, (plan, result, details).
    """
    plan, verdict, tried = _solve_coarse(circuit, device, objective, S,
                                         timeout, max_T)
    result = asap_schedule(plan, circuit, device, S=S)
    if return_details:
        details = SynthesisDetails(
            objective_value=verdict.objective_value, tried_T=tried,
            solver_T=tried[-1])
        return plan, result, details
    return plan, result
