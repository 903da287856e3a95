"""Solver-independent validation and metric recomputation for results.

check_result re-evaluates the full constraint system on the concrete
values carried by a SynthesisResult. It shares no code with the encoders:
violations here mean the result itself is wrong, wherever it came from.

Violation families:
  eq1   injective mapping            eq2   dependency order
  eq3   1q mapping consistency       eq4   2q mapping consistency
  eq5   SWAP earliest finish         eq6   same-edge SWAP overlap
  eq7   overlapping-edge SWAP overlap
  eq8   SWAP vs 1q gate              eq9   SWAP vs 2q gate
  eq10  mapping frozen without SWAP  eq11  mapping transformed by SWAP
  phys  two gates on one physical qubit in one slot
  shape structural/derived-field inconsistency
"""

from __future__ import annotations

from .circuit import Circuit
from .device import Device, scaled_log_fidelity, swap_log_fidelity
from .results import SynthesisResult


def _violation(family: str, time, detail: str) -> dict:
    return {"family": family, "time": time, "detail": detail}


def check_result(circuit: Circuit, device: Device, result: SynthesisResult, S: int = 3) -> list[dict]:
    """Return all violations (empty list means the result passes). The SWAP
    duration S is an int (no bool) of at least 1 slot; anything else
    raises ValueError."""
    if circuit.dependencies is None:
        raise ValueError("circuit must be preprocessed before checking")
    if S.__class__ is not int:
        raise ValueError(f"S must be an int, not {S!r}")
    if S < 1:
        raise ValueError("S must be >= 1")
    M = circuit.num_qubits
    N = device.num_physical
    K = device.num_edges
    traj = result.mapping_trajectory

    if len(traj) == 0:
        raise ValueError("empty mapping trajectory")
    for row in traj:
        if len(row) != M:
            raise ValueError(f"trajectory row has {len(row)} entries, expected {M}")
    if len(result.gates) != circuit.num_gates:
        raise ValueError(
            f"result places {len(result.gates)} gates, circuit has {circuit.num_gates}")
    ids = sorted(g.gate_id for g in result.gates)
    if ids != list(range(circuit.num_gates)):
        raise ValueError("gate ids are not exactly 0..L-1")

    v: list[dict] = []
    horizon = len(traj)

    # shape: value ranges and derived fields
    for t, row in enumerate(traj):
        for q, p in enumerate(row):
            if not (0 <= p < N):
                v.append(_violation("shape", t, f"pi[q{q}] = {p} outside physical range"))
    if tuple(result.initial_mapping) != tuple(traj[0]):
        v.append(_violation("shape", 0, "initial_mapping differs from trajectory slot 0"))
    if result.swap_count != len(result.swaps):
        v.append(_violation("shape", None, "swap_count differs from swap list length"))
    gate_times = {}
    placement = {g.gate_id: g for g in result.gates}
    max_time = -1
    for g in result.gates:
        gate_times[g.gate_id] = g.time
        max_time = max(max_time, g.time)
        if g.time < 0 or g.time >= horizon:
            v.append(_violation("shape", g.time, f"gate {g.gate_id} time outside trajectory"))
    want_depth = max_time + 1 if circuit.num_gates else 0
    if result.depth_slots != want_depth:
        v.append(_violation("shape", None,
                            f"depth_slots {result.depth_slots} != occupied slots {want_depth}"))
    for s in result.swaps:
        if not (0 <= s.edge < K):
            v.append(_violation("shape", s.finish_time, f"swap edge {s.edge} out of range"))
        if s.finish_time >= horizon - 1:
            v.append(_violation("shape", s.finish_time, f"swap on edge {s.edge} moves "
                                f"the mapping past the trajectory's last slot"))
    try:
        _, _, scaled, _ = metrics(circuit, device, result)
        if scaled != result.fidelity_scaled:
            v.append(_violation("shape", None,
                                f"fidelity_scaled {result.fidelity_scaled} != recomputed {scaled}"))
    except (IndexError, ValueError):
        pass  # range violations already reported above

    # eq1: injectivity of each mapping slot
    for t, row in enumerate(traj):
        seen: dict[int, int] = {}
        for q, p in enumerate(row):
            if p in seen:
                v.append(_violation("eq1", t, f"q{seen[p]} and q{q} both on p{p}"))
            seen[p] = q

    # eq2: strict dependency order
    for l, lp in circuit.dependencies:
        if gate_times[l] >= gate_times[lp]:
            v.append(_violation("eq2", gate_times[lp],
                                f"gate {l} at {gate_times[l]} not before gate {lp}"))

    # eq3/eq4: gate locations consistent with the mapping at their slot
    for g in result.gates:
        gate = circuit.gates[g.gate_id]
        if not (0 <= g.time < horizon):
            continue  # shape violation already recorded
        row = traj[g.time]
        if not gate.is_two_qubit:
            if not (0 <= g.location < N):
                v.append(_violation("eq3", g.time,
                                    f"gate {g.gate_id} location p{g.location} out of range"))
            elif row[gate.qubits[0]] != g.location:
                v.append(_violation("eq3", g.time,
                                    f"gate {g.gate_id}: q{gate.qubits[0]} on p{row[gate.qubits[0]]}, "
                                    f"location says p{g.location}"))
        else:
            if not (0 <= g.location < K):
                v.append(_violation("eq4", g.time,
                                    f"gate {g.gate_id} edge {g.location} out of range"))
                continue
            a, b = device.edges[g.location]
            pq = row[gate.qubits[0]]
            pr = row[gate.qubits[1]]
            if {pq, pr} != {a, b}:
                v.append(_violation("eq4", g.time,
                                    f"gate {g.gate_id}: operands on p{pq},p{pr}, edge {g.location} "
                                    f"is ({a},{b})"))

    # phys: no physical qubit runs two gates in one slot
    slot_nodes: dict[int, dict[int, int]] = {}
    for g in result.gates:
        if not (0 <= g.time < horizon):
            continue
        gate = circuit.gates[g.gate_id]
        row = traj[g.time]
        for q in gate.qubits:
            p = row[q]
            other = slot_nodes.setdefault(g.time, {}).get(p)
            if other is not None and other != g.gate_id:
                v.append(_violation("phys", g.time,
                                    f"gates {other} and {g.gate_id} share p{p}"))
            slot_nodes[g.time][p] = g.gate_id

    # eq5: a SWAP takes S slots, so none can finish before S-1
    for s in result.swaps:
        if s.finish_time < S - 1:
            v.append(_violation("eq5", s.finish_time,
                                f"swap on edge {s.edge} finishes before slot {S - 1}"))

    # eq6/eq7: SWAP windows [finish-S+1, finish] must not collide
    swaps = list(result.swaps)
    for i in range(len(swaps)):
        for j in range(i + 1, len(swaps)):
            a, b = swaps[i], swaps[j]
            if not (0 <= a.edge < K and 0 <= b.edge < K):
                continue
            gap = abs(a.finish_time - b.finish_time)
            if a.edge == b.edge and gap < S:
                v.append(_violation("eq6", max(a.finish_time, b.finish_time),
                                    f"swaps on edge {a.edge} finish {gap} slots apart"))
            key = (min(a.edge, b.edge), max(a.edge, b.edge))
            if key in device.overlap_pairs and gap < S:
                v.append(_violation("eq7", max(a.finish_time, b.finish_time),
                                    f"swaps on overlapping edges {a.edge},{b.edge} "
                                    f"finish {gap} slots apart"))

    # eq8/eq9: gates inside a SWAP's window must avoid its edge neighborhood
    for s in result.swaps:
        if not (0 <= s.edge < K):
            continue
        lo = s.finish_time - S + 1
        ep = set(device.edges[s.edge])
        for g in result.gates:
            if not (lo <= g.time <= s.finish_time):
                continue
            gate = circuit.gates[g.gate_id]
            if not gate.is_two_qubit:
                if g.location in ep:
                    v.append(_violation("eq8", g.time,
                                        f"1q gate {g.gate_id} on p{g.location} inside swap "
                                        f"window of edge {s.edge}"))
            else:
                if not (0 <= g.location < K):
                    continue
                key = (min(s.edge, g.location), max(s.edge, g.location))
                if g.location == s.edge or key in device.overlap_pairs:
                    v.append(_violation("eq9", g.time,
                                        f"2q gate {g.gate_id} on edge {g.location} inside swap "
                                        f"window of edge {s.edge}"))

    # eq10/eq11: the trajectory moves exactly as the finishing SWAPs dictate
    finish_at: dict[int, list[int]] = {}
    for s in result.swaps:
        if 0 <= s.edge < K:
            finish_at.setdefault(s.finish_time, []).append(s.edge)
    for t in range(len(traj) - 1):
        edges_now = finish_at.get(t, [])
        for q in range(M):
            p, pn = traj[t][q], traj[t + 1][q]
            swap_here = None
            for k in edges_now:
                if p in device.edges[k]:
                    swap_here = k
                    break
            if swap_here is None:
                if p != pn:
                    v.append(_violation("eq10", t,
                                        f"q{q} moved p{p}->p{pn} with no swap finishing at {t}"))
            else:
                a, b = device.edges[swap_here]
                want = b if p == a else a
                if pn != want:
                    v.append(_violation("eq11", t,
                                        f"q{q} on p{p} should move to p{want} via swap on edge "
                                        f"{swap_here}, went to p{pn}"))
    return v


def metrics(circuit: Circuit, device: Device, result: SynthesisResult):
    """(depth, swap_count, scaled_log_fidelity, real_fidelity), recomputed.

    Real fidelity multiplies f1 per 1q gate, f2 per 2q gate, f2 cubed per
    SWAP (a SWAP decomposes into three two-qubit gates), and the measurement
    fidelity of every qubit's final node.
    """
    if circuit.num_gates:
        depth = 1 + max(g.time for g in result.gates)
    else:
        depth = 0
    c = len(result.swaps)
    scaled = 0
    real = 1.0
    for g in result.gates:
        gate = circuit.gates[g.gate_id]
        if gate.is_two_qubit:
            scaled += scaled_log_fidelity(device.f_two[g.location])
            real *= device.f_two[g.location]
        else:
            scaled += scaled_log_fidelity(device.f_single[g.location])
            real *= device.f_single[g.location]
    for s in result.swaps:
        scaled += swap_log_fidelity(device, s.edge)
        real *= device.f_two[s.edge] ** 3
    final = result.mapping_trajectory[-1]
    for q in range(circuit.num_qubits):
        scaled += scaled_log_fidelity(device.f_measure[final[q]])
        real *= device.f_measure[final[q]]
    return depth, c, scaled, real


def metric_term_count(circuit: Circuit, result: SynthesisResult) -> int:
    """Rounded-term count for the scaled-vs-real tolerance bound."""
    return circuit.num_qubits + circuit.num_gates + 3 * len(result.swaps)
