"""Exhaustive optimality oracle for tiny layout instances.

Ground truth for the synthesizers, computed by brute force over initial
mappings and swap schedules.  Deliberately independent of the constraint
encoders: nothing here builds a model.  The search simulates schedules
forward, slot by slot, under the same legality rules the verifier
checks: a swap occupies both endpoint nodes for S consecutive slots
(no gate may touch those nodes inside the window, and swap windows that
share a node must be disjoint), and the mapping is transformed in the
step after the swap finishes.

Two search styles, matching the two cost kinds:

* swap, unbounded: breadth-first search over (mapping, executed-set)
  states, one layer per inserted swap.  Slot-free; valid because any
  action sequence can be serialized into slots once enough slots exist.
* swap bounded / depth: depth-first search over slot-by-slot schedules
  with memoization on (slot, mapping, executed-set, in-flight swaps).
  Depth is minimized by iterative deepening on the slot budget.
"""

from __future__ import annotations

import itertools

from .circuit import Circuit
from .device import Device

INF = float("inf")

# Hard caps; the state space is exhaustive in the number of mappings
# (N!/(N-M)!) times the downsets of the dependency DAG.
MAX_LOGICAL = 4
MAX_GATES = 6
MAX_PHYSICAL = 5


class OracleError(ValueError):
    """Instance outside the exhaustive-search caps, or no schedule exists."""


def _gate_data(circuit: Circuit):
    """Operand tuples plus a predecessor bitmask per gate."""
    preds = [0] * circuit.num_gates
    for l, lp in circuit.dependencies:
        preds[lp] |= 1 << l
    return [g.qubits for g in circuit.gates], preds


def _heights(circuit: Circuit):
    """height[l] = gates on the longest dependency chain starting at l."""
    height = [1] * circuit.num_gates
    # every dependency pair has l < l', so reversed order is topological
    for l, lp in reversed(circuit.dependencies):
        if 1 + height[lp] > height[l]:
            height[l] = 1 + height[lp]
    return height


def _slot_free_min_swaps(circuit: Circuit, device: Device) -> int:
    """Minimum swap count with no slot budget: BFS layered by swap count."""
    qubits, preds = _gate_data(circuit)
    full = (1 << circuit.num_gates) - 1
    edges = list(device.edges)
    edge_set = set(edges)

    def closure(mapping, done):
        # run dependency-ready gates to a fixpoint; mapping is static
        changed = True
        while changed:
            changed = False
            for l in range(circuit.num_gates):
                bit = 1 << l
                if done & bit or (preds[l] & done) != preds[l]:
                    continue
                qs = qubits[l]
                if len(qs) == 1:
                    done |= bit
                    changed = True
                else:
                    pa, pb = mapping[qs[0]], mapping[qs[1]]
                    edge = (pa, pb) if pa < pb else (pb, pa)
                    if edge in edge_set:
                        done |= bit
                        changed = True
        return done

    frontier = set()
    for mapping in itertools.permutations(range(device.num_physical),
                                          circuit.num_qubits):
        done = closure(mapping, 0)
        if done == full:
            return 0
        frontier.add((mapping, done))
    seen = set(frontier)
    cost = 0
    while frontier:
        cost += 1
        nxt = set()
        for mapping, done in frontier:
            position = {p: q for q, p in enumerate(mapping)}
            for a, b in edges:
                qa, qb = position.get(a), position.get(b)
                if qa is None and qb is None:
                    continue
                moved = list(mapping)
                if qa is not None:
                    moved[qa] = b
                if qb is not None:
                    moved[qb] = a
                moved = tuple(moved)
                d2 = closure(moved, done)
                if d2 == full:
                    return cost
                key = (moved, d2)
                if key not in seen:
                    seen.add(key)
                    nxt.add(key)
        frontier = nxt
    raise OracleError("gates remain unreachable; is the device connected?")


class _SlotSearch:
    """Slot-accurate schedule search.  No caps here; oracle_optimal caps."""

    def __init__(self, circuit: Circuit, device: Device, S: int):
        self.qubits, self.preds = _gate_data(circuit)
        self.height = _heights(circuit)
        self.L = circuit.num_gates
        self.M = circuit.num_qubits
        self.full = (1 << self.L) - 1
        self.S = S
        self.N = device.num_physical
        self.edge_set = set(device.edges)
        # all node-disjoint edge subsets, the empty one first
        self.matchings: list[tuple[tuple, frozenset]] = []

        def grow(start, chosen, used):
            self.matchings.append((chosen, used))
            for j in range(start, len(device.edges)):
                a, b = device.edges[j]
                if a in used or b in used:
                    continue
                grow(j + 1, chosen + ((a, b),), used | {a, b})

        grow(0, (), frozenset())

    def search(self, budget: int, minimize: bool):
        """Min swaps over schedules fitting in `budget` slots (INF if none).

        With minimize False, stops at the first feasible schedule and
        returns 0, so it doubles as a feasibility probe for the depth
        oracle.
        """
        if self.L == 0:
            return 0
        S = self.S
        memo: dict = {}

        def rec(slot, mapping, done, inflight):
            if done == self.full:
                return 0
            # chain length of the undone gates is an admissible slot bound
            need = 0
            rest = self.full & ~done
            l = 0
            while rest:
                if rest & 1 and self.height[l] > need:
                    need = self.height[l]
                rest >>= 1
                l += 1
            if slot + need > budget:
                return INF
            key = (slot, mapping, done, inflight)
            hit = memo.get(key)
            if hit is not None:
                return hit
            busy = frozenset(p for _, a, b in inflight for p in (a, b))
            # a fresh swap only helps if a gate can run after its flip
            may_start = slot + S - 1 <= budget - 2
            best = INF
            for chosen, used in self.matchings:
                if chosen and (not may_start or (used & busy)):
                    continue
                blocked = busy | used
                ran = 0
                # every ready gate off the blocked nodes runs now; running
                # a gate earlier never costs anything (exchange argument)
                for l in range(self.L):
                    bit = 1 << l
                    if done & bit or (self.preds[l] & done) != self.preds[l]:
                        continue
                    qs = self.qubits[l]
                    if len(qs) == 1:
                        ok = mapping[qs[0]] not in blocked
                    else:
                        pa, pb = mapping[qs[0]], mapping[qs[1]]
                        edge = (pa, pb) if pa < pb else (pb, pa)
                        ok = (edge in self.edge_set
                              and pa not in blocked and pb not in blocked)
                    if ok:
                        ran |= bit
                if not chosen and not ran and not inflight:
                    continue  # dead slot; the same future exists one slot left
                nxt_map = list(mapping)
                carried = []
                for fin, a, b in inflight + tuple(
                        (slot + S - 1, a, b) for a, b in chosen):
                    if fin == slot:
                        for q in range(self.M):
                            if nxt_map[q] == a:
                                nxt_map[q] = b
                            elif nxt_map[q] == b:
                                nxt_map[q] = a
                    else:
                        carried.append((fin, a, b))
                sub = rec(slot + 1, tuple(nxt_map), done | ran,
                          tuple(sorted(carried)))
                if sub is not INF and len(chosen) + sub < best:
                    best = len(chosen) + sub
                    if not minimize:
                        break
            memo[key] = best
            return best

        overall = INF
        for m0 in itertools.permutations(range(self.N), self.M):
            got = rec(0, m0, 0, ())
            if got < overall:
                overall = got
                if not minimize:
                    break
        return overall

    def min_depth(self, lo: int, hi: int):
        """Smallest slot budget admitting any schedule, or None."""
        if self.L == 0:
            return 0
        for budget in range(max(lo, 1), hi + 1):
            if self.search(budget, minimize=False) is not INF:
                return budget
        return None


def oracle_optimal(circuit: Circuit, device: Device, cost_kind: str,
                   bounds=None, S: int = 3) -> int:
    """Exact optimum cost by exhaustive search.

    cost_kind "swap": minimum number of inserted swaps.  With bounds of
    None the schedule length is unconstrained; an integer bound limits
    schedules to that many slots (matching a synthesizer run at a known
    time horizon).
    cost_kind "depth": minimum occupied slots; bounds caps the deepening.
    bounds is None or an int and S an int of at least 1 (a bool is
    neither); anything else raises ValueError.
    """
    if circuit.dependencies is None:
        raise ValueError("circuit must be preprocessed before the oracle runs")
    if cost_kind not in ("swap", "depth"):
        raise ValueError(f"unknown cost kind: {cost_kind!r}")
    if (circuit.num_qubits > MAX_LOGICAL or circuit.num_gates > MAX_GATES
            or device.num_physical > MAX_PHYSICAL):
        raise OracleError(
            "exhaustive search caps exceeded: need M <= %d, L <= %d, N <= %d"
            % (MAX_LOGICAL, MAX_GATES, MAX_PHYSICAL))
    if circuit.num_qubits > device.num_physical:
        raise OracleError("more logical qubits than physical nodes")
    if S.__class__ is not int:
        raise ValueError(f"S must be an int, not {S!r}")
    if S < 1:
        raise ValueError("swap duration must be at least 1 slot")
    if bounds is not None and bounds.__class__ is not int:
        raise ValueError(f"bounds must be None or an int, not {bounds!r}")

    if cost_kind == "swap":
        if bounds is None:
            return _slot_free_min_swaps(circuit, device)
        got = _SlotSearch(circuit, device, S).search(bounds, minimize=True)
        if got is INF:
            raise OracleError(f"no schedule fits in {bounds} slots")
        return got

    cap = (bounds if bounds is not None
           else circuit.longest_chain + (S + 1) * (3 * circuit.num_gates + 3))
    got = _SlotSearch(circuit, device, S).min_depth(circuit.longest_chain, cap)
    if got is None:
        raise OracleError(f"no schedule fits in {cap} slots")
    return got
