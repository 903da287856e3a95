"""Exact layout synthesis: constraint encoding, objectives, horizon loop.

The model places every input gate in time on a fixed device, threading a
time-indexed logical-to-physical mapping through inserted SWAP gates; the
mapping at a gate's slot decides where it runs. Under strict dependencies
gate l can only run in its window [asap(l), T-1-tail(l)] (longest chains
before and after it, Circuit.asap and Circuit.tail), so its time variable
spans that window and its clause families cover those slots alone. A SWAP takes S
slots, so none finishes before slot S-1: eq5's unit rows fix those sigma
columns to 0, and the SWAP families (eq6, eq7, eq10's SWAP literals, eq11)
start at slot S-1, stating nothing the root already decides. Solved
exactly, the decoded schedule is optimal for the reached time horizon under
the objective.

solve_horizons is the one horizon loop of every flow, and the one exit of
each flow call: the exact flow grows T geometrically, the transition-based
and QAOA flows one block at a time, and the loop returns the decoded
answer. When the circuit's interaction graph embeds in the coupling graph
(_embedding, a subgraph search), the exact flow needs no model for the
swap, depth and uniform-profile fidelity objectives: that placement,
scheduled ASAP, meets the objective's bound at the first horizon. The
transition-based and QAOA flows start at two blocks when the graph does
not embed, as one block holds no SWAP. When it does not embed, every
solution needs a SWAP and, at any horizon, the longest chain's slots.

Under swap a second SWAP bound follows (_pins_and_swap_bound): a schedule
with one SWAP, on the edge (a, b), runs every gate under one of two
mappings, pi and pi after the transposition s of a and b, so pi places the
interaction graph on E ∪ s(E). When no edge gives such a placement
(_one_swap_cover, one edge per orbit of the device's automorphisms), every
solution needs 2 SWAPs. With a bound of 1 the exact flow first runs the
coarse flow, and a TB schedule with 1 SWAP at the longest chain's depth
meets both bounds and needs no exact model. The exact flow hands such a
model-free answer, this one or the embedding's, to the loop, which returns
it at the first horizon with no solve. The loop hands each solve the lower
bound it has proven, so the core stops tightening an incumbent that
reaches it: a bound of 2 spares the proof that a 2-SWAP schedule cannot
drop to 1. A satisfiable horizon whose value meets that bound ends the
loop, as no later horizon can beat it.

build_result is the one result builder of every flow: it replays the SWAPs
into the mapping trajectory, reads each gate's node or edge off it at the
gate's slot and sums the fidelity from the device's weights as it goes.

The symmetry pins live here too. _symmetry_pins keeps the device's
cost-preserving automorphisms and picks orbit representatives for the
slot-0 placement of the first two qubits; encode adds them to the exact
and the coarse model alike. Each flow finds the automorphisms once per
call, within its time budget, for the pins and the SWAP bound, and hands
the pins to every horizon.

_placements is the one graph search: it yields every injective placement
of a pattern graph on a host graph that puts each pattern edge on a host
edge. _embedding takes its first placement of the interaction graph on the
device, _one_swap_cover its first on each E ∪ s(E), and
enumerate_automorphisms its placements of the device in itself.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, replace
from itertools import islice, permutations

from . import solver as sv
from .circuit import Circuit
from .device import Device, DeviceError, swap_log_fidelity
from .results import GatePlacement, SwapPlacement, SynthesisResult

OBJECTIVES = ("depth", "swap", "fidelity")
# enumerate_automorphisms gives up on groups larger than this.
AUTOMORPHISM_CAP = 5000


class SynthesisTimeout(RuntimeError):
    """The flow's `timeout`, the budget of the whole call, ran out before it ended."""


class TCapExceeded(RuntimeError):
    """No satisfiable horizon at or below max_T, or none can ever exist."""


@dataclass(frozen=True)
class EncodingConfig:
    T: int
    S: int = 3
    objective: str = "swap"
    timeout: float | None = None
    max_T: int = 256

    def __post_init__(self):
        for name in ("T", "S", "max_T"):
            if getattr(self, name).__class__ is not int:
                raise ValueError(f"{name} must be an int, not {getattr(self, name)!r}")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.S < 1:
            raise ValueError("S must be >= 1")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")


@dataclass
class VariableSet:
    pi: list  # pi[q][t] handle
    time: list  # time[l] handle
    sigma: list  # sigma[k][t] handle


def _fits(circuit: Circuit, device: Device) -> bool:
    """Whether some horizon can host the circuit: the interaction graph's
    components pack into the device's connected components, as a qubit
    never leaves its device component and SWAPs inside one bring any two of
    its qubits together. They do when the largest holds every qubit; else
    exact search, largest component first, each free size tried once."""
    free = device.components
    if circuit.num_qubits <= max(free, default=0):
        return True
    items = circuit.components

    def pack(i: int, free: tuple) -> bool:
        if i == len(items) or items[i] == 1:
            return sum(free) >= len(items) - i
        return any(pack(i + 1, free[:b] + (f - items[i],) + free[b + 1:])
                   for b, f in enumerate(free) if f >= items[i] and f not in free[:b])

    return pack(0, free)


def _check_fits(circuit: Circuit, device: Device) -> None:
    """ValueError unless the circuit is preprocessed, TCapExceeded unless
    _fits; each flow's check before any search."""
    if circuit.dependencies is None:
        raise ValueError("circuit must be preprocessed before synthesis")
    if not _fits(circuit, device):
        raise TCapExceeded("the circuit's interaction graph never fits the device's components")


def _placements(partners, adj, deadline: float | None):
    """Every placement of the pattern graph on the host graph: a distinct
    node per pattern node, with each pattern edge (q, r in partners[q]) on a
    host edge (p, p' in adj[p], adjacency lists over nodes 0..len(adj)-1),
    as tuples of nodes indexed by pattern node.

    An exact, deterministic backtracking subgraph-monomorphism search. The
    pattern nodes with partners are walked in connected order, most placed
    partners first, then most partners. A node's candidates are the free
    neighbours of its first placed partner's image (any free node for a
    component's first node) of degree at least its partner count and
    adjacent to every placed partner's image. Partner-less nodes then fill
    the free host nodes in every order, index order first. Raises
    SynthesisTimeout once `deadline` (time.monotonic) has passed, checked
    on the first search node and every 256 after.
    """
    M, N = len(partners), len(adj)
    if M > N:
        return
    order = []
    rest = [q for q in range(M) if partners[q]]
    while rest:
        q = max(rest, key=lambda q: (len(partners[q].intersection(order)),
                                     len(partners[q]), -q))
        rest.remove(q)
        order.append(q)
    placed_before = [[r for r in order[:i] if r in partners[q]]
                     for i, q in enumerate(order)]
    lonely = [q for q in range(M) if not partners[q]]
    node = [-1] * M
    used = [False] * N
    searched = 0

    def place(i: int):
        nonlocal searched
        if searched % 256 == 0 and deadline is not None and time.monotonic() >= deadline:
            raise SynthesisTimeout("time budget passed searching for a placement")
        searched += 1
        if i == len(order):
            for fill in permutations([p for p in range(N) if not used[p]], len(lonely)):
                for q, p in zip(lonely, fill):
                    node[q] = p
                yield tuple(node)
            return
        q, placed = order[i], placed_before[i]
        for p in adj[node[placed[0]]] if placed else range(N):
            if used[p] or len(adj[p]) < len(partners[q]) \
                    or any(node[r] not in adj[p] for r in placed[1:]):
                continue
            node[q], used[p] = p, True
            yield from place(i + 1)
            used[p] = False

    yield from place(0)


def _embedding(circuit: Circuit, device: Device, deadline: float | None = None):
    """A placement that needs no SWAP: a distinct node per qubit with the
    operands of every two-qubit gate on an edge, or None when none exists.
    It is _placements' first, so qubits with no two-qubit gate take the
    free nodes in index order."""
    return next(_placements(circuit.partners, device.neighbours, deadline), None)


def enumerate_automorphisms(device: Device, deadline: float | None = None):
    """Every node permutation preserving the edge set, identity included,
    sorted; None when the group has more than AUTOMORPHISM_CAP elements
    (too symmetric to exploit).

    These are _placements of the device in itself: an injective map of a
    finite graph into itself that sends every edge to an edge maps the
    edge set one-to-one into itself, so onto it, and every automorphism
    passes the search's filters. Raises SynthesisTimeout past `deadline`.
    """
    adj = device.neighbours
    found = list(islice(_placements([set(ns) for ns in adj], adj, deadline),
                        AUTOMORPHISM_CAP + 1))
    return None if len(found) > AUTOMORPHISM_CAP else sorted(found)


def _edge_orbit_reps(device: Device, perms) -> list[tuple[int, int]]:
    """One device edge per orbit of the automorphisms `perms` (those of
    enumerate_automorphisms, or None past its cap: then every edge), the
    first of each orbit in edge order."""
    if perms is None:
        return list(device.edges)
    reps, seen = [], set()
    for a, b in device.edges:
        if (a, b) not in seen:
            reps.append((a, b))
            seen.update((min(g[a], g[b]), max(g[a], g[b])) for g in perms)
    return reps


def _one_swap_cover(partners, device: Device, edges, deadline: float | None) -> bool:
    """Whether the pattern graph `partners` has a placement on E ∪ s(E) for
    one of `edges`, E the device's edge set and s the node transposition
    of the edge (a, b).

    A schedule with exactly one SWAP, on (a, b), runs every two-qubit gate
    under one of two mappings, pi before it and s∘pi after it; a gate run
    after it sits on an edge of E, so its operands under pi lie on one of
    s(E). So a circuit with one SWAP has such a placement, pi, for that
    edge. An automorphism g of the device carries E ∪ s(E) onto E ∪ s'(E)
    for the edge (g(a), g(b)), so one edge per orbit decides for all of
    them. Each search keeps `deadline` (_placements).
    """
    adj = device.neighbours
    for a, b in edges:
        s = list(range(device.num_physical))
        s[a], s[b] = b, a
        # s(E) joins p to s(x) for each neighbour x of s(p)
        cover = [sorted({*adj[p], *(s[x] for x in adj[s[p]])})
                 for p in range(device.num_physical)]
        if next(_placements(partners, cover, deadline), None) is not None:
            return True
    return False

def _profile_invariant(device: Device, perm) -> bool:
    """Whether perm maps every site to one of the same scaled weight
    (Device.scaled_profile)."""
    w0, w1, w2 = device.scaled_profile
    for p in range(device.num_physical):
        if w0[perm[p]] != w0[p] or w1[perm[p]] != w1[p]:
            return False
    for k, (a, b) in enumerate(device.edges):
        if w2[device.edge_index(perm[a], perm[b])] != w2[k]:
            return False
    return True


def _symmetry_pins(circuit: Circuit, device: Device, objective: str, perms):
    """Clauses pinning the slot-0 placement of up to two qubits to orbit
    representatives of the device's cost-preserving automorphisms, as lists
    of (qubit, node, positive) literals on the slot-0 mapping; encode adds
    them. perms is enumerate_automorphisms(device): None past its cap, and
    then there are no pins.

    Relabeling a whole solution by such an automorphism yields another
    solution with the same gate times, SWAP count, depth and objective
    value (under fidelity only profile-preserving automorphisms count), so
    restricting one solution per group orbit cannot change the optimum.
    The first qubit may only start on an orbit representative; under each
    representative with a nontrivial stabilizer, the second qubit is pinned
    to stabilizer-orbit representatives.
    """
    M = circuit.num_qubits
    if M == 0 or perms is None or len(perms) <= 1:
        return []
    if objective == "fidelity":
        perms = [g for g in perms if _profile_invariant(device, g)]
        if len(perms) <= 1:
            return []
    N = device.num_physical
    rep = [min(g[p] for g in perms) for p in range(N)]
    reps = sorted(set(rep))
    pins = [[(0, r, True) for r in reps]]
    if M < 2:
        return pins
    for r in reps:
        stab = [g for g in perms if g[r] == r]
        if len(stab) <= 1:
            continue
        # injectivity keeps the second qubit off r, so drop r's own orbit
        sreps = sorted({min(g[p] for g in stab) for p in range(N) if p != r})
        if len(sreps) >= N - 1:
            continue
        pins.append([(0, r, False), *[(1, s, True) for s in sreps]])
    return pins


def _pins_and_swap_bound(circuit: Circuit, device: Device, objective: str,
                         needs_swap: bool, deadline: float | None):
    """(pins, min_swaps) of a flow call: the symmetry pins under `objective`
    and the SWAP count every solution at every horizon needs, the one place
    that decides it. The device's automorphisms are found once, within
    `deadline`, for both.

    min_swaps is 0 unless needs_swap, the caller's _embedding having found
    no placement; then it is 1, and under swap 2 when no edge gives the
    interaction graph a one-SWAP cover (_one_swap_cover, walked over one
    edge per automorphism orbit).
    """
    perms = enumerate_automorphisms(device, deadline)
    pins = _symmetry_pins(circuit, device, objective, perms)
    if not needs_swap:
        return pins, 0
    if objective == "swap" and not _one_swap_cover(
            circuit.partners, device, _edge_orbit_reps(device, perms), deadline):
        return pins, 2
    return pins, 1


def encode(circuit: Circuit, device: Device, config: EncodingConfig, *,
           coarse: bool = False, pins=()):
    """Emit the full constraint system; returns (model, variables).

    A gate's location is no variable: pi at its slot fixes it (only
    objective_fidelity adds location columns, where a gate's sites weigh
    differently). Gate l's time variable spans its dependency window
    [asap(l), T-1-tail(l)], and the adjacency and occupancy families loop
    over those slots only. Below the longest chain no schedule fits: the
    model holds one empty clause.

    coarse gives the transition-based block model: dependencies weaken to
    <= and the gate/SWAP occupancy family is dropped. A whole chain may
    share one block there, so every gate keeps the full domain [0, T-1].

    pins are the symmetry clauses of _symmetry_pins, added on the slot-0
    mapping after the families above. They do not depend on the horizon,
    so a flow finds them once and passes them to every horizon.

    A circuit that never fits (see _fits) gets an unsatisfiable model (a
    ModelError on a device with no node); the flows refuse it first.
    """
    if circuit.dependencies is None:
        raise ValueError("circuit must be preprocessed before encoding")
    M = circuit.num_qubits
    N, K = device.num_physical, device.num_edges
    T, S = config.T, config.S
    m = sv.Model()

    # Each gate's slots; below the longest chain some window would be
    # empty, so the model gets one empty clause and keeps all T slots.
    windows = [range(T)] * circuit.num_gates
    if not coarse:
        asap, tail = circuit.asap, circuit.tail
        if all(a + b < T for a, b in zip(asap, tail)):
            windows = [range(a, T - b) for a, b in zip(asap, tail)]
        else:
            m.require_clauses([[]])

    pi = [[m.int_var(0, N - 1, f"pi_{q}_{t}") for t in range(T)] for q in range(M)]
    time = [m.int_var(w[0], w[-1], f"t_{g.index}") for g, w in zip(circuit.gates, windows)]
    sigma = [[m.bool_var(f"sigma_{k}_{t}") for t in range(T)] for k in range(K)]
    vs = VariableSet(pi=pi, time=time, sigma=sigma)

    # eq2: dependency order (strict; the coarse model allows equal blocks).
    # The solver lowers each one to a clause per slot over "t >= v"
    # literals, so a placed gate bounds its successors by propagation.
    margin = 0 if coarse else 1
    m.require_orders([(time[l], time[lp], margin) for l, lp in circuit.dependencies])

    # The families below are rows of literals, one require_clauses (for
    # eq1, require_at_least) call per family, read off the literal lists of
    # Model.lits:
    # at[q][t][p] is "pi_q^t == p", when[l] lists "t_l == t" over gate l's
    # window, and off[k][t] is "sigma_k^t == 0", so "sigma_k^t == 1" is
    # off[k][t] ^ 1. A negated guard "x != v" is its "x == v" literal ^ 1.
    at = [[m.lits(h) for h in row] for row in pi]
    when = [m.lits(h) for h in time]
    off = [[m.lits(h)[0] for h in row] for row in sigma]

    # eq1: distinct logical qubits sit on distinct physical qubits, an
    # at-most-one per node and slot: all but one of its "pi_q^t != p" hold
    if M > 1:
        m.require_at_least([([at[q][t][p] ^ 1 for q in range(M)], [1] * M, M - 1)
                            for t in range(T) for p in range(N)])

    # eq3/eq4 by the mapping: a 2q gate's operand on p puts the other on a
    # neighbour of p; a 1q gate needs no placement clause. near[q][t][p]
    # lists "pi_q^t == p'" over the neighbours p' of p.
    near = [[[[lits[p] for p in nbrs] for nbrs in device.neighbours] for lits in row]
            for row in at]
    rows = []
    for g in circuit.gates:
        if not g.is_two_qubit:
            continue
        for t, now in zip(windows[g.index], when[g.index]):
            for q, other in (g.qubits, g.qubits[::-1]):
                here, there = at[q][t], near[other][t]
                rows += [[now ^ 1, here[p] ^ 1, *there[p]] for p in range(N)]
    m.require_clauses(rows)

    # eq5: a SWAP takes S slots, none can finish before slot S-1; these
    # unit rows decide sigma there, so the SWAP families below start at S-1
    m.require_clauses([[off[k][t]] for k in range(K) for t in range(min(S - 1, T))])

    # eq6: SWAPs on one edge never overlap
    m.require_clauses([[off[k][t], off[k][tp]] for k in range(K) for t in range(S - 1, T)
                       for tp in range(max(t - S + 1, S - 1), t)])

    # eq7: SWAPs on overlapping edges never overlap (both directions)
    rows = []
    for k, kp in sorted(device.overlap_pairs):
        for t in range(S - 1, T):
            for tp in range(max(t - S + 1, S - 1), t + 1):
                rows.append([off[k][t], off[kp][tp]])
                if tp < t:
                    rows.append([off[kp][t], off[k][tp]])
    m.require_clauses(rows)

    if not coarse:
        # eq8/eq9 by node occupancy: swapping[p][t] holds while a SWAP on an
        # edge at p runs in slot t, and a gate with an operand on p at t
        # needs it off. A SWAP window so excludes exactly the gates on its
        # endpoints and on the edges sharing a node with its own.
        swapping = [[m.bool_var(f"swapping_{p}_{t}") for t in range(T)] for p in range(N)]
        busy = [[m.lits(h)[1] for h in row] for row in swapping]
        rows = []
        for k, (a, b) in enumerate(device.edges):
            for t in range(S - 1, T):
                fired = off[k][t]
                for tp in range(t - S + 1, t + 1):
                    rows += ([fired, busy[a][tp]], [fired, busy[b][tp]])
        for g in circuit.gates:
            for t, now in zip(windows[g.index], when[g.index]):
                for q in g.qubits:
                    here = at[q][t]
                    rows += [[now ^ 1, here[p] ^ 1, busy[p][t] ^ 1] for p in range(N)]
        m.require_clauses(rows)

    # eq10: mapping is frozen across t -> t+1 unless an incident SWAP
    # finishes; below slot S-1 none can, so no SWAP literal is listed
    rows = []
    for t in range(T - 1):
        for p in range(N):
            fired = [off[k][t] ^ 1 for k in device.incident[p]] if t >= S - 1 else []
            rows += [[at[q][t][p] ^ 1, *fired, at[q][t + 1][p]] for q in range(M)]
    m.require_clauses(rows)

    # eq11: a finishing SWAP carries the mapping across its edge, from the
    # first slot a SWAP can finish at
    rows = []
    for t in range(S - 1, T - 1):
        for k, (a, b) in enumerate(device.edges):
            fired = off[k][t]
            for q in range(M):
                now, nxt = at[q][t], at[q][t + 1]
                rows += ([now[a] ^ 1, fired, nxt[b]], [now[b] ^ 1, fired, nxt[a]])
    m.require_clauses(rows)

    m.require_clauses([[at[q][0][p] if positive else at[q][0][p] ^ 1
                        for q, p, positive in clause] for clause in pins])

    return m, vs


def objective_depth(model: sv.Model, vs: VariableSet):
    """Minimize max input-gate time, inserted SWAP times excluded: d >= t_l
    for every gate, d in [latest window start, last slot] ([0, 0] with no
    gate), and the objective weighs each "d == v" literal by v."""
    lo = max((model._var(h).lo for h in vs.time), default=0)
    d = model.int_var(lo, len(vs.pi[0]) - 1 if vs.time else 0, "d")
    model.require_orders([(h, d, 0) for h in vs.time])
    model.minimize([*enumerate(model.lits(d), lo)])
    return model


def objective_swap(model: sv.Model, vs: VariableSet):
    """Minimize the total count of inserted SWAPs, "sigma_k^t == 1"."""
    model.minimize([(1, model.lits(h)[1]) for row in vs.sigma for h in row])
    return model


def objective_fidelity(model: sv.Model, vs: VariableSet, device: Device,
                       circuit: Circuit):
    """Maximize the integer-scaled log-fidelity sum.

    Each weight class of Device.scaled_profile (measurement per node,
    one-qubit gates per node, two-qubit gates per edge) whose weights are all equal
    folds into a constant: each qubit adds the measurement weight and each
    gate of that kind its gate weight, with no column or row. Otherwise the
    measurement weighs pi_q^{T-1}, and a gate gets its node or edge as a
    column x_l tied to pi by [t_l != t, pi_q^t != p, x_l in sites(p)] per
    operand q: sites(p) is {p} for a 1q gate, incident[p] for a 2q gate.
    Every SWAP keeps its term. A term weighs "pi_q^{T-1} == p", "x_l == s"
    or "sigma_k^t == 1"; a nonzero constant weighs the literal of a
    one-value int, so the objective value is the whole fidelity.
    """
    measure, single, two = device.scaled_profile
    N = device.num_physical
    at = [[model.lits(h) for h in row] for row in vs.pi]
    const = 0
    terms = []
    if len(set(measure)) == 1:
        const += len(vs.pi) * measure[0]
    else:
        terms += [(w, row[-1][p]) for row in at for p, w in enumerate(measure) if w]
    rows = []
    for g in circuit.gates:
        if g.is_two_qubit:
            sites, weights = device.incident, two
        else:
            sites, weights = [(p,) for p in range(N)], single
        if len(set(weights)) == 1:
            const += weights[0]
            continue
        x = model.int_var(0, len(weights) - 1, f"x_{g.index}")
        placed = model.lits(x).__getitem__  # placed(s) is "x_l == s"
        tl = vs.time[g.index]
        for t, now in zip(model._var(tl).domain, model.lits(tl)):
            for q in g.qubits:
                here = at[q][t]
                rows += [[now ^ 1, here[p] ^ 1, *map(placed, sites[p])] for p in range(N)]
        terms += [(w, placed(s)) for s, w in enumerate(weights) if w]
    model.require_clauses(rows)
    terms += [(w, model.lits(h)[1]) for k, row in enumerate(vs.sigma)
              if (w := swap_log_fidelity(device, k)) for h in row]
    if const:
        terms.append((const, model.lits(model.int_var(const, const, "fidelity_const"))[0]))
    model.maximize(terms)
    return model


def apply_objective(model: sv.Model, vs: VariableSet, objective: str,
                    device: Device, circuit: Circuit):
    if objective == "depth":
        return objective_depth(model, vs)
    if objective == "swap":
        return objective_swap(model, vs)
    if objective == "fidelity":
        return objective_fidelity(model, vs, device, circuit)
    raise ValueError(f"unknown objective {objective!r}")


def swap_step(row, edges, device: Device) -> tuple[int, ...]:
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


def build_result(circuit: Circuit, device: Device, solver_T: int, initial,
                 times, swaps, depth_blocks: int | None = None
                 ) -> SynthesisResult:
    """The one constructor of every flow's SynthesisResult.

    times[l] is gate l's slot; swaps are sorted (finish, edge) pairs. The
    trajectory replays the SWAPs from `initial` with swap_step, at each slot
    where some finish (a slot where none does repeats its row), up to slot
    max(1, depth, last finish + 2), so each SWAP's mapping change shows.
    Each gate's node or edge is read off it at the gate's slot (non-adjacent
    operands mean a wrong model: SolverBackendError), and fidelity_scaled
    sums Device.scaled_profile over the gates and each qubit's final node
    and swap_log_fidelity over the SWAPs, as verify.metrics recomputes it.
    """
    depth_slots = max(times) + 1 if times else 0
    horizon = max(1, depth_slots, swaps[-1][0] + 2 if swaps else 0)
    finishing: dict[int, list[int]] = {}
    for finish, k in swaps:
        finishing.setdefault(finish, []).append(k)
    traj = [tuple(initial)]
    for t in range(horizon - 1):
        edges = finishing.get(t)
        traj.append(swap_step(traj[-1], edges, device) if edges else traj[-1])
    measure, single, two = device.scaled_profile
    scaled = sum(measure[p] for p in traj[-1]) + sum(swap_log_fidelity(device, k)
                                                     for _, k in swaps)
    gates = []
    for g, t in zip(circuit.gates, times):
        p, q = traj[t][g.qubits[0]], traj[t][g.qubits[-1]]
        try:
            x = device.edge_index(p, q) if g.is_two_qubit else p
        except DeviceError:
            raise sv.SolverBackendError(
                f"gate {g.index} at slot {t}: p{p}, p{q} not adjacent") from None
        scaled += (two if g.is_two_qubit else single)[x]
        gates.append(GatePlacement(gate_id=g.index, time=t, location=x))
    return SynthesisResult(
        solver_T=solver_T,
        depth_slots=depth_slots,
        swap_count=len(swaps),
        fidelity_scaled=scaled,
        initial_mapping=traj[0],
        gates=tuple(gates),
        swaps=tuple(SwapPlacement(edge=k, finish_time=finish) for finish, k in swaps),
        mapping_trajectory=tuple(traj),
        depth_blocks=depth_blocks,
    )


def decode(circuit: Circuit, device: Device, verdict: sv.Verdict,
           vs: VariableSet, solver_T: int, objective: str) -> SynthesisResult:
    """Assignment -> SynthesisResult: pi at slot 0, the gate times and the
    SWAPs, handed to build_result, which derives the gate locations.

    A SWAP is kept when it finishes by slot last - 2, so its mapping change
    shows by slot last - 1. last is T under the fidelity objective, which
    pays for every SWAP and measures each qubit at pi[T-1], and the depth
    otherwise: a later SWAP cannot affect the program.
    """
    a = verdict.assignment
    times = [a[h] for h in vs.time]
    last = solver_T if objective == "fidelity" else max(times, default=-1) + 1
    swaps = sorted((t, k) for k, row in enumerate(vs.sigma)
                   for t, h in enumerate(row) if a[h] and t <= last - 2)
    return build_result(circuit, device, solver_T, [a[row[0]] for row in vs.pi],
                        times, swaps)


@dataclass
class SynthesisDetails:
    """Side facts about a horizon loop run, for tests and the bench harness."""
    objective_value: int
    tried_T: list[int]
    solver_T: int


def grow_T(T: int) -> int:
    """The exact flow's next horizon after T >= 1: T grown by 30%, rounded
    up, so always past T."""
    return math.ceil(T * 1.3 - 1e-9)


def _better(objective: str, new: int, old: int) -> bool:
    return new > old if objective == "fidelity" else new < old


def _deadline(timeout, max_T, extra_t: int = 0) -> float | None:
    """The one deadline of a flow call, None (no budget) or time.monotonic()
    + timeout, which each flow computes first and every step below keeps.
    A timeout past the largest float (inf, or an int such as 10**400) is no
    budget. An extra_t or max_T that is no int (a bool neither), a negative
    extra_t, or a timeout that is no number >= 0 (NaN, bools) raises
    ValueError."""
    for name, value in (("extra_t", extra_t), ("max_T", max_T)):
        if value.__class__ is not int:
            raise ValueError(f"{name} must be an int, not {value!r}")
    if extra_t < 0:
        raise ValueError(f"extra_t must be >= 0, not {extra_t}")
    if timeout is None:
        return None
    if isinstance(timeout, bool) or not (isinstance(timeout, (int, float)) and timeout >= 0):
        raise ValueError(f"timeout must be a number >= 0, not {timeout!r}")
    return None if timeout > sys.float_info.max else time.monotonic() + timeout


def solve_horizons(build, T: int, grow, objective: str,
                   deadline: float | None, max_T: int, extra_t: int = 0,
                   min_swaps: int = 0, known=None):
    """The horizon loop and the one exit of every flow call. build(T)
    returns (model, read), the model with the objective applied and
    read(verdict) the flow's answer decoded from a satisfying verdict; the
    loop solves horizons T, grow(T), ..., each clamped to max_T, so max_T
    is the last one tried. T is the first horizon that can be satisfiable.

    known is the caller's (value, answer) when it has proven, with no
    model, that the answer is optimal at every horizon; the loop returns it
    at T with no build and no solve.

    Otherwise it stops extra_t >= 0 satisfiable horizons after the first,
    or at a satisfiable one whose value equals the proven bound below, as
    no later horizon can beat it. It keeps the strictly best verdict (the
    first of equal ones), read when it becomes the best. Every solve keeps
    the caller's deadline (_deadline). Returns (answer, details); raises
    TCapExceeded when no horizon tried is satisfiable and SynthesisTimeout
    when a solve reaches the deadline.

    Each solve gets the lower bound the loop has proven on the objective,
    so the core stops tightening an incumbent that reaches it (sv.solve):
    - swap: min_swaps, a SWAP count the caller has proven every solution
      at every horizon needs (_pins_and_swap_bound: 1 when _embedding
      finds no placement, 2 when no one-SWAP cover exists either);
    - depth: the last gate's slot (block, in the coarse model) is T - 1 or
      later, as no horizon below the first is satisfiable; after an
      unsatisfiable horizon T it is T or later, since a solution whose gates
      all end by slot T - 1 truncates to one at horizon T;
    - fidelity: none.
    """
    bound = {"swap": min_swaps, "depth": T - 1}.get(objective)
    tried = []
    best = None  # (value, answer, horizon)
    while T <= max_T:
        tried.append(T)
        if known is not None:
            best = (*known, T)
            break
        model, read = build(T)
        verdict = sv.solve(model, deadline, bound=bound)
        if verdict.status == sv.TIMEOUT:
            raise SynthesisTimeout(f"solver hit time budget at T={T}")
        if verdict.status == sv.SAT:
            value = verdict.objective_value
            if best is None or _better(objective, value, best[0]):
                best = (value, read(verdict), T)
            extra_t -= 1
            if extra_t < 0 or value == bound:
                break
        elif objective == "depth":
            bound = T
        if T == max_T:
            break
        T = min(grow(T), max_T)
    if best is None:
        raise TCapExceeded(f"no satisfiable horizon up to max_T={max_T}")
    value, answer, solver_T = best
    return answer, SynthesisDetails(value, tried, solver_T)


def synthesize(circuit: Circuit, device: Device, objective: str = "swap",
               config: EncodingConfig | None = None, extra_t: int = 0,
               return_details: bool = False):
    """The exact flow: an optimal result at the first satisfiable horizon,
    from T0 = max(1, longest dependency chain). Its one exit is the horizon
    loop, solve_horizons, which also returns the two answers below that
    need no exact model, as the solver would prove them: at T0, with
    tried_T [T0].

    When the circuit fits the device with no SWAP (_embedding), and the
    objective is swap, depth, or fidelity with every weight class of
    Device.scaled_profile uniform, that placement with the gates at their ASAP
    slots meets the objective's bound at T0: 0 SWAPs, depth equal to the
    longest chain, and fidelity its constant, as no SWAP term is positive.
    This path finds no automorphism.

    When it does not, under swap, every solution needs at least 1 SWAP and
    T0 slots, and 2 SWAPs when the interaction graph has no one-SWAP cover
    either (_pins_and_swap_bound). With a bound of 1, the transition-based
    flow runs once, with the call's pins; if its schedule has 1 SWAP and
    depth T0, it meets both bounds and is the answer, with value 1. Depth
    and fidelity are not certified this way.

    Otherwise T grows geometrically from T0 until the model is
    satisfiable, and the optimal assignment at that horizon is decoded;
    each solve gets the proven bound, so the core stops tightening at it.
    extra_t forces additional growth steps after the first satisfiable T,
    keeping the best result seen (the first-satisfiable-T optimum is only
    optimal up to that horizon), unless the result already meets its
    bound: no later horizon can improve it. The symmetry pins are found
    once, for the TB attempt and every horizon, under the objective
    applied.

    Every input, the order of the gates on each qubit (Circuit.unordered)
    and the fit (_check_fits) are checked before any path.
    config.timeout bounds the whole call: every search and solve keeps its
    one deadline.
    """
    config = replace(config or EncodingConfig(T=1), objective=objective)
    deadline = _deadline(config.timeout, config.max_T, extra_t)
    if circuit.unordered:
        l, lp, q = circuit.unordered
        raise ValueError(f"gates {l} and {lp} share q{q} with no dependency path "
                         f"between them: the exact flow needs them ordered")
    _check_fits(circuit, device)
    T0 = max(1, circuit.longest_chain)
    searched = T0 <= config.max_T and (objective != "fidelity" or all(
        len(set(ws)) <= 1 for ws in device.scaled_profile))
    placement = _embedding(circuit, device, deadline) if searched else None
    pins, min_swaps, known = (), 0, None
    if placement is not None:  # a zero-qubit circuit's placement is ()
        asap = circuit.asap
        result = build_result(circuit, device, T0, placement, asap, [])
        known = ({"swap": 0, "depth": max(asap, default=0),
                  "fidelity": result.fidelity_scaled}[objective], result)
    else:
        pins, min_swaps = _pins_and_swap_bound(circuit, device, objective, searched,
                                               deadline)
    if objective == "swap" and min_swaps == 1:
        from .transition import _solve_coarse  # transition imports this module

        # A TB schedule is a valid exact-time schedule; with 1 SWAP and depth
        # T0 it is a solution of the exact model at T0 (its SWAP finishes
        # before the last gate, or dropping it would leave a placement), so
        # it meets both bounds there. A bound of 2 leaves no such schedule.
        # The pins do not change this: an automorphic image of the schedule
        # meets the pinned model's bounds with the same SWAP count. A coarse
        # TCapExceeded leaves the exact model to decide.
        try:
            _, tb, _ = _solve_coarse(circuit, device, "swap", config.S, deadline,
                                     config.max_T, pins=pins, min_swaps=1)
        except TCapExceeded:
            tb = None
        if tb is not None and (tb.swap_count, tb.depth_slots) == (1, T0):
            known = (1, replace(tb, solver_T=T0, depth_blocks=None))

    def build(T):
        model, vs = encode(circuit, device, replace(config, T=T), pins=pins)
        apply_objective(model, vs, objective, device, circuit)
        return model, lambda verdict: decode(circuit, device, verdict, vs, T, objective)

    result, details = solve_horizons(build, T0, grow_T, objective, deadline, config.max_T,
                                     extra_t, min_swaps, known)
    return (result, details) if return_details else result
