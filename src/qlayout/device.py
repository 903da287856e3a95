"""Coupling-graph model: edges, overlap structure, and fidelity profile.

The graph searches over a device, for subgraph embeddings and for its
automorphisms, are one search in exact (exact._placements)."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

# Uniform defaults applied when a device file carries no fidelity block.
DEFAULT_MEASURE_FIDELITY = 0.99
DEFAULT_SINGLE_FIDELITY = 0.99
DEFAULT_TWO_FIDELITY = 0.98


class DeviceError(ValueError):
    """Raised for malformed device descriptions."""


@dataclass(frozen=True)
class Device:
    num_physical: int
    edges: tuple[tuple[int, int], ...]
    # Unordered overlapping-edge pairs, stored as (k, k') with k < k'.
    overlap_pairs: frozenset[tuple[int, int]]
    # incident[p] lists edge indices touching node p, ascending.
    incident: tuple[tuple[int, ...], ...]
    # neighbours[p] lists the far end of each edge in incident[p], in order.
    neighbours: tuple[tuple[int, ...], ...]
    f_measure: tuple[float, ...]
    f_single: tuple[float, ...]
    f_two: tuple[float, ...]
    # Derived at construction, so dataclasses.replace never carries a stale
    # one: scaled_profile holds the scaled_log_fidelity weights of each
    # node's measurement and one-qubit gate and of each edge's two-qubit
    # gate, as the objective sees them; components the coupling graph's
    # component sizes, largest first
    scaled_profile: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    components: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vars(self).update(  # frozen: no attribute assignment
            scaled_profile=tuple(tuple(map(scaled_log_fidelity, fs))
                                 for fs in (self.f_measure, self.f_single, self.f_two)),
            components=component_sizes(self.num_physical, self.edges))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_index(self, p: int, q: int) -> int:
        """incident[p] at q's place in neighbours[p]."""
        if 0 <= p < self.num_physical and q in self.neighbours[p]:
            return self.incident[p][self.neighbours[p].index(q)]
        raise DeviceError(f"no edge between p{p} and p{q}")


def component_sizes(n: int, pairs) -> tuple[int, ...]:
    """Component sizes of the graph on 0..n-1 with edges `pairs`, largest
    first."""
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    for a, b in pairs:
        root[find(a)] = find(b)
    return tuple(sorted(Counter(map(find, range(n))).values(), reverse=True))


def _integer(x, what: str) -> int:
    """x as an int; DeviceError unless x is an integral number, not a bool."""
    if isinstance(x, float) and x.is_integer() or type(x) is int:
        return int(x)
    raise DeviceError(f"{what} {x!r} is not an integer")


def _check_fidelity(values, count, label):
    if len(values) != count:
        raise DeviceError(f"fidelity list '{label}' has {len(values)} entries, expected {count}")
    for v in values:
        if isinstance(v, bool) or not (isinstance(v, (int, float)) and 0.0 < v <= 1.0):
            raise DeviceError(f"fidelity list '{label}': value {v!r} outside (0, 1]")
    return tuple(float(v) for v in values)


def build_device(num_physical: int, edges, fidelity: dict | None = None) -> Device:
    """Validate raw fields and precompute O and the per-node edge lists."""
    num_physical = _integer(num_physical, "node count")
    if num_physical < 0:
        raise DeviceError("negative node count")
    canon = []
    seen = set()
    for e in edges:
        if len(e) != 2:
            raise DeviceError(f"edge {e!r} must have two endpoints")
        a, b = (_integer(x, "edge endpoint") for x in e)
        if a == b:
            raise DeviceError(f"self-loop on node {a}")
        if not (0 <= a < num_physical and 0 <= b < num_physical):
            raise DeviceError(f"edge ({a},{b}) references node >= {num_physical}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise DeviceError(f"duplicate edge ({a},{b})")
        seen.add(key)
        canon.append(key)
    edges_t = tuple(canon)
    incident = tuple(
        tuple(k for k, e in enumerate(edges_t) if p in e) for p in range(num_physical)
    )
    neighbours = tuple(tuple(sum(edges_t[k]) - p for k in ks)
                       for p, ks in enumerate(incident))
    overlap = frozenset(
        (i, j)
        for i in range(len(edges_t))
        for j in range(i + 1, len(edges_t))
        if set(edges_t[i]) & set(edges_t[j])
    )
    fidelity = fidelity or {}
    unknown = sorted(set(fidelity) - {"measure", "single", "two"})
    if unknown:
        raise DeviceError(f"unknown fidelity keys {unknown}; expected 'measure', "
                          "'single' and 'two'")
    f0 = _check_fidelity(
        fidelity.get("measure", [DEFAULT_MEASURE_FIDELITY] * num_physical),
        num_physical, "measure")
    f1 = _check_fidelity(
        fidelity.get("single", [DEFAULT_SINGLE_FIDELITY] * num_physical),
        num_physical, "single")
    f2 = _check_fidelity(
        fidelity.get("two", [DEFAULT_TWO_FIDELITY] * len(edges_t)),
        len(edges_t), "two")
    return Device(
        num_physical=num_physical,
        edges=edges_t,
        overlap_pairs=overlap,
        incident=incident,
        neighbours=neighbours,
        f_measure=f0,
        f_single=f1,
        f_two=f2,
    )


def load_device(text: str) -> Device:
    """Load a device from its JSON form (see serialize_device)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DeviceError(f"device JSON: {exc}") from None
    if not isinstance(obj, dict) or "num_qubits" not in obj or "edges" not in obj:
        raise DeviceError("device JSON needs 'num_qubits' and 'edges'")
    edges, fidelity = obj["edges"], obj.get("fidelity") or {}
    if not (isinstance(edges, list) and all(isinstance(e, list) for e in edges)
            and isinstance(fidelity, dict)
            and all(isinstance(v, list) for v in fidelity.values())):
        raise DeviceError("device JSON needs a list of [a, b] edges and a "
                          "fidelity object of lists")
    return build_device(obj["num_qubits"], edges, fidelity)


def serialize_device(device: Device) -> str:
    """Canonical JSON form; load_device(serialize_device(d)) reproduces d."""
    obj = {
        "num_qubits": device.num_physical,
        "edges": [list(e) for e in device.edges],
        "fidelity": {
            "measure": list(device.f_measure),
            "single": list(device.f_single),
            "two": list(device.f_two),
        },
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def scaled_log_fidelity(f: float) -> int:
    """round(1000 * ln f) with ties away from zero."""
    if f <= 0.0:
        raise DeviceError(f"fidelity {f!r} must be positive")
    x = 1000.0 * math.log(f)
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def swap_log_fidelity(device: Device, edge: int) -> int:
    """A SWAP costs three two-qubit gates on its edge: 3 * scaled log f2."""
    return 3 * device.scaled_profile[2][edge]
