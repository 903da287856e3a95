"""The benchmark's workloads: which instances each one solves, in which order.

An instance is one call of one synthesis flow on one circuit, device and
objective. Bundled circuits and devices are named as in `src/qlayout/data`.
Only `qaoa-regular` draws anything from the seed; see NOTES.md for why each
instance is in its workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CIRCUITS = ("or", "adder", "qaoa5", "4mod5-v1_22")

# Swap duration in slots per flow. The exact and TB flows use the library
# default of 3; the QAOA flow follows the unit metric (S=1).
SWAP_SLOTS = {"exact": 3, "tb": 3, "qaoa": 1}

# Per solve-call budget handed to every flow. The slowest timed instance
# takes about 3 s on a 2-vCPU Xeon VM, so only a large regression reaches it.
TIMEOUT_S = 30.0

DEFAULT_SEED = 1
HELD_OUT_SEED = 2007


@dataclass(frozen=True)
class Instance:
    key: str  # unique within its workload
    flow: str  # "exact", "tb" or "qaoa"
    device: str
    objective: str
    circuit: str | None = None  # bundled circuit name (exact, tb)
    edges: tuple[tuple[int, int], ...] | None = None  # graph (qaoa)
    num_nodes: int = 0

    @property
    def slots(self) -> int:
        return SWAP_SLOTS[self.flow]


def bundled(flow: str, rows) -> list[Instance]:
    return [Instance(key=f"{c}/{d}/{o}", flow=flow, circuit=c, device=d,
                     objective=o) for c, d, o in rows]


# Solved once, with HiGHS as a cross-check, for expected_exact.json. Every
# row bounds the TB result on the same circuit, device and objective; only
# EXACT_TIMED is solved in every run (see NOTES.md for the cut).
EXACT_REFERENCE = tuple(
    [(c, d, o) for c in CIRCUITS for d in ("qx2", "grid2x3") for o in ("swap", "depth")
     if (c, d, o) != ("4mod5-v1_22", "grid2x3", "swap")]  # 34 s at the seed
    + [("or", "qx2", "fidelity"), ("or", "grid2x3", "fidelity"),
       ("4mod5-v1_22", "qx2", "fidelity"), ("or", "grid2x4", "swap"),
       ("adder", "grid2x4", "swap"), ("or", "grid4x4", "swap")])
EXACT_TIMED = (
    ("or", "qx2", "swap"), ("or", "qx2", "depth"),
    ("or", "grid2x3", "swap"), ("or", "grid2x3", "depth"),
    ("adder", "qx2", "swap"), ("qaoa5", "qx2", "swap"), ("4mod5-v1_22", "qx2", "depth"),
    ("or", "qx2", "fidelity"), ("or", "grid2x3", "fidelity"),
    ("or", "grid2x4", "swap"), ("adder", "grid2x4", "swap"), ("or", "grid4x4", "swap"))


def exact_search() -> list[Instance]:
    return bundled("exact", EXACT_TIMED)


def tb_blocks() -> list[Instance]:
    return bundled("tb", [(c, d, o) for c in CIRCUITS
                           for d in ("qx2", "grid2x3", "grid2x4", "grid4x4")
                           for o in ("swap", "depth")])


def random_cubic_graph(num_nodes: int, rng: random.Random):
    """Uniform random simple 3-regular graph (pairing model with rejection),
    with its edges in random order."""
    while True:
        stubs = [v for v in range(num_nodes) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        for a, b in zip(stubs[::2], stubs[1::2]):
            edge = (min(a, b), max(a, b))
            if a == b or edge in edges:
                break
            edges.add(edge)
        else:
            order = sorted(edges)
            rng.shuffle(order)
            return tuple(order)


# (nodes, device, objectives, graphs). The pinned graphs are the same in
# every run; the drawn ones change with the seed. See NOTES.md for the split.
PINNED_GRAPHS = ((6, "grid2x3", ("swap", "depth"), 2),
                 (8, "grid2x4", ("depth",), 2))
DRAWN_GRAPHS = ((6, "grid2x3", ("depth",), 8),)


def _graphs(tag: str, spec, rng: random.Random) -> list[Instance]:
    out = []
    graph = 0
    for nodes, device, objectives, count in spec:
        for _ in range(count):
            edges = random_cubic_graph(nodes, rng)
            out += [Instance(key=f"{tag}{graph}.n{nodes}/{device}/{o}", flow="qaoa",
                             device=device, objective=o, edges=edges,
                             num_nodes=nodes) for o in objectives]
            graph += 1
    return out


def qaoa_regular(seed: int) -> list[Instance]:
    return (_graphs("pinned", PINNED_GRAPHS, random.Random("qaoa-regular/pinned"))
            + _graphs("drawn", DRAWN_GRAPHS, random.Random(f"qaoa-regular/{seed}")))


WORKLOADS = {
    "exact-search": lambda seed: exact_search(),
    "tb-blocks": lambda seed: tb_blocks(),
    "qaoa-regular": qaoa_regular,
}
