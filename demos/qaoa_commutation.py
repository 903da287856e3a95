#!/usr/bin/env python3
"""Commutation-aware synthesis for a QAOA phase-separation layer.

Every two-qubit interaction in the layer commutes with every other, so
gate order is the solver's to choose. The QAOA flow is the
transition-based (TB) flow with its input checks: given no dependencies,
TB leaves the coarse blocks unordered and re-times each one to its
minimum depth. Feeding the same interactions through TB with the default
dependencies (the textual order kept as a chain wherever qubits overlap)
shows what that freedom buys: fewer or equal SWAPs and a shallower
schedule.

Runs in unit-SWAP-depth mode (S=1), the natural setting when a SWAP and
an interaction cost about the same wall-clock time.
"""

from importlib import resources

from qlayout import (
    load_device,
    parse_program,
    phase_separation_from_graph,
    preprocess,
    synthesize_qaoa,
    synthesize_tb,
)

# a 3-regular interaction graph on 8 nodes
EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5),
         (3, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)]


def main() -> None:
    device = load_device(
        (resources.files("qlayout") / "data" / "grid2x4.json").read_text())

    commuting = phase_separation_from_graph(EDGES)

    text = "qubits 8\n" + "".join(f"zz q{a} q{b}\n" for a, b in EDGES)
    ordered = preprocess(parse_program(text))

    qaoa = synthesize_qaoa(commuting, device, objective="swap", S=1)
    plan_t, tb = synthesize_tb(ordered, device, objective="swap", S=1)

    print(f"qaoa: swaps={qaoa.swap_count} depth={qaoa.depth_slots} "
          f"blocks={qaoa.depth_blocks}")
    print(f"tb:   swaps={tb.swap_count} depth={tb.depth_slots} "
          f"blocks={plan_t.num_blocks}")


if __name__ == "__main__":
    main()
