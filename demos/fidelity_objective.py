#!/usr/bin/env python3
"""Fidelity-aware synthesis on a hand-built device.

Builds a 4-site ring with one very noisy link, then routes a triangle of
interactions (which needs one SWAP on a ring either way) under both
objectives. Minimizing SWAP count is indifferent to where the traffic
goes and may land on the bad link; maximizing fidelity steers every gate
and the SWAP onto the good ones. The scaled objective is
round(1000*ln f) summed over gate, SWAP, and measurement terms, so 0 is
perfect and larger is better.
"""

import math

from qlayout import (
    build_device,
    load_circuit,
    metrics,
    synthesize,
)

CIRCUIT = "qubits 3\ncx q0 q1\ncx q1 q2\ncx q0 q2\n"


def main() -> None:
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    fidelity = {
        "measure": [0.99] * 4,
        "single": [0.999] * 4,
        # the (0,3) link is nearly useless
        "two": [0.99, 0.99, 0.99, 0.50],
    }
    device = build_device(4, edges, fidelity=fidelity)
    circuit = load_circuit(CIRCUIT)

    for objective in ("swap", "fidelity"):
        result = synthesize(circuit, device, objective=objective)
        depth, swaps, scaled, real = metrics(circuit, device, result)
        used = sorted({device.edges[g.location] for g in result.gates}
                      | {device.edges[s.edge] for s in result.swaps})
        print(f"{objective:>8}: swaps={swaps} depth={depth} scaled={scaled} "
              f"real={real:.4f} (exp check {math.exp(scaled / 1000):.4f})")
        print(f"          edges used: {used}")


if __name__ == "__main__":
    main()
