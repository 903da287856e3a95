#!/usr/bin/env python3
"""Walk through one exact synthesis run on a bundled benchmark.

Loads the `or` circuit and the `qx2` device, solves for minimum SWAP
count, prints the schedule slot by slot, and re-checks the result with
the independent verifier.
"""

from importlib import resources

from qlayout import (
    check_result,
    load_circuit,
    load_device,
    metrics,
    synthesize,
)


def bundled(name: str) -> str:
    return (resources.files("qlayout") / "data" / name).read_text()


def main() -> None:
    circuit = load_circuit(bundled("or.gates"))
    device = load_device(bundled("qx2.json"))
    print(f"circuit: {circuit.num_qubits} qubits, {circuit.num_gates} gates")
    print(f"device:  {device.num_physical} sites, {len(device.edges)} edges")

    result = synthesize(circuit, device, objective="swap")

    print(f"\nswaps={result.swap_count} depth={result.depth_slots} "
          f"fidelity={result.fidelity_scaled}")
    print(f"initial mapping: {result.initial_mapping}")

    # one line per occupied slot: gates by location, swaps by finish time
    by_slot: dict[int, list[str]] = {}
    for g in result.gates:
        gate = circuit.gates[g.gate_id]
        where = (f"edge {device.edges[g.location]}" if gate.is_two_qubit
                 else f"site {g.location}")
        by_slot.setdefault(g.time, []).append(f"{gate.name} on {where}")
    for s in result.swaps:
        by_slot.setdefault(s.finish_time, []).append(
            f"SWAP finishing on edge {device.edges[s.edge]}")
    for slot in sorted(by_slot):
        print(f"  t={slot}: " + "; ".join(by_slot[slot]))

    violations = check_result(circuit, device, result)
    print(f"\nverifier: {'clean' if not violations else violations}")
    print(f"metrics recomputation: {metrics(circuit, device, result)}")


if __name__ == "__main__":
    main()
