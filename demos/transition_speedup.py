#!/usr/bin/env python3
"""Exact vs transition-based synthesis on the same instance.

The transition-based model collapses time into blocks, so it solves a
much smaller encoding. On `qaoa5`/`grid2x3` it finds the same optimal SWAP
count (1) as the exact model in a fraction of the time; the price is that
depth is whatever the post-scheduler produces, not a proven optimum.

The row is one the exact flow still solves with its own model. Where the
TB schedule has 1 SWAP and the longest chain's depth (as on `adder`/`qx2`),
it meets both lower bounds and the exact flow returns it with no model, so
timing the two flows there would time TB twice.
"""

import time
from importlib import resources

from qlayout import load_circuit, load_device, synthesize, synthesize_tb


def bundled(name: str) -> str:
    return (resources.files("qlayout") / "data" / name).read_text()


def main() -> None:
    circuit = load_circuit(bundled("qaoa5.gates"))
    device = load_device(bundled("grid2x3.json"))

    t0 = time.perf_counter()
    exact = synthesize(circuit, device, objective="swap")
    t_exact = time.perf_counter() - t0

    t0 = time.perf_counter()
    plan, tb = synthesize_tb(circuit, device, objective="swap")
    t_tb = time.perf_counter() - t0

    print(f"exact: swaps={exact.swap_count} depth={exact.depth_slots} "
          f"({t_exact:.2f}s)")
    print(f"tb:    swaps={tb.swap_count} depth={tb.depth_slots} "
          f"({t_tb:.2f}s, {plan.num_blocks} blocks)")
    print(f"speedup: {t_exact / t_tb:.1f}x, same swap count: "
          f"{exact.swap_count == tb.swap_count}")


if __name__ == "__main__":
    main()
