"""Synthesis result records and their JSON serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass


class ResultError(ValueError):
    """Raised for malformed result documents."""


@dataclass(frozen=True)
class GatePlacement:
    gate_id: int
    time: int
    # Physical node index for 1-qubit gates, edge index for 2-qubit gates.
    location: int


@dataclass(frozen=True)
class SwapPlacement:
    edge: int
    finish_time: int


@dataclass(frozen=True)
class SynthesisResult:
    solver_T: int
    depth_slots: int
    swap_count: int
    fidelity_scaled: int
    initial_mapping: tuple[int, ...]
    gates: tuple[GatePlacement, ...]
    swaps: tuple[SwapPlacement, ...]
    # mapping_trajectory[t][q] = physical node of logical q at slot t.
    mapping_trajectory: tuple[tuple[int, ...], ...]
    # Coarse block count; set by the transition-based and QAOA flows only.
    depth_blocks: int | None = None

    def to_json(self) -> str:
        obj = {
            "solver_T": self.solver_T,
            "depth_slots": self.depth_slots,
            "swap_count": self.swap_count,
            "fidelity_scaled": self.fidelity_scaled,
            "initial_mapping": list(self.initial_mapping),
            "gates": [
                {"id": g.gate_id, "time": g.time, "location": g.location}
                for g in self.gates
            ],
            "swaps": [
                {"edge": s.edge, "finish_time": s.finish_time} for s in self.swaps
            ],
            "mapping_trajectory": [list(row) for row in self.mapping_trajectory],
        }
        if self.depth_blocks is not None:
            obj["depth_blocks"] = self.depth_blocks
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _integer(x) -> int:
    """x as an int; ResultError unless x is an integral number, not a bool."""
    if isinstance(x, float) and x.is_integer() or type(x) is int:
        return int(x)
    raise ResultError(f"result JSON: {x!r} is not an integer")


def result_from_json(text: str) -> SynthesisResult:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ResultError(f"result JSON: {exc}") from None
    try:
        gates = tuple(
            GatePlacement(_integer(g["id"]), _integer(g["time"]), _integer(g["location"]))
            for g in obj["gates"]
        )
        swaps = tuple(
            SwapPlacement(_integer(s["edge"]), _integer(s["finish_time"])) for s in obj["swaps"]
        )
        return SynthesisResult(
            solver_T=_integer(obj["solver_T"]),
            depth_slots=_integer(obj["depth_slots"]),
            swap_count=_integer(obj["swap_count"]),
            fidelity_scaled=_integer(obj["fidelity_scaled"]),
            initial_mapping=tuple(_integer(p) for p in obj["initial_mapping"]),
            gates=gates,
            swaps=swaps,
            mapping_trajectory=tuple(
                tuple(_integer(p) for p in row) for row in obj["mapping_trajectory"]
            ),
            depth_blocks=_integer(obj["depth_blocks"]) if "depth_blocks" in obj else None,
        )
    except KeyError as exc:
        raise ResultError(f"result JSON missing field {exc}") from None
    except TypeError as exc:
        raise ResultError(f"result JSON field of the wrong type: {exc}") from None


@dataclass(frozen=True)
class TransitionPlan:
    """Coarse-grain plan: gate blocks under fixed mappings, SWAPs between."""

    num_blocks: int
    gate_block: tuple[int, ...]  # per-gate coarse time
    # block_mapping[b][q] = physical node of logical q during block b.
    block_mapping: tuple[tuple[int, ...], ...]
    # transitions[j] = edges of the SWAPs between block j and j+1, one
    # entry per block boundary (num_blocks - 1 of them), empty or not.
    transitions: tuple[frozenset[int], ...]
