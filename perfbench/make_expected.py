"""Regenerate expected_exact.json, the exact optimum of every exact-search instance.

Each instance is solved by the exact flow, which runs the conflict-driven
core. The same model (same encoding, same horizon) is then solved again with
`solver.solve(model, method="milp")`, HiGHS branch and bound, which shares no
search code with the core. The file is written only when both engines agree
on every instance.

Run from the repository root:  python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import qlayout  # noqa: E402
from qlayout import solver  # noqa: E402
from qlayout.exact import EncodingConfig, apply_objective, encode, synthesize  # noqa: E402

import workloads  # noqa: E402
from run import load_inputs, result_value  # noqa: E402

OUT = HERE / "expected_exact.json"


def main() -> int:
    rows = {}
    instances = workloads.bundled("exact", workloads.EXACT_REFERENCE)
    inputs = load_inputs(qlayout, instances)
    for inst in instances:
        circuit, device = inputs[inst.key]
        start = time.perf_counter()
        result, details = synthesize(circuit, device, inst.objective,
                                     return_details=True)
        sat_s = time.perf_counter() - start
        model, vs = encode(circuit, device,
                           EncodingConfig(T=details.solver_T, objective=inst.objective))
        apply_objective(model, vs, inst.objective, device, circuit)
        start = time.perf_counter()
        verdict = solver.solve(model, method="milp")
        milp_s = time.perf_counter() - start
        agree = (verdict.status == solver.SAT
                 and verdict.objective_value == details.objective_value)
        print(f"{inst.key}: T={details.solver_T} cdcl={details.objective_value} "
              f"({sat_s:.2f} s) milp={verdict.objective_value} ({milp_s:.2f} s)"
              f"{'' if agree else '  MISMATCH'}", flush=True)
        if not agree:
            return 1
        rows[inst.key] = {
            "objective": inst.objective,
            "value": result_value(result, inst.objective),
            "solver_T": result.solver_T,
            "tried_T": details.tried_T,
            "model_objective": details.objective_value,
            "milp_objective": verdict.objective_value,
            "milp_seconds": round(milp_s, 2),
        }
    doc = {
        "about": ("Exact optimum of each exact-search instance at the first "
                  "satisfiable horizon solver_T. 'value' is the result field "
                  "the objective names: swap_count, depth_slots or "
                  "fidelity_scaled. Found by the exact flow on the CDCL core "
                  "and confirmed by re-solving the same model at solver_T "
                  "with HiGHS (solver.solve(model, method='milp')). "
                  "Regenerate with: python3 perfbench/make_expected.py"),
        "instances": rows,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
