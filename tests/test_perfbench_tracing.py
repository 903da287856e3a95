"""The benchmark's layer tracer still finds the program's seams.

perfbench/tracing.py wraps functions by name and reads Model internals
(`_assertions`, `_sums`, `_compiled`, `_aux_names`). A refactor that renamed
one of them would make a per-layer metric read 0 without failing any run.
This test loads the tracer as it is, without editing it, and runs one solve
under it.
"""

import importlib.util
from importlib import resources
from pathlib import Path

from qlayout import solver as sv
from qlayout.circuit import load_circuit
from qlayout.device import load_device
from qlayout.transition import synthesize_tb

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Sites the tracer still names but the program no longer has; their metrics
# read 0 until the benchmark's site list is repaired.
STALE_SITES = [
    "transition.enumerate_automorphisms",
    "qaoa.encode",
    "qaoa.encode_tb",
    "transition._symmetry_clauses",
    "qaoa._polish_plan",
]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _model() -> sv.Model:
    """Clauses, an ordering over two six-value ints (so their order chains
    make three aux columns each), a weighted row and an objective (so the
    search tightens)."""
    m = sv.Model()
    x = m.int_var(0, 5)
    y = m.int_var(0, 5)
    b = m.bool_var()
    m.require_orders([(x, y, 2)])
    m.require_clauses([[m.lits(b)[1], m.lits(x)[3]]])
    m.require_at_least([(m.lits(x)[1:] + m.lits(b)[:1], [1, 2, 3, 4, 5, 1], 2)])  # x + [b == 0]
    m.maximize([(v, lit) for v, lit in enumerate(m.lits(x))]
               + [(-v, lit) for v, lit in enumerate(m.lits(y))])  # x - y
    return m


def test_tracer_reads_every_layer_of_a_solve():
    tracing = _load_tracing()
    solve = sv.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == STALE_SITES
        m = _model()
        verdict = sv.solve(m)
        spans = tracer.take()
    finally:
        tracer.uninstall()
    assert sv.solve is solve
    assert verdict.status == sv.SAT and verdict.objective_value == -2
    ncols, rows, _ = m._compile()
    [info] = [s.info for s in spans if s.name == "solver.solve"]
    assert info == tracing._solve_info(None, verdict, m) == {
        "sat": True, "assertions": 3, "rows": len(rows), "cols": ncols,
        "aux_cols": 6}
    metrics = tracing.layer_metrics(spans)
    assert metrics["solver.rows"] == len(rows) > 0
    assert metrics["solver.cols"] == ncols == 6 + 6 + 1 + 6
    assert metrics["solver.solve_calls"] == 1
    assert metrics["cdcl.search_calls"] >= 2  # the first model, then tightening
    assert metrics["cdcl.decisions"] > 0
    for layer in ("solver.compile_s", "solver.load_s", "solver.replay_s", "cdcl.search_s"):
        assert metrics[layer] > 0, layer


def test_tracer_counts_the_polish_schedules():
    # qaoa5/grid2x3/depth makes over a thousand schedules in the polish; the
    # tracer counts them only while _polish_plan calls _schedule_core through
    # the module attribute, so a local alias would make the count read 0
    tracing = _load_tracing()
    data = resources.files("qlayout") / "data"
    circuit = load_circuit((data / "qaoa5.gates").read_text())
    device = load_device((data / "grid2x3.json").read_text())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        synthesize_tb(circuit, device, "depth")
        spans = tracer.take()
    finally:
        tracer.uninstall()
    assert tracing.layer_metrics(spans)["transition.polish_schedules"] > 0
