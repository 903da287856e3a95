"""Benchmark for qlayout's three synthesis flows.

    python3 perfbench/run.py --workload exact-search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Closed loop, one client: one process, one thread, one instance at a time in a
fixed order. A pass solves every instance of the workload once. A run makes at
least three passes, and another only while it should end within --seconds.
Every time is taken at reference pace (see pace.py), and each instance is
timed by its median pass. Each solve is checked by `check_result`, outside the
timed region.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of two traced passes, each run
after an untraced one. Per-instance rows, and in a traced run the spans, go to
perfbench/out/. The run exits 1 on any wrong result; see NOTES.md.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here

import pace  # noqa: E402

PACER = pace.Pacer()
PACER.start(T0)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import TIMEOUT_S  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DATA = SRC / "qlayout" / "data"
OUT = HERE / "out"
EXPECTED = HERE / "expected_exact.json"

# fresh processes that repeat the set-up, besides this one
SETUP_REPEATS = 4
MIN_PASSES = 3
TRACED_PASSES = 2

UNITS = {"wall_s": "s", "geomean_s": "s", "solved_frac": "ratio",
         "swaps_sum": "SWAPs", "depth_sum": "slots", "setup_s": "s",
         "peak_rss_mb": "MB"}


def import_program():
    """Import qlayout from this checkout's src/, never from elsewhere."""
    package = SRC / "qlayout"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import qlayout
    if Path(qlayout.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported qlayout from {qlayout.__file__}")
    return qlayout


def load_inputs(q, instances) -> dict:
    """Instance key -> (circuit, device), built through the program's loaders."""
    devices = {}
    inputs = {}
    for inst in instances:
        if inst.device not in devices:
            text = (DATA / f"{inst.device}.json").read_text()
            devices[inst.device] = q.device.load_device(text)
        if inst.flow == "qaoa":
            circuit = q.qaoa.phase_separation_from_graph(inst.edges, inst.num_nodes)
        else:
            circuit = q.circuit.load_circuit((DATA / f"{inst.circuit}.gates").read_text())
        inputs[inst.key] = (circuit, devices[inst.device])
    return inputs


def result_value(result, objective: str) -> int:
    """The result field the objective optimizes."""
    return {"swap": result.swap_count, "depth": result.depth_slots,
            "fidelity": result.fidelity_scaled}[objective]


def solve(q, inst, circuit, device):
    """Run the instance's flow; returns (status, result, seconds, raw seconds,
    error). `seconds` is at reference pace, `raw seconds` as the clock read."""
    gc.collect()  # the previous solve's garbage is not this solve's cost
    PACER.start()
    try:
        if inst.flow == "exact":
            config = q.exact.EncodingConfig(T=1, S=inst.slots, objective=inst.objective,
                                            timeout=TIMEOUT_S)
            result = q.exact.synthesize(circuit, device, inst.objective, config=config)
        elif inst.flow == "tb":
            _, result = q.transition.synthesize_tb(
                circuit, device, inst.objective, S=inst.slots, timeout=TIMEOUT_S)
        else:
            result = q.qaoa.synthesize_qaoa(
                circuit, device, inst.objective, S=inst.slots, timeout=TIMEOUT_S)
    except q.exact.SynthesisTimeout:
        raw, seconds = PACER.stop()
        return "timeout", None, max(seconds, TIMEOUT_S), max(raw, TIMEOUT_S), None
    except Exception:  # a crash is reported as this instance's failure
        raw, seconds = PACER.stop()
        return "error", None, seconds, raw, traceback.format_exc()
    raw, seconds = PACER.stop()
    return "solved", result, seconds, raw, None


def run_pass(q, instances, inputs, tracer=None) -> list[dict]:
    rows = []
    for inst in instances:
        circuit, device = inputs[inst.key]
        if tracer is not None:
            tracer.instance = inst.key
        status, result, seconds, raw, error = solve(q, inst, circuit, device)
        row = {"key": inst.key, "status": status, "seconds": seconds, "raw_seconds": raw}
        if result is not None:
            row.update(value=result_value(result, inst.objective),
                       swaps=result.swap_count, depth=result.depth_slots,
                       fidelity=result.fidelity_scaled, solver_T=result.solver_T)
            try:
                violations = q.verify.check_result(circuit, device, result, S=inst.slots)
            except ValueError as exc:
                violations = [{"family": "shape", "detail": str(exc)}]
            if violations:
                row["status"] = "invalid"
                error = json.dumps(violations[:3])
        if error:
            row["error"] = error
        rows.append(row)
    return rows


def instance_times(passes) -> list[float]:
    """Per instance, its median solve time over the passes, at reference pace."""
    return [statistics.median(rows[i]["seconds"] for rows in passes)
            for i in range(len(passes[0]))]


def quality_sums(instances, rows) -> tuple[int, int]:
    solved = [(inst, r) for inst, r in zip(instances, rows) if r["status"] == "solved"]
    return (sum(r["swaps"] for inst, r in solved if inst.objective == "swap"),
            sum(r["depth"] for inst, r in solved if inst.objective == "depth"))


def outcome(row) -> tuple:
    return tuple(row[k] for k in ("value", "swaps", "depth", "fidelity"))


def check_rows(instances, rows, expected) -> list[str]:
    """Problems with one pass: crashes, verifier violations, exact optima
    that differ from the expected file, and TB results that beat them."""
    problems = []
    for inst, row in zip(instances, rows):
        if row["status"] in ("error", "invalid"):
            problems.append(f"{inst.key}: {row['status']}: {row['error']}")
        if row["status"] != "solved" or inst.flow == "qaoa":
            continue
        ref = expected.get(f"{inst.circuit}/{inst.device}/{inst.objective}")
        if inst.flow == "exact":
            if ref is None:
                problems.append(f"{inst.key}: no expected optimum on file")
            elif (row["value"], row["solver_T"]) != (ref["value"], ref["solver_T"]):
                problems.append(f"{inst.key}: exact gave {row['value']} at T={row['solver_T']}, "
                                f"expected {ref['value']} at T={ref['solver_T']}")
        elif ref is not None and inst.objective in ("swap", "depth"):
            # The exact depth optimum is global. The swap optimum holds only
            # among schedules that fit its horizon solver_T.
            beats = row["value"] < ref["value"] and (
                inst.objective == "depth" or row["depth"] <= ref["solver_T"])
            if beats:
                problems.append(f"{inst.key}: TB gave {row['value']}, below the "
                                f"exact optimum {ref['value']}")
    return problems


def check_passes(instances, passes, expected) -> list[str]:
    """Problems with any pass, and solved outcomes that differ from the
    first pass's."""
    problems = []
    for i, rows in enumerate(passes):
        problems += check_rows(instances, rows, expected)
        problems += [f"{inst.key}: pass {i} gave {outcome(b)}, pass 0 gave {outcome(a)}"
                     for inst, a, b in zip(instances, passes[0], rows)
                     if a["status"] == b["status"] == "solved" and outcome(a) != outcome(b)]
    return problems


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def write_jsonl(path: Path, records) -> None:
    OUT.mkdir(exist_ok=True)
    with path.open("w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def measure(q, args, instances, inputs, setup_s, expected):
    passes = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(run_pass(q, instances, inputs))
        # stop unless one more pass of the same length still ends in time
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - start + (now - begun) > args.seconds:
            break
    problems = check_passes(instances, passes, expected)
    setups = [setup_s] + [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS)]
    times = instance_times(passes)
    swaps_sum, depth_sum = quality_sums(instances, passes[0])
    attempted = len(instances) * len(passes)
    failed = sum(r["status"] != "solved" for rows in passes for r in rows)
    metrics = {
        "wall_s": sum(times),
        "geomean_s": math.exp(statistics.fmean(math.log(t) for t in times)),
        "solved_frac": (attempted - failed) / attempted,
        "swaps_sum": swaps_sum,
        "depth_sum": depth_sum,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    write_jsonl(OUT / f"{args.workload}-seed{args.seed}-rows.jsonl",
                ({"pass": i, **row} for i, rows in enumerate(passes) for row in rows))
    return problems, attempted, failed, {k: (v, UNITS[k]) for k, v in metrics.items()}


def measure_traced(q, args, instances, inputs, tracer, expected):
    """Untraced and traced passes in turn; the traced ones give the layers."""
    setup_spans = tracer.take()
    tracer.uninstall()
    plain, traced, spans = [], [], []
    for _ in range(TRACED_PASSES):
        plain.append(run_pass(q, instances, inputs))
        tracer.install()
        traced.append(run_pass(q, instances, inputs, tracer))
        tracer.uninstall()
        spans.append(tracer.take())
    problems = check_passes(instances, plain + traced, expected)
    counts = [tracing.instance_counts(s) for s in spans]
    for i, c in enumerate(counts[1:], start=1):
        differ = sorted(k for k in c.keys() | counts[0].keys() if c.get(k) != counts[0].get(k))
        if differ:
            problems.append(f"traced pass {i}: counts differ from traced pass 0 on {differ[:5]}")
    per_pass = [tracing.layer_metrics(s) for s in spans]
    # counts repeat exactly (checked above); layer times are the faster
    # pass's, as the clock read
    metrics = {k: v if isinstance(v, int) else min(m[k] for m in per_pass)
               for k, v in per_pass[0].items()}
    metrics["circuit.load_s"] = sum(s.end - s.start for s in setup_spans
                                    if s.name == "circuit.load")
    metrics["trace.overhead_frac"] = sum(instance_times(traced)) / sum(instance_times(plain)) - 1
    attempted = len(instances) * 2 * TRACED_PASSES
    failed = sum(r["status"] != "solved" for rows in plain + traced for r in rows)
    write_jsonl(OUT / f"{args.workload}-seed{args.seed}-traced-rows.jsonl",
                ({"pass": i, "traced": bool(i % 2), **row}
                 for i, rows in enumerate(p for pair in zip(plain, traced) for p in pair)
                 for row in rows))
    write_jsonl(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl",
                ({"pass": i, **s.to_json()} for i, ss in enumerate([setup_spans, *spans])
                 for s in ss))
    if tracer.missing:
        print(f"not traced (absent from the program): {', '.join(tracer.missing)}")
    units = {k: ("s" if k.endswith("_s") else "ratio" if k.endswith(("_ratio", "_frac"))
                 else "count") for k in metrics}
    return problems, attempted, failed, {k: (v, units[k]) for k, v in metrics.items()}


def run_all(args) -> int:
    """Run every workload in its own fresh process and relay its output."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status |= subprocess.run(cmd, timeout=900).returncode
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                   help=f"input seed (default %(default)s); keep {workloads.HELD_OUT_SEED} "
                        "to confirm a claim made on other seeds")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        PACER.stop()
        return run_all(args)
    q = import_program()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    instances = workloads.WORKLOADS[args.workload](args.seed)
    inputs = load_inputs(q, instances)
    _, setup_s = PACER.stop()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    expected = json.loads(EXPECTED.read_text())["instances"]
    if tracer is None:
        problems, attempted, failed, metrics = measure(q, args, instances, inputs,
                                                       setup_s, expected)
    else:
        problems, attempted, failed, metrics = measure_traced(q, args, instances, inputs,
                                                              tracer, expected)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:30s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        PACER.cancel()  # no alarm may outlive the run, on any way out
