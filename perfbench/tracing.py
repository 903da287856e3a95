"""Outside-in layer tracing for the benchmark's traced run.

Nothing in the program is edited. Each traced name is replaced, at the module
or class that the calling code looks it up in, by a wrapper that records a
span: name, start, end, parent span and instance id. Several modules import
by name (`from .exact import encode`), so one function can have several
sites. Spans stay in memory; the runner writes them out when it ends.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

# (owner inside qlayout, attribute, span name)
SITES = (
    ("circuit", "load_circuit", "circuit.load"),
    ("qaoa", "phase_separation_from_graph", "circuit.load"),
    ("transition", "enumerate_automorphisms", "device.automorphisms"),
    ("exact", "encode", "exact.encode"),
    ("transition", "encode", "exact.encode"),
    ("qaoa", "encode", "exact.encode"),
    ("exact", "decode", "exact.decode"),
    ("transition", "encode_tb", "transition.encode_tb"),
    ("qaoa", "encode_tb", "transition.encode_tb"),
    ("transition", "_coarse_cuts", "transition.cuts"),
    ("transition", "_symmetry_clauses", "transition.symmetry"),
    ("transition", "_polish_plan", "transition.polish"),
    ("qaoa", "_polish_plan", "transition.polish"),
    ("transition", "_schedule_core", "transition.schedule"),
    ("qaoa", "_retime_block", "qaoa.retime"),
    ("solver", "solve", "solver.solve"),
    ("solver", "_extract", "solver.replay"),
    ("solver.Model", "_compile", "solver.compile"),
    ("_cdcl.Searcher", "search", "cdcl.search"),
    ("verify", "check_result", "verify.check"),
)

CDCL_COUNTS = ("conflicts", "decisions", "propagations", "learned")
MODEL_COUNTS = ("assertions", "rows", "cols", "aux_cols")


def _searcher_counts(searcher, *args, **kwargs):
    # every clause appended during search() is a learned one
    return (searcher.conflicts, searcher.decisions, searcher.propagations,
            len(searcher.clauses))


def _search_info(before, status, searcher, *args, **kwargs):
    after = _searcher_counts(searcher)
    return dict(zip(CDCL_COUNTS, (a - b for a, b in zip(after, before))))


def _solve_info(before, verdict, model, *args, **kwargs):
    compiled = getattr(model, "_compiled", None)
    ncols, rows = (compiled[0], len(compiled[1])) if compiled else (0, 0)
    return {"sat": verdict.status == "satisfiable",
            "assertions": len(model._assertions) + len(model._sums),
            "rows": rows, "cols": ncols,
            "aux_cols": len(getattr(model, "_aux_names", ()))}


def _cap_info(before, perms, *args, **kwargs):
    return {"cap_hit": perms is None}


# span name -> (hook run before the call, hook that turns the result into info)
HOOKS = {
    "cdcl.search": (_searcher_counts, _search_info),
    "solver.solve": (None, _solve_info),
    "device.automorphisms": (None, _cap_info),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "info")

    def __init__(self, name, parent, instance):
        self.name = name
        self.parent = parent
        self.instance = instance
        self.start = self.end = 0.0
        self.info = None

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "instance": self.instance,
                "info": self.info}


class Tracer:
    """Installs span-recording wrappers at every site in SITES that exists.

    Sites the program no longer has are listed in `missing`; their metrics
    read 0. Set `instance` before each call into the program.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.instance = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def install(self) -> None:
        self.missing = []
        for owner_path, attr, name in SITES:
            module, _, cls = owner_path.partition(".")
            owner = importlib.import_module(f"qlayout.{module}")
            if cls:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, original, name):
        before, info = HOOKS.get(name, (None, None))
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            span = Span(name, stack[-1] if stack else -1, self.instance)
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if info:
                span.info = info(state, result, *args, **kwargs)
            return result

        return traced


def _totals(spans):
    """Per span name: inclusive seconds, self seconds and call count."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        total[s.name] += s.end - s.start
        self_time[s.name] += s.end - s.start - child[i]
        calls[s.name] += 1
    return total, self_time, calls


def _info_sum(spans, name, key) -> int:
    return sum(s.info[key] for s in spans if s.name == name and s.info)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (circuit.load_s and
    trace.overhead_frac are added by the runner)."""
    total, self_time, calls = _totals(spans)
    solve_calls = calls["solver.solve"]
    polish_schedules = sum(
        1 for s in spans if s.name == "transition.schedule" and s.parent >= 0
        and spans[s.parent].name == "transition.polish")
    m = {
        "device.automorphisms_s": total["device.automorphisms"],
        "device.automorphism_cap_hits": _info_sum(spans, "device.automorphisms", "cap_hit"),
        "exact.encode_s": total["exact.encode"],
        "exact.encode_calls": calls["exact.encode"],
        "exact.decode_s": total["exact.decode"],
        "transition.encode_tb_s": self_time["transition.encode_tb"],
        "transition.cuts_s": total["transition.cuts"],
        "transition.symmetry_s": total["transition.symmetry"],
        "transition.horizons_tried": calls["transition.encode_tb"],
        "transition.polish_s": total["transition.polish"],
        "transition.polish_schedules": polish_schedules,
        "transition.schedule_s": total["transition.schedule"],
        "qaoa.retime_s": total["qaoa.retime"],
        "qaoa.retime_calls": calls["qaoa.retime"],
        "solver.compile_s": total["solver.compile"],
        "solver.load_s": self_time["solver.solve"],
        "solver.replay_s": total["solver.replay"],
        "solver.solve_calls": solve_calls,
        "solver.sat_ratio": (_info_sum(spans, "solver.solve", "sat") / solve_calls
                             if solve_calls else 0.0),
        "cdcl.search_s": total["cdcl.search"],
        "cdcl.search_calls": calls["cdcl.search"],
        "verify.check_s": total["verify.check"],
    }
    for key in MODEL_COUNTS:
        m[f"solver.{key}"] = _info_sum(spans, "solver.solve", key)
    for key in CDCL_COUNTS:
        m[f"cdcl.{key}"] = _info_sum(spans, "cdcl.search", key)
    return m


def instance_counts(spans) -> dict:
    """Per instance: every count a deterministic program repeats exactly
    (calls per span name, model sizes, CDCL counters)."""
    out: dict = defaultdict(lambda: defaultdict(int))
    for s in spans:
        counts = out[s.instance]
        counts[f"{s.name}.calls"] += 1
        if s.info and s.name in ("cdcl.search", "solver.solve"):
            for key, value in s.info.items():
                counts[f"{s.name}.{key}"] += int(value)
    return {k: dict(v) for k, v in out.items()}
