"""Declarative model seam: lowering, both engines, verdict contract."""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qlayout
from qlayout import _cdcl
from qlayout import solver as sv
from qlayout.solver import (
    Model,
    ModelError,
    SolverBackendError,
    Verdict,
    solve,
)


def test_int_var_domain_validation():
    m = Model()
    with pytest.raises(ModelError):
        m.int_var(3, 2)
    x = m.int_var(0, 4)
    with pytest.raises(ModelError):
        m.require_clause([(x, 1, True), (99, 1, True)])
    with pytest.raises(ModelError):
        m.require_sum([(1, (x, 9))], "<=", 1)
    with pytest.raises(ModelError):
        m.require_sum([(1, x)], "!=", 1)


def test_empty_model_sat():
    v = solve(Model())
    assert v.status == sv.SAT
    assert v.assignment == {}


def test_single_eq():
    m = Model()
    x = m.int_var(2, 7)
    m.require_clause([(x, 5, True)])
    v = solve(m)
    assert v.status == sv.SAT
    assert v.assignment[x] == 5


def test_contradiction_unsat():
    m = Model()
    x = m.int_var(0, 3)
    m.require_clause([(x, 1, True)])
    m.require_clause([(x, 1, False)])
    assert solve(m).status == sv.UNSAT


def test_var_comparisons():
    m = Model()
    x = m.int_var(0, 3)
    y = m.int_var(0, 3)
    m.require_order(x, y, 1)
    m.minimize([(1, y)])
    v = solve(m)
    assert v.assignment == {x: 0, y: 1}

    m = Model()
    x = m.int_var(0, 3)
    y = m.int_var(0, 3)
    m.require_order(y, x)
    m.maximize([(1, x), (1, y)])
    v = solve(m)
    assert v.assignment == {x: 3, y: 3} and v.objective_value == 6


@pytest.mark.parametrize("bad", [99, -1, "x", None])
def test_require_order_checks_handles(bad):
    m = Model()
    x = m.int_var(0, 2)
    with pytest.raises(ModelError):
        m.require_order(x, bad)
    with pytest.raises(ModelError):
        m.require_order(bad, x, 1)
    assert m._assertions == []


def test_check_assignment_reports_violated_ordering():
    m = Model()
    x = m.int_var(0, 3)
    y = m.int_var(0, 3)
    m.require_order(x, y, 1)
    assert m.check_assignment({x: 1, y: 2}) == []
    assert m.check_assignment({x: 2, y: 2}) == ["assertion 0: Order(x0 + 1 <= x1)"]
    # the engines' read-back replays the same check and refuses the assignment
    cols = [0.0] * m._compile()[0]
    cols[2] = cols[4 + 2] = 1.0  # x == 2, y == 2
    with pytest.raises(SolverBackendError):
        sv._extract(m, cols)


def test_require_sum_forms():
    m = Model()
    x = m.int_var(0, 4)
    b = m.bool_var()
    # indicator form counts x == 3; bool handles count directly
    m.require_sum([(2, (x, 3)), (1, b)], "==", 3)
    v = solve(m)
    assert v.status == sv.SAT
    assert v.assignment[x] == 3 and v.assignment[b] == 1


def test_sums_compile_to_integer_ge_rows():
    m = Model()
    x = m.int_var(1, 3)  # columns 0..2
    b = m.bool_var()  # column 3
    m.require_sum([(2, (b, 0)), (1, x)], "==", 4)  # [b == 0] is 1 - b
    m.maximize([(3, (x, 2)), (-1, b)])
    ncols, rows, objective = m._compile()
    assert ncols == 4
    # x's exactly-one is its pairwise "not both" clauses, then "at least
    # one"; the == (x - 2*b == 2) becomes two >=-rows, the upper bound's
    # negated row first, each a PB row over literals: x - 2*b <= 2 is
    # 2*[b] + [x != 1] + 2*[x != 2] + 3*[x != 3] >= 4, and x - 2*b >= 2 the
    # same over [b == 0] and x's value literals
    assert rows == [
        [1, 3], [1, 5], [3, 5], [0, 2, 4],
        ([6, 1, 3, 5], [2, 1, 2, 3], 4), ([7, 0, 2, 4], [2, 1, 2, 3], 4),
    ]
    assert objective == [(-3, 1), (1, 3)]  # maximized: negated, in column order
    v = solve(m)
    assert v.assignment == {x: 2, b: 0} and v.objective_value == 3


def test_objective_exact_minimum():
    m = Model()
    xs = [m.int_var(0, 3) for _ in range(3)]
    for a, b in zip(xs, xs[1:]):
        m.require_order(a, b, 1)
    m.minimize([(1, x) for x in xs])
    v = solve(m)
    assert v.objective_value == 0 + 1 + 2


def test_require_clause_constant_clauses():
    m = Model()
    x = m.int_var(0, 2)
    m.require_clause([(x, 5, False)])  # always holds
    m.require_clause([(x, 1, True), (x, 1, False)])  # complementary pair
    m.require_clause([(x, 2, True), (x, 2, True)])  # repeat collapses
    # after x's exactly-one clauses, only the clause "x == 2" (column 2) loads
    assert m._compile()[1][4:] == [[2 * 2]]
    assert solve(m).assignment == {x: 2}
    m.require_clause([(x, 5, True)])  # can never hold
    assert solve(m).status == sv.UNSAT
    assert solve(m, method="milp").status == sv.UNSAT


@pytest.mark.parametrize("always_true", [
    [(0, 5, False)],  # a constant-true literal
    [(0, 1, True), (0, 1, False)],  # a complementary pair
    [(1, 1, True), (1, 0, True)],  # a complementary pair over a bool
])
@pytest.mark.parametrize("bad", [99, -1, "x", None])
def test_require_clause_checks_handles_after_an_always_true_literal(always_true, bad):
    m = Model()
    m.int_var(0, 2)
    m.bool_var()
    with pytest.raises(ModelError):
        m.require_clause(always_true + [(bad, 1, True)])
    assert m._assertions == []


@st.composite
def _indicator_lits(draw):
    """A model with bools and offset-domain ints, and a literal list over
    them: values in and out of each domain, repeats and negations."""
    m = Model()
    handles = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            handles.append(m.bool_var())
        else:
            lo = draw(st.integers(-3, 3))
            handles.append(m.int_var(lo, lo + draw(st.integers(0, 3))))
    lit = st.tuples(st.sampled_from(handles), st.integers(-5, 7), st.booleans())
    lits = draw(st.lists(lit, max_size=8))
    if lits and draw(st.booleans()):
        lits += draw(st.lists(st.sampled_from(lits), max_size=3))  # repeats
    return m, draw(st.permutations(lits))


@settings(max_examples=200, deadline=None)
@given(_indicator_lits())
def test_require_clause_row_matches_literal_path(case):
    m, lits = case
    expected, logged = [], []
    for handle, value, positive in lits:
        # the literal of "var == value", False when value is outside the domain
        var = m._var(handle)
        if var.is_bool:
            lit = {1: 2 * var.first_col, 0: 2 * var.first_col + 1}.get(value, False)
        else:
            lit = 2 * (var.first_col + value - var.lo) if var.lo <= value <= var.hi else False
        if not positive:
            lit = True if lit is False else lit ^ 1
        expected.append(lit)
        # the row handed to require_clauses: a false constant is dropped and
        # a true one is a complementary pair on the handle's first column
        if lit is True:
            logged += [m.lits(handle)[0], m.lits(handle)[0] ^ 1]
        elif lit is not False:
            logged.append(lit)
    n_rows = len(m._rows)
    m.require_clause(lits)
    row = sv._clause_row(expected)
    # a clause that always holds appends no row
    assert m._rows[n_rows:] == ([] if row is None else [row])
    assert m._assertions[-1] == logged
    assert sv._clause_row(logged) == row


def _lits_layout_model():
    """A bool, an int with lo != 0, an ordering that makes x's order chain
    (three aux columns), and an int created after those aux columns."""
    m = Model()
    b = m.bool_var()
    x = m.int_var(-2, 3)
    y = m.int_var(0, 1)
    m.require_order(y, x, 2)  # x >= 2, 3 are inner values: aux columns
    w = m.int_var(4, 6)
    assert m._aux_names == ["ge"] * 3
    return m, (b, x, y, w)


def test_lits_follow_the_layout_extract_reads():
    m, handles = _lits_layout_model()
    b, x, y, w = handles
    assert m.lits(b) == [1, 0]  # [b == 0, b == 1] on column 0
    assert m.lits(x) == [2, 4, 6, 8, 10, 12]  # columns 1..6, low end first
    assert m.lits(w) == [2 * c for c in range(12, 15)]  # after the aux columns 9..11
    ncols = m._compile()[0]
    for values in itertools.product(*[m._var(h).domain for h in handles]):
        assignment = dict(zip(handles, values))
        if m.check_assignment(assignment):
            continue
        # set each variable's "== value" literal, as a solver would
        cols = [0] * ncols
        for h, value in assignment.items():
            lit = m.lits(h)[value - m._var(h).lo]
            cols[lit >> 1] = 1 - (lit & 1)
        # the order chain's aux columns 9..11 stand for x >= 0, 1, 2
        for v, c in enumerate(range(9, 12)):
            cols[c] = int(assignment[x] >= v)
        assert sv._extract(m, cols).assignment == assignment


def test_extract_refuses_a_vector_that_breaks_a_clause_row():
    m = Model()
    x = m.int_var(0, 3)
    b = m.bool_var()
    m.require_clauses([[m.lits(x)[1], m.lits(b)[1]]])  # x == 1 or b == 1
    m.require_clause([(x, 2, False)])
    assert m.check_assignment({x: 1, b: 0}) == []
    assert m.check_assignment({x: 2, b: 0}) == [
        "assertion 0: Clause((0, 1, True), (1, 1, True))",
        "assertion 1: Clause((0, 2, False),)"]
    cols = [0.0] * m._compile()[0]
    cols[2] = 1.0  # x == 2, b == 0
    with pytest.raises(SolverBackendError):
        sv._extract(m, cols)


def test_require_clauses_collapses_repeats_and_drops_tautologies():
    m = Model()
    x = m.int_var(0, 2)
    b = m.bool_var()
    lx, lb = m.lits(x), m.lits(b)
    m.require_clauses([(lx[1], lx[1], lb[1]), [lx[0], lx[0] ^ 1], [], [lb[0]]])
    # one log entry per row, each as given; the tautology loads no row
    assert m._assertions == [[lx[1], lx[1], lb[1]], [lx[0], lx[0] ^ 1], [], [lb[0]]]
    assert m._rows == [[lx[1], lb[1]], [], [lb[0]]]
    assert solve(m).status == sv.UNSAT


@pytest.mark.parametrize("bad", [
    2.0, True, "4", None,  # not an int
    -1,  # negative
    "past",  # one past the last column
    "aux",  # an order chain's aux column
])
def test_require_clauses_refuses_a_bad_literal_atomically(bad):
    m, (b, x, y, w) = _lits_layout_model()
    m.require_clauses([[m.lits(b)[1]]])
    bad = {"past": 2 * m._compile()[0], "aux": 2 * 9 + 1}.get(bad, bad)
    before = (list(m._assertions), list(m._rows), m._compile())
    with pytest.raises(ModelError):
        # a good row first: nothing of the family is kept
        m.require_clauses([[m.lits(x)[0]], [m.lits(w)[2], bad]])
    assert (m._assertions, m._rows, m._compile()) == before


@pytest.mark.parametrize("state", [
    lambda m, a: m.require_order(True, a),
    lambda m, a: m.require_order(a, False, 1),
    lambda m, a: m.require_sum([(1, True)], ">=", 1),
    lambda m, a: m.require_sum([(1, (False, 0))], ">=", 1),
    lambda m, a: m.require_clause([(False, 1, True)]),
    lambda m, a: m.lits(True),
    lambda m, a: m.minimize([(1, True)]),
], ids=["order-a", "order-b", "sum", "sum-indicator", "clause", "lits", "objective"])
def test_a_bool_is_no_handle(state):
    # True and False are ints to Python; as handles they would name
    # variables 1 and 0, which nobody asked for
    m = Model()
    m.bool_var()
    a = m.int_var(0, 5)
    before = (list(m._assertions), list(m._sums), m._compile(), m._objective)
    with pytest.raises(ModelError):
        state(m, a)
    assert (m._assertions, m._sums, m._compile(), m._objective) == before


@pytest.mark.parametrize("method", ["sat", "milp"])
def test_mutation_after_solve_recompiles(method):
    m = Model()
    x = m.int_var(0, 3)
    m.minimize([(1, x)])
    assert solve(m, method=method).assignment == {x: 0}
    m.maximize([(1, x)])
    v = solve(m, method=method)
    assert v.assignment == {x: 3} and v.objective_value == 3
    # variables and constraints added after a solve take part in the next
    b = m.bool_var()
    m.require_clause([(b, 1, True)])
    m.require_clause([(x, 3, False)])
    m.require_sum([(1, b), (1, x)], "<=", 2)
    v = solve(m, method=method)
    assert v.assignment == {x: 1, b: 1} and v.objective_value == 1


@pytest.mark.parametrize("method", ["sat", "milp"])
def test_bool_zero_indicator_terms(method):
    # [b == 0] is 1 - b, not b: in the objective ...
    m = Model()
    b = m.bool_var()
    m.minimize([(1, (b, 0))])
    v = solve(m, method=method)
    assert v.assignment == {b: 1} and v.objective_value == 0
    m.maximize([(2, (b, 0)), (1, (b, 1))])
    v = solve(m, method=method)
    assert v.assignment == {b: 0} and v.objective_value == 2
    # ... and in a sum
    m = Model()
    b = m.bool_var()
    m.require_sum([(1, (b, 0))], ">=", 1)
    assert solve(m, method=method).assignment == {b: 0}
    m.require_sum([(3, (b, 0)), (1, (b, 1))], "==", 1)
    assert solve(m, method=method).status == sv.UNSAT


def test_unsat_beats_objective():
    m = Model()
    x = m.int_var(0, 1)
    m.require_clause([(x, 0, True)])
    m.require_clause([(x, 1, True)])
    m.minimize([(1, x)])
    assert solve(m).status == sv.UNSAT


def _pigeons(n_pigeons: int, n_holes: int) -> Model:
    m = Model()
    ps = [m.int_var(0, n_holes - 1) for _ in range(n_pigeons)]
    for i in range(n_pigeons):
        for j in range(i + 1, n_pigeons):
            for hole in range(n_holes):
                m.require_clause([(ps[i], hole, False), (ps[j], hole, False)])
    return m


def test_methods_agree_on_pigeonhole():
    assert solve(_pigeons(5, 4), method="sat").status == sv.UNSAT
    assert solve(_pigeons(5, 4), method="milp").status == sv.UNSAT
    assert solve(_pigeons(4, 4), method="sat").status == sv.SAT
    assert solve(_pigeons(4, 4), method="milp").status == sv.SAT


def test_sat_timeout_reported():
    # the sat core checks its deadline between conflict batches; a heavy
    # pigeonhole proof cannot finish within a millisecond
    v = solve(_pigeons(12, 11), timeout=0.001, method="sat")
    assert v.status == sv.TIMEOUT


def _chain_model() -> Model:
    """Four ordered ints and a maximized sum: a few incumbent rounds, each
    with only a handful of conflicts."""
    m = Model()
    xs = [m.int_var(0, 6) for _ in range(4)]
    for a, b in zip(xs, xs[1:]):
        m.require_order(a, b, 1)
    m.maximize([(1, x) for x in xs])
    return m


def test_deadline_honoured_with_few_conflicts(monkeypatch):
    calls = []
    search = _cdcl.Searcher.search

    def spy(self, deadline=None):
        status = search(self, deadline)
        calls.append((status, self.conflicts))
        return status

    monkeypatch.setattr(_cdcl.Searcher, "search", spy)
    v = solve(_chain_model(), method="sat")
    assert v.status == sv.SAT and v.objective_value == 3 + 4 + 5 + 6
    assert len(calls) > 2 and calls[-1][1] < 256  # incumbent rounds, few conflicts
    calls.clear()
    assert solve(_chain_model(), timeout=0, method="sat").status == sv.TIMEOUT
    assert calls == [("timeout", 0)]
    # a later round whose deadline has passed stops too
    searcher = _cdcl.Searcher(2)
    searcher.add_rows([[0, 2]])
    assert searcher.search() == "sat"
    assert searcher.search(time.monotonic()) == "timeout"


@pytest.mark.parametrize("build", [
    lambda m, b: m.require_sum([(1, b)], ">=", 0.5),  # a bound that int() would floor
    lambda m, b: m.require_sum([(0.5, b), (0.5, (b, 0))], ">=", 1),
    lambda m, b: m.minimize([(1.5, b)]),
    lambda m, b: m.maximize([(1, b), (float("nan"), (b, 1))]),
    lambda m, b: m.require_sum([(1, b)], "<=", "1"),
    lambda m, b: m.require_sum([(1, (b, 0.5))], ">=", 1),
    lambda m, b: m.maximize([(1, (b, "1"))]),
    lambda m, b: m.require_order(b, b, 1.5),
    lambda m, b: m.require_order(b, b, "1"),
    lambda m, b: m.int_var(0.5, 2.7),  # int() would make it 0..2
    lambda m, b: m.int_var("0", "3"),
], ids=["bound", "coefficient", "minimize", "maximize", "string", "indicator-value",
        "indicator-string", "margin", "margin-string", "int-bounds", "int-bounds-string"])
def test_non_integral_input_raises_model_error(build):
    m = Model()
    b = m.bool_var()
    m.minimize([(1, b)])
    compiled = m._compile()
    with pytest.raises(ModelError):
        build(m, b)
    # the model is unchanged: the proven optimum is still b = 0
    assert m._sums == m._assertions == []
    assert m._compile() == compiled
    assert solve(m).assignment == {b: 0}
    # integral floats are integers
    m.require_sum([(2.0, b)], ">=", 1.0)
    v = solve(m)
    assert v.assignment == {b: 1} and v.objective_value == 1

    def twin(margin, value):
        m = Model()
        x, y = m.int_var(0, 5), m.int_var(0, 5)
        m.require_order(x, y, margin)
        m.require_sum([(1, (y, value))], ">=", 1)
        m.maximize([(1, x)])
        return m

    # ... also as a margin and an indicator value
    assert twin(2.0, 4.0)._compile() == twin(2, 4)._compile()
    v = solve(twin(2.0, 4.0))
    assert v.assignment == {0: 2, 1: 4} and v.objective_value == 2

    def ranged(lo, hi):
        m = Model()
        x = m.int_var(lo, hi)
        m.minimize([(1, x)])
        return m

    # ... and as int bounds
    assert ranged(0.0, 3.0)._compile() == ranged(0, 3)._compile()
    assert ranged(0.0, 3.0)._var(0).domain == range(0, 4)
    assert solve(ranged(1.0, 3.0)).assignment == {0: 1}


@pytest.mark.parametrize("timeout", [-1, -0.5, float("nan"), "1", True, False])
def test_timeout_must_be_a_number_at_least_zero(monkeypatch, timeout):
    # NaN would fail every deadline comparison and so lift the budget; a
    # negative one is refused rather than reported as a solver timeout, and
    # a bool is no number of seconds (True would run for 1 s)
    searches = []
    monkeypatch.setattr(_cdcl.Searcher, "search", lambda *args: searches.append(1))
    for method in ("sat", "milp"):
        with pytest.raises(ValueError, match="timeout"):
            solve(_chain_model(), timeout=timeout, method=method)
    assert searches == []


def test_unknown_method_rejected():
    for method in ("magic", "auto"):
        with pytest.raises(ModelError):
            solve(Model(), method=method)


def test_flows_import_no_numpy_or_scipy():
    # the sat core is the only run-time engine: all three flows run without
    # numpy or scipy, which the milp cross-check alone imports
    code = """if True:
        import sys
        from importlib import resources
        import qlayout
        data = resources.files("qlayout") / "data"
        device = qlayout.load_device((data / "qx2.json").read_text())
        circuit = qlayout.load_circuit((data / "or.gates").read_text())
        qlayout.synthesize(circuit, device, "swap")
        qlayout.synthesize_tb(circuit, device, "swap")
        graph = qlayout.phase_separation_from_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
        qlayout.synthesize_qaoa(graph, device, "swap")
        loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
        print(loaded)
    """
    src = str(Path(qlayout.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_solve_is_deterministic():
    def build():
        m = Model()
        xs = [m.int_var(0, 4) for _ in range(5)]
        for a, b in zip(xs, xs[1:]):
            m.require_order(a, b)
        m.require_sum([(1, x) for x in xs], "<=", 12)
        m.maximize([(1, x) for x in xs])
        return m
    va = solve(build())
    vb = solve(build())
    assert va.assignment == vb.assignment
    assert va.objective_value == vb.objective_value


# orderings: the order-encoded lowering


def _root_searcher(m: Model) -> _cdcl.Searcher:
    """A Searcher loaded with the model's rows, as the sat engine loads
    them, after propagation at the root and before any decision."""
    ncols, rows, _ = m._compile()
    searcher = _cdcl.Searcher(ncols)
    searcher.add_rows(rows)
    assert searcher._root_scan() and searcher._propagate() is None
    assert searcher.decisions == searcher.conflicts == 0
    return searcher


@pytest.mark.parametrize("x_dom,y_dom", [((0, 7), (0, 7)), ((2, 6), (-1, 9)), ((0, 2), (0, 5))])
@pytest.mark.parametrize("strict", [False, True])
def test_ordering_propagates_at_the_root(x_dom, y_dom, strict):
    # x == u with x + margin <= y leaves y no value below u + margin, by
    # unit propagation alone
    margin = int(strict)
    for u in range(x_dom[0], min(x_dom[1], y_dom[1] - margin) + 1):
        m = Model()
        x = m.int_var(*x_dom)
        y = m.int_var(*y_dom)
        m.require_order(x, y, margin)
        m.require_clause([(x, u, True)])
        val = _root_searcher(m).val
        first = m._var(y).first_col
        below = range(y_dom[0], u + margin)
        assert [val[first + v - y_dom[0]] for v in below] == [0] * len(below)


def _non_group_rows(m: Model) -> list:
    """Rows after the exactly-one clauses of the model's int variables: each
    int's pairwise "not both" clauses, then its "at least one" clause."""
    rows = m._compile()[1]
    groups = []
    for v in m._vars:
        if not v.is_bool:
            lits = m.lits(v.handle)
            groups += [[p ^ 1, q ^ 1] for p, q in itertools.combinations(lits, 2)] + [lits]
    assert rows[:len(groups)] == groups
    return rows[len(groups):]


def test_orderings_share_one_chain_per_variable():
    m = Model()
    x = m.int_var(0, 5)  # aux columns for x >= 2, 3, 4
    y = m.int_var(0, 2)
    z = m.int_var(1, 4)  # an aux column for z >= 3
    b = m.bool_var()
    m.require_order(x, y, 1)
    m.require_order(z, x)
    m.require_order(x, z, 1)
    m.require_order(y, x)
    m.require_order(x, b)
    rows = _non_group_rows(m)
    assert all(row.__class__ is list for row in rows) and len(rows) == 42
    # x, y and z's exactly-one: 15 + 1, 3 + 1 and 6 + 1 clauses
    assert len(m._compile()[1]) == 16 + 4 + 7 + 42
    assert m._aux_names == ["ge"] * 4
    assert m._compile()[0] == 6 + 3 + 4 + 1 + 4


def test_aux_columns_come_before_later_variables():
    # an order chain's aux columns are made at the ordering that needs them,
    # so a variable created after it gets the columns after them
    m = Model()
    x = m.int_var(0, 5)
    y = m.int_var(0, 2)
    m.require_order(y, x, 2)  # x >= 2, 3, 4: x's chain, columns 9..11
    assert m._aux_names == ["ge"] * 3
    z = m.int_var(1, 4)
    assert m._var(z).first_col == 6 + 3 + 3
    m.require_order(z, x)  # z >= 3: z's chain, column 16
    m.require_order(x, z, -1)
    assert m._compile()[0] == 6 + 3 + 3 + 4 + 1
    m.minimize([(1, x), (-1, z)])
    for method in ("sat", "milp"):
        v = solve(m, method=method)
        assert v.objective_value == _brute_force(m)[1] == 0


def test_small_domains_add_no_aux_column():
    m = Model()
    x = m.int_var(0, 2)
    y = m.int_var(4, 6)
    z = m.int_var(3, 3)
    b = m.bool_var()
    m.require_order(x, y, 1)
    m.require_order(y, x)
    m.require_order(z, x, 1)
    m.require_order(b, x, 1)
    m.require_order(z, y)
    rows = _non_group_rows(m)
    assert all(row.__class__ is list for row in rows) and len(rows) == 6
    # x and y's exactly-one: 3 + 1 clauses each; one-value z's: its unit clause
    assert len(m._compile()[1]) == 4 + 4 + 1 + 6
    assert m._aux_names == []
    assert m._compile()[0] == 3 + 3 + 1 + 1


def _ordering_cases():
    def case(*doms):
        m = Model()
        hs = [m.bool_var() if d == "bool" else m.int_var(*d) for d in doms]
        return m, hs

    def same_var_lt():
        m, (a,) = case((0, 4))
        m.require_order(a, a, 1)
        return m

    def same_var_le():
        m, (a,) = case((0, 4))
        m.require_order(a, a)
        return m

    def int_against_bool():
        m, (x, b, c) = case((-1, 3), "bool", "bool")
        m.require_order(b, x, 1)
        m.require_order(x, c)
        m.require_order(b, c)
        return m

    def bool_strict():
        m, (b, c) = case("bool", "bool")
        m.require_order(b, c, 1)
        return m

    def offset_domains():
        m, (x, y, z) = case((3, 7), (-2, 5), (4, 9))
        m.require_order(x, y, 1)
        m.require_order(y, z)
        m.require_order(x, z)
        return m

    def single_values():
        m, (s, x, r) = case((4, 4), (0, 6), (6, 6))
        m.require_order(s, x, 1)
        m.require_order(s, s)
        m.require_order(x, r)
        m.require_order(s, r, 1)
        return m

    return [same_var_lt, same_var_le, int_against_bool, bool_strict,
            offset_domains, single_values]


@pytest.mark.parametrize("build", _ordering_cases(), ids=lambda f: f.__name__)
def test_ordering_edge_cases_brute_force(build):
    # the lowering admits exactly the assignments the orderings allow
    m = build()
    feasible, _ = _brute_force(m)
    for method in ("sat", "milp"):
        assert (solve(m, method=method).status == sv.SAT) == feasible
    handles = range(len(m._vars))
    for values in itertools.product(*[m._var(h).domain for h in handles]):
        pinned = build()
        for h, value in zip(handles, values):
            pinned.require_clause([(h, value, True)])
        allowed = not m.check_assignment(dict(zip(handles, values)))
        assert (solve(pinned, method="sat").status == sv.SAT) == allowed, values


# random-model agreement between the two engines

clause_shapes = st.sampled_from(["plain", "plain", "plain", "repeat", "tautology", "false"])


@st.composite
def models(draw):
    m = Model()
    n_int = draw(st.integers(min_value=1, max_value=4))
    n_bool = draw(st.integers(min_value=0, max_value=2))
    handles = []
    for _ in range(n_int):
        lo = draw(st.integers(min_value=0, max_value=2))
        hi = lo + draw(st.integers(min_value=0, max_value=3))
        handles.append(m.int_var(lo, hi))
    for _ in range(n_bool):
        handles.append(m.bool_var())

    def literal():
        h = draw(st.sampled_from(handles))
        var = m._var(h)
        # one step past either end of the domain gives a constant literal
        value = draw(st.integers(min_value=var.lo - 1, max_value=var.hi + 1))
        return (h, value, draw(st.booleans()))

    def orderings(pool):
        # margins past 0 and 1 too, and an ordering of a handle on itself
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            m.require_order(draw(st.sampled_from(pool)), draw(st.sampled_from(pool)),
                            draw(st.integers(min_value=-1, max_value=2)))

    orderings(handles)
    # variables created after those orderings, with orderings of their own:
    # their columns come after any aux columns made so far, and theirs after
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lo = draw(st.integers(min_value=0, max_value=2))
        handles.append(m.int_var(lo, lo + draw(st.integers(min_value=0, max_value=3))))
        orderings(handles)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        lits = [literal() for _ in range(draw(st.integers(min_value=1, max_value=3)))]
        shape = draw(clause_shapes)
        if shape == "repeat":
            lits.append(lits[0])
        elif shape == "tautology":
            h, value, positive = lits[0]
            lits.append((h, value, not positive))
        elif shape == "false":
            lits = [(h, m._var(h).hi + 1, True) for h, _, _ in lits]
        m.require_clause(lits)
    def term(h):
        # a handle's value, or an indicator on one value of its domain
        coef = draw(st.integers(min_value=-2, max_value=3))
        if draw(st.booleans()):
            return coef, h
        var = m._var(h)
        return coef, (h, draw(st.integers(min_value=var.lo, max_value=var.hi)))

    if draw(st.booleans()):
        terms = [term(h) for h in handles]
        m.require_sum(terms, draw(st.sampled_from(["<=", ">=", "=="])),
                      draw(st.integers(min_value=-2, max_value=8)))
    if draw(st.booleans()):
        terms = [term(h) for h in handles]
        if draw(st.booleans()):
            m.minimize(terms)
        else:
            m.maximize(terms)
    return m


def _brute_force(m):
    """(feasible?, best objective) over every assignment of the model."""
    handles = range(len(m._vars))
    best = None
    feasible = False
    for values in itertools.product(*[m._var(h).domain for h in handles]):
        a = dict(zip(handles, values))
        if m.check_assignment(a):
            continue
        feasible = True
        obj = m.objective_of(a)
        if obj is not None and (best is None or (
                obj < best if m._objective[0] == "min" else obj > best)):
            best = obj
    return feasible, best


def _clipped_pb_model():
    """5*b - c + [x == 2] >= 2, stated as one PB row over b, not c and
    x == 2 whose coefficient 5 is clipped to its bound 3."""
    m = Model()
    x, b, c = m.int_var(0, 3), m.bool_var(), m.bool_var()
    m.require_sum([(5, b), (-1, c), (1, (x, 2))], ">=", 2)
    m.minimize([(1, x), (2, b), (-1, c)])
    return m


def test_milp_reads_a_clipped_pb_row_with_a_negated_literal():
    m = _clipped_pb_model()
    row = m._compile()[1][-1]
    assert row == ([2 * 4, 2 * 5 + 1, 2 * 2], [3, 1, 1], 3)
    # the MILP engine reads it over columns: 3*b - c + [x == 2] >= 2
    assert sv._ge_row(row) == ([(3, 4), (-1, 5), (1, 2)], 2)
    assert solve(m, method="milp") == solve(m, method="sat") == \
        Verdict(sv.SAT, {0: 0, 1: 1, 2: 1}, 1)


@settings(max_examples=60, deadline=None)
@given(models())
@example(_clipped_pb_model())
def test_engines_agree(m):
    va = solve(m, method="sat")
    vb = solve(m, method="milp")
    assert va.status == vb.status
    feasible, best = _brute_force(m)
    assert (va.status == sv.SAT) == feasible
    if va.status == sv.SAT:
        assert va.objective_value == vb.objective_value == best
        # both assignments must replay cleanly against the model
        assert m.check_assignment(va.assignment) == []
        assert m.check_assignment(vb.assignment) == []
