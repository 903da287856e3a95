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


def value_terms(m, h, coef=1):
    """The objective terms of coef times h's value: coef * v on "h == v"."""
    return [(coef * v, lit) for v, lit in enumerate(m.lits(h), m._var(h).lo)]


def test_int_var_domain_validation():
    m = Model()
    with pytest.raises(ModelError):
        m.int_var(3, 2)
    x = m.int_var(0, 4)
    with pytest.raises(ModelError):
        m.lits(99)
    with pytest.raises(ModelError):
        m.minimize([(1, 2 * 5)])  # past x's five columns


def test_empty_model_sat():
    v = solve(Model())
    assert v.status == sv.SAT
    assert v.assignment == {}


def test_single_eq():
    m = Model()
    x = m.int_var(2, 7)
    m.require_clauses([[m.lits(x)[5 - 2]]])
    v = solve(m)
    assert v.status == sv.SAT
    assert v.assignment[x] == 5


def test_contradiction_unsat():
    m = Model()
    x = m.int_var(0, 3)
    is_one = m.lits(x)[1]
    m.require_clauses([[is_one], [is_one ^ 1]])
    assert solve(m).status == sv.UNSAT


def test_var_comparisons():
    m = Model()
    x = m.int_var(0, 3)
    y = m.int_var(0, 3)
    m.require_orders([(x, y, 1)])
    m.minimize(value_terms(m, y))
    v = solve(m)
    assert v.assignment == {x: 0, y: 1}

    m = Model()
    x = m.int_var(0, 3)
    y = m.int_var(0, 3)
    m.require_orders([(y, x, 0)])
    m.maximize(value_terms(m, x) + value_terms(m, y))
    v = solve(m)
    assert v.assignment == {x: 3, y: 3} and v.objective_value == 6


@pytest.mark.parametrize("bad", [99, -1, "x", None])
def test_require_order_checks_handles(bad):
    m = Model()
    x = m.int_var(0, 2)
    with pytest.raises(ModelError):
        m.require_orders([(x, bad, 0)])
    with pytest.raises(ModelError):
        # a good row first: nothing of the family is kept
        m.require_orders([(x, x, 0), (bad, x, 1)])
    assert m._assertions == m._rows == []


def test_check_assignment_reports_violated_ordering():
    m = Model()
    x = m.int_var(0, 3)
    y = m.int_var(0, 3)
    m.require_orders([(x, y, 1)])
    assert m.check_assignment({x: 1, y: 2}) == []
    assert m.check_assignment({x: 2, y: 2}) == ["assertion 0: Order(x0 + 1 <= x1)"]
    # the engines' read-back replays the same check and refuses the assignment
    cols = [0.0] * m._compile()[0]
    cols[2] = cols[4 + 2] = 1.0  # x == 2, y == 2
    with pytest.raises(SolverBackendError):
        sv._extract(m, cols)


def test_sums_compile_to_integer_ge_rows():
    m = Model()
    x = m.int_var(1, 3)  # columns 0..2
    b = m.bool_var()  # column 3
    lx, lb = m.lits(x), m.lits(b)
    # x - 2*b == 2 as two weighted rows over literals: x - 2*b <= 2 is
    # 2*[b] + [x != 1] + 2*[x != 2] + 3*[x != 3] >= 4, and x - 2*b >= 2 the
    # same over [b == 0] and x's value literals
    m.require_at_least([([lb[1], *(lit ^ 1 for lit in lx)], [2, 1, 2, 3], 4),
                        ([lb[0], *lx], [2, 1, 2, 3], 4)])
    m.maximize([(3, lx[1]), (-1, lb[1])])
    ncols, rows, objective = m._compile()
    assert ncols == 4
    # x's exactly-one is its pairwise "not both" clauses, then "at least
    # one"; then each weighted row, a PB row as stated
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
    m.require_orders([(a, b, 1) for a, b in zip(xs, xs[1:])])
    m.minimize([t for x in xs for t in value_terms(m, x)])
    v = solve(m)
    assert v.objective_value == 0 + 1 + 2


def test_rows_are_kept_as_given_and_an_empty_row_is_unsat():
    m = Model()
    x = m.int_var(0, 2)
    lx = m.lits(x)
    m.require_clauses([(lx[1], lx[1]), [lx[0], lx[0] ^ 1]])  # a repeat, a complementary pair
    assert m._assertions == m._rows == [[lx[1], lx[1]], [lx[0], lx[0] ^ 1]]
    assert m._compile()[1][4:] == m._rows  # after x's exactly-one clauses
    assert solve(m).assignment == solve(m, method="milp").assignment == {x: 1}
    m.require_clauses([[]])  # can never hold
    assert m._rows[-1] == []
    assert solve(m).status == solve(m, method="milp").status == sv.UNSAT


@pytest.mark.parametrize("always_true", [
    [4, 5],  # x == 2 or x != 2
    [2, 3],  # x == 1 or x != 1
    [6, 7],  # b == 1 or b == 0
])
@pytest.mark.parametrize("bad", [99, -1, "x", None])
def test_require_clause_checks_handles_after_an_always_true_literal(always_true, bad):
    # a row that always holds has its literals checked all the same: 99 is
    # past the last column, -1 negative, "x" and None no literal at all
    m = Model()
    x, b = m.int_var(0, 2), m.bool_var()
    assert m.lits(x) + m.lits(b) == [0, 2, 4, 7, 6]
    with pytest.raises(ModelError):
        m.require_clauses([always_true + [bad]])
    assert m._assertions == m._rows == []


@st.composite
def _indicator_rows(draw):
    """A model with bools and offset-domain ints, and a family of rows of
    literals from `lits` and their complements: repeats, complementary
    pairs and empty rows."""
    m = Model()
    handles = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            handles.append(m.bool_var())
        else:
            lo = draw(st.integers(-3, 3))
            handles.append(m.int_var(lo, lo + draw(st.integers(0, 3))))
    pool = [lit for h in handles for lit in m.lits(h)]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        lits = draw(st.lists(st.sampled_from(pool + [lit ^ 1 for lit in pool]), max_size=8))
        if lits and draw(st.booleans()):
            lits += draw(st.lists(st.sampled_from(lits), max_size=3))  # repeats
        rows.append(draw(st.permutations(lits)))
    return m, rows


@settings(max_examples=200, deadline=None)
@given(_indicator_rows())
def test_require_clauses_keeps_each_row_as_written(case):
    # logged and loaded as given, in order, after the ints' exactly-one rows
    m, rows = case
    m.require_clauses(rows)
    assert m._assertions == m._rows == rows
    assert m._compile()[1] == m._onehot_rows + rows


def _lits_layout_model():
    """A bool, an int with lo != 0, an ordering that makes x's order chain
    (three aux columns), and an int created after those aux columns."""
    m = Model()
    b = m.bool_var()
    x = m.int_var(-2, 3)
    y = m.int_var(0, 1)
    m.require_orders([(y, x, 2)])  # x >= 2, 3 are inner values: aux columns
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
    m.require_clauses([[m.lits(x)[2] ^ 1]])  # x != 2
    assert m.check_assignment({x: 1, b: 0}) == []
    assert m.check_assignment({x: 2, b: 0}) == [
        "assertion 0: Clause((0, 1, True), (1, 1, True))",
        "assertion 1: Clause((0, 2, False),)"]
    cols = [0.0] * m._compile()[0]
    cols[2] = 1.0  # x == 2, b == 0
    with pytest.raises(SolverBackendError):
        sv._extract(m, cols)


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
    lambda m, x: m.require_clauses([5]),  # a row that is not iterable
    lambda m, x: m.require_clauses([None]),
    lambda m, x: m.require_clauses([[m.lits(x)[0]], 5]),  # after a good row
    lambda m, x: m.require_clauses(7),  # a family that is not iterable
    lambda m, x: m.require_clauses(None),
    lambda m, x: m.require_at_least(7),
    lambda m, x: m.require_at_least([(5, [1], 1)]),  # lits not iterable
    lambda m, x: m.require_at_least([(m.lits(x)[:1], 1, 1)]),  # coefs not iterable
    lambda m, x: m.require_orders(7),
    lambda m, x: m.minimize(7),
], ids=["clause-int-row", "clause-None-row", "clause-good-then-int-row", "clause-int-family",
        "clause-None-family", "weighted-family", "weighted-lits", "weighted-coefs", "orders",
        "objective"])
def test_every_family_refuses_what_is_not_iterable(state):
    # a ModelError, not the bare TypeError of unpacking, and nothing is kept
    m = Model()
    x = m.int_var(0, 3)
    m.require_clauses([[m.lits(x)[1]]])
    before = (list(m._assertions), list(m._rows), list(m._sums), m._objective, m._compile())
    with pytest.raises(ModelError, match="is not iterable"):
        state(m, x)
    assert (m._assertions, m._rows, m._sums, m._objective, m._compile()) == before


def test_a_returned_assignment_builds_its_column_image_once(monkeypatch):
    # the replay and the objective read one column image of the assignment
    m = Model()
    x = m.int_var(0, 3)
    m.require_clauses([[m.lits(x)[0] ^ 1]])
    m.minimize([*enumerate(m.lits(x))])
    images = []
    holding = Model._holding
    monkeypatch.setattr(Model, "_holding",
                        lambda self, a: images.append(a) or holding(self, a))
    verdict = solve(m)
    assert (verdict.status, verdict.objective_value) == (sv.SAT, 1)
    assert len(images) == 1


@pytest.mark.parametrize("bad", [
    2.0, True, "4", None, (1, 1), -1, "past", "aux",
])
def test_objective_refuses_a_bad_literal_atomically(bad):
    # a term's literal is checked as a clause's: a bad one keeps the
    # objective as it was
    m, (b, x, y, w) = _lits_layout_model()
    m.minimize([(1, m.lits(b)[1])])
    bad = {"past": 2 * m._compile()[0], "aux": 2 * 9 + 1}.get(bad, bad)
    before = (m._objective, m._compile())
    with pytest.raises(ModelError):
        m.maximize([(1, m.lits(x)[0]), (2, bad)])
    assert (m._objective, m._compile()) == before


# weighted rows: require_at_least, over 3 bools (literals 0..5)
@pytest.mark.parametrize("row,lowered,sat", [
    (([0, 3], [2, 1], 0), [], True),
    (([0, 3], [2, 1], -2), [], True),
    (([0, 3, 5], [2, 1, 3], 1), [[0, 3, 5]], True),
    (([0, 3, 5], [1, 1, 1], 2), [[0, 3], [0, 5], [3, 5]], True),
    (([0, 3, 5], [4, 1, 2], 2), [([0, 3, 5], [2, 1, 2], 2)], True),
    (([0, 3, 5], [1, 2, 1], 3), [([0, 3, 5], [1, 2, 1], 3)], True),
    (([0, 3], [1, 2], 4), [([0, 3], [1, 2], 4)], False),
    (([], [], 1), [([], [], 1)], False),
], ids=["b-zero", "b-negative", "clause", "all-but-one", "clipped", "pb", "never",
        "empty"])
def test_require_at_least_lowers_each_rule(row, lowered, sat):
    # none when it always holds, a clause at b == 1, the pairwise clauses of
    # "all but one", else one PB row with coefficients clipped to b; one
    # that never holds is kept as stated
    m = Model()
    handles = [m.bool_var() for _ in range(3)]
    m.require_at_least([row])
    assert m._sums == [row]
    assert m._compile()[1] == lowered
    for method in ("sat", "milp"):
        assert (solve(m, method=method).status == sv.SAT) == sat
    lits, coefs, b = row
    for values in itertools.product((0, 1), repeat=3):
        true = {2 * c + 1 - v for c, v in enumerate(values)}
        holds = sum(cf for lit, cf in zip(lits, coefs) if lit in true) >= b
        assert (m.check_assignment(dict(zip(handles, values))) == []) == holds


@pytest.mark.parametrize("bad", [
    ([0], [True], 1), ([0], [1.0], 1), ([0], [0], 1), ([0], [-2], 1),
    ([0, 2], [1], 1),
    ([0], [1], 1.0), ([0], [1], True), ([0], [1], "1"),
    (["aux"], [1], 1), (["past"], [1], 1), ([-1], [1], 1), ([True], [1], 1), ([2.0], [1], 1),
    ([0], [1]),
], ids=["coefficient-bool", "coefficient-float", "coefficient-zero", "coefficient-negative",
        "length", "b-float", "b-bool", "b-string", "literal-aux", "literal-past",
        "literal-negative", "literal-bool", "literal-float", "no-row"])
def test_require_at_least_refuses_a_bad_row_atomically(bad):
    m, (b, x, y, w) = _lits_layout_model()
    m.require_at_least([([m.lits(b)[1]], [1], 1)])
    names = {"past": 2 * m._compile()[0], "aux": 2 * 9 + 1}
    if bad[0] and bad[0][0] in names:
        bad = ([names[bad[0][0]]], *bad[1:])
    before = (list(m._sums), list(m._sum_rows), m._compile())
    with pytest.raises(ModelError):
        # a good row first: nothing of the family is kept
        m.require_at_least([([m.lits(x)[0], m.lits(w)[2]], [1, 2], 2), bad])
    assert (m._sums, m._sum_rows, m._compile()) == before


@st.composite
def _weighted_models(draw):
    """Up to five bools and an int of up to three values (eight columns at
    most), a family of weighted rows over literals of distinct columns,
    and an objective."""
    m = Model()
    handles = [m.bool_var() for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        handles.append(m.int_var(0, draw(st.integers(0, 2))))
    pool = [lit for h in handles for lit in m.lits(h)]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        cols = draw(st.lists(st.sampled_from(pool), max_size=4, unique_by=lambda lit: lit >> 1))
        lits = [lit ^ draw(st.integers(0, 1)) for lit in cols]
        coefs = [draw(st.integers(1, 4)) for _ in lits]
        rows.append((lits, coefs, draw(st.integers(-1, sum(coefs) + 1))))
    m.require_at_least(rows)
    m.minimize([t for h in handles for t in value_terms(m, h, draw(st.integers(-2, 2)))])
    return m, rows


@settings(max_examples=150, deadline=None)
@given(_weighted_models())
def test_require_at_least_matches_brute_force(case):
    # each row holds when the coefficients of its true literals reach b: the
    # verdict and the optimum match enumeration, and replay names exactly
    # the rows an assignment breaks
    m, rows = case
    handles = range(len(m._vars))
    best = None
    for values in itertools.product(*[m._var(h).domain for h in handles]):
        a = dict(zip(handles, values))
        true = set()  # "h == v" holds for h's value, the complement otherwise
        for h, v in a.items():
            for i, lit in enumerate(m.lits(h)):
                true.add(lit if m._var(h).lo + i == v else lit ^ 1)
        broken = [i for i, (lits, coefs, b) in enumerate(rows)
                  if sum(cf for lit, cf in zip(lits, coefs) if lit in true) < b]
        replay = m.check_assignment(a)
        assert [line.split(":")[0] for line in replay] == [f"sum {i}" for i in broken]
        if not broken:
            value = sum(coef for coef, lit in m._objective[1] if lit in true)
            best = value if best is None else min(best, value)
    for method in ("sat", "milp"):
        v = solve(m, method=method)
        assert (v.status == sv.SAT) == (best is not None)
        if best is not None:
            assert v.objective_value == best
            assert m.check_assignment(v.assignment) == []


@pytest.mark.parametrize("state", [
    lambda m, a: m.require_orders([(True, a, 0)]),
    lambda m, a: m.require_orders([(a, False, 1)]),
    lambda m, a: m.require_orders([(a, a, 0), (a, True, 1)]),  # the last row's
    lambda m, a: m.require_at_least([([True], [1], 1)]),  # as a literal: column 0 is 0
    lambda m, a: m.require_at_least([([m.lits(a)[2], False], [1, 1], 1)]),
    lambda m, a: m.require_clauses([[False]]),  # as a literal: column 0 is 1
    lambda m, a: m.lits(True),
    lambda m, a: m.minimize([(1, True)]),  # as a literal: column 0 is 0
    lambda m, a: m.minimize([(1, m.lits(a)[0]), (1, False)]),  # the last term's
], ids=["order-a", "order-b", "orders-last-row", "sum", "sum-indicator", "clause", "lits",
        "objective", "objective-last-term"])
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
    m.minimize(value_terms(m, x))
    assert solve(m, method=method).assignment == {x: 0}
    m.maximize(value_terms(m, x))
    v = solve(m, method=method)
    assert v.assignment == {x: 3} and v.objective_value == 3
    # variables and constraints added after a solve take part in the next
    b = m.bool_var()
    m.require_clauses([[m.lits(b)[1]], [m.lits(x)[3] ^ 1]])
    m.require_at_least([([m.lits(b)[0], m.lits(x)[2] ^ 1], [1, 1], 1)])  # b -> x != 2
    v = solve(m, method=method)
    assert v.assignment == {x: 1, b: 1} and v.objective_value == 1


@pytest.mark.parametrize("method", ["sat", "milp"])
def test_bool_zero_indicator_terms(method):
    # [b == 0] is 1 - b, not b: in the objective ...
    m = Model()
    b = m.bool_var()
    m.minimize([(1, m.lits(b)[0])])
    v = solve(m, method=method)
    assert v.assignment == {b: 1} and v.objective_value == 0
    m.maximize([(2, m.lits(b)[0]), (1, m.lits(b)[1])])
    v = solve(m, method=method)
    assert v.assignment == {b: 0} and v.objective_value == 2
    # ... and in a weighted row: lits(b) is [b == 0, b == 1]
    m = Model()
    b = m.bool_var()
    m.require_at_least([(m.lits(b)[:1], [1], 1)])
    assert solve(m, method=method).assignment == {b: 0}
    m.require_at_least([(m.lits(b)[1:], [3], 2)])
    assert solve(m, method=method).status == sv.UNSAT


def test_unsat_beats_objective():
    m = Model()
    x = m.int_var(0, 1)
    m.require_clauses([[m.lits(x)[0]], [m.lits(x)[1]]])
    m.minimize(value_terms(m, x))
    assert solve(m).status == sv.UNSAT


def _pigeons(n_pigeons: int, n_holes: int) -> Model:
    m = Model()
    ps = [m.lits(m.int_var(0, n_holes - 1)) for _ in range(n_pigeons)]
    m.require_clauses([[ps[i][hole] ^ 1, ps[j][hole] ^ 1]
                       for i, j in itertools.combinations(range(n_pigeons), 2)
                       for hole in range(n_holes)])
    return m


def test_methods_agree_on_pigeonhole():
    assert solve(_pigeons(5, 4), method="sat").status == sv.UNSAT
    assert solve(_pigeons(5, 4), method="milp").status == sv.UNSAT
    assert solve(_pigeons(4, 4), method="sat").status == sv.SAT
    assert solve(_pigeons(4, 4), method="milp").status == sv.SAT


def test_sat_timeout_reported():
    # the sat core checks its deadline between conflict batches; a heavy
    # pigeonhole proof cannot finish within a millisecond
    v = solve(_pigeons(12, 11), deadline=time.monotonic() + 0.001, method="sat")
    assert v.status == sv.TIMEOUT


def _chain_model() -> Model:
    """Four ordered ints and a maximized sum: a few incumbent rounds, each
    with only a handful of conflicts."""
    m = Model()
    xs = [m.int_var(0, 6) for _ in range(4)]
    m.require_orders([(a, b, 1) for a, b in zip(xs, xs[1:])])
    m.maximize([t for x in xs for t in value_terms(m, x)])
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
    assert solve(_chain_model(), deadline=time.monotonic(), method="sat").status == sv.TIMEOUT
    assert calls == [("timeout", 0)]
    # a later round whose deadline has passed stops too
    searcher = _cdcl.Searcher(2)
    searcher.add_rows([[0, 2]])
    assert searcher.search() == "sat"
    assert searcher.search(time.monotonic()) == "timeout"


@pytest.mark.parametrize("build", [
    lambda m, b: m.require_at_least([([0], [1], 0.5)]),  # a bound that int() would floor
    lambda m, b: m.require_at_least([([0], [0.5], 1)]),
    lambda m, b: m.minimize([(1.5, m.lits(b)[1])]),
    lambda m, b: m.maximize([(1, m.lits(b)[1]), (float("nan"), m.lits(b)[0])]),
    lambda m, b: m.require_at_least([([0], [1], "1")]),
    lambda m, b: m.require_at_least([([0.5], [1], 1)]),  # a literal
    lambda m, b: m.require_orders([(b, b, 1.5)]),
    lambda m, b: m.require_orders([(b, b, "1")]),
    lambda m, b: m.int_var(0.5, 2.7),  # int() would make it 0..2
    lambda m, b: m.int_var("0", "3"),
    # a bool is an int to Python, but no integer here
    lambda m, b: m.int_var(True, 3),  # would be 1..3
    lambda m, b: m.require_at_least([([0], [True], 1)]),
    lambda m, b: m.require_at_least([([0], [1], True)]),
    lambda m, b: m.require_orders([(b, b, False)]),
    lambda m, b: m.require_orders([(b, b, 0), (b, b, True)]),  # the last row's
    lambda m, b: m.maximize([(True, m.lits(b)[1])]),
    # a term's literal is no (handle, value) pair
    lambda m, b: m.minimize([(1, m.lits(b)[1]), (1, (b, 1))]),
    lambda m, b: m.minimize([(1, (b, 1, 2))]),
    lambda m, b: m.minimize([(1, (b,))]),
    # a row or a term that is no sequence
    lambda m, b: m.require_orders([(b, b, 0), 5]),
    lambda m, b: m.require_at_least([5]),
    lambda m, b: m.minimize([5]),
], ids=["bound", "coefficient", "minimize", "maximize", "string", "indicator-value",
        "margin", "margin-string", "int-bounds", "int-bounds-string",
        "int-bounds-bool", "coefficient-bool", "bound-bool", "margin-bool",
        "margin-last-row", "term-coefficient-bool", "term-tuple", "term-triple",
        "term-single", "orders-no-row", "sum-no-row", "term-no-pair"])
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
    # integral floats are integers in an objective
    m.require_clauses([[m.lits(b)[1]]])
    m.minimize([(2.0, m.lits(b)[1])])
    v = solve(m)
    assert v.assignment == {b: 1} and v.objective_value == 2

    def twin(margin, coef):
        m = Model()
        x, y = m.int_var(0, 5), m.int_var(0, 5)
        m.require_orders([(x, y, margin)])
        m.require_clauses([[m.lits(y)[4]]])
        m.maximize(value_terms(m, x) + [(coef, m.lits(y)[4])])
        return m

    # ... also as a margin
    assert twin(2.0, 1.0)._compile() == twin(2, 1)._compile()
    v = solve(twin(2.0, 1.0))
    assert v.assignment == {0: 2, 1: 4} and v.objective_value == 3

    def ranged(lo, hi):
        m = Model()
        x = m.int_var(lo, hi)
        m.minimize(value_terms(m, x))
        return m

    # ... and as int bounds
    assert ranged(0.0, 3.0)._compile() == ranged(0, 3)._compile()
    assert ranged(0.0, 3.0)._var(0).domain == range(0, 4)
    assert solve(ranged(1.0, 3.0)).assignment == {0: 1}


@pytest.mark.parametrize("method", ["sat", "milp"])
def test_passed_deadline_times_out(method):
    # HiGHS reads a negative time limit as no limit at all, so the time left
    # is clamped at 0 and a passed deadline ends both engines alike
    for late in (1.0, 0.0):
        assert solve(_chain_model(), deadline=time.monotonic() - late,
                     method=method).status == sv.TIMEOUT


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
        m.require_orders([(a, b, 0) for a, b in zip(xs, xs[1:])])
        m.require_at_least([([m.lits(x)[4] ^ 1 for x in xs], [1] * 5, 3)])  # at most two at 4
        m.maximize([t for x in xs for t in value_terms(m, x)])
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
        m.require_orders([(x, y, margin)])
        m.require_clauses([[m.lits(x)[u - x_dom[0]]]])
        val = _root_searcher(m).lv[0::2]
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
    m.require_orders([(x, y, 1), (z, x, 0), (x, z, 1), (y, x, 0), (x, b, 0)])
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
    m.require_orders([(y, x, 2)])  # x >= 2, 3, 4: x's chain, columns 9..11
    assert m._aux_names == ["ge"] * 3
    z = m.int_var(1, 4)
    assert m._var(z).first_col == 6 + 3 + 3
    m.require_orders([(z, x, 0), (x, z, -1)])  # z >= 3: z's chain, column 16
    assert m._compile()[0] == 6 + 3 + 3 + 4 + 1
    m.minimize(value_terms(m, x) + value_terms(m, z, -1))
    for method in ("sat", "milp"):
        v = solve(m, method=method)
        assert v.objective_value == _brute_force(m)[1] == 0


def test_small_domains_add_no_aux_column():
    m = Model()
    x = m.int_var(0, 2)
    y = m.int_var(4, 6)
    z = m.int_var(3, 3)
    b = m.bool_var()
    m.require_orders([(x, y, 1), (y, x, 0), (z, x, 1), (b, x, 1), (z, y, 0)])
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
        m.require_orders([(a, a, 1)])
        return m

    def same_var_le():
        m, (a,) = case((0, 4))
        m.require_orders([(a, a, 0)])
        return m

    def int_against_bool():
        m, (x, b, c) = case((-1, 3), "bool", "bool")
        m.require_orders([(b, x, 1), (x, c, 0), (b, c, 0)])
        return m

    def bool_strict():
        m, (b, c) = case("bool", "bool")
        m.require_orders([(b, c, 1)])
        return m

    def offset_domains():
        m, (x, y, z) = case((3, 7), (-2, 5), (4, 9))
        m.require_orders([(x, y, 1), (y, z, 0), (x, z, 0)])
        return m

    def single_values():
        m, (s, x, r) = case((4, 4), (0, 6), (6, 6))
        m.require_orders([(s, x, 1), (s, s, 0), (x, r, 0), (s, r, 1)])
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
            pinned.require_clauses([[pinned.lits(h)[value - pinned._var(h).lo]]])
        allowed = not m.check_assignment(dict(zip(handles, values)))
        assert (solve(pinned, method="sat").status == sv.SAT) == allowed, values


# random-model agreement between the two engines

clause_shapes = st.sampled_from(["plain", "plain", "plain", "repeat", "tautology", "empty"])


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
        # "h == v" or "h != v" for a value v of h's domain
        lit = draw(st.sampled_from(m.lits(draw(st.sampled_from(handles)))))
        return lit ^ draw(st.integers(min_value=0, max_value=1))

    def orderings(pool):
        # families of one to three rows; margins past 0 and 1 too, and an
        # ordering of a handle on itself
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            m.require_orders([(draw(st.sampled_from(pool)), draw(st.sampled_from(pool)),
                               draw(st.integers(min_value=-1, max_value=2)))
                              for _ in range(draw(st.integers(min_value=1, max_value=3)))])

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
            lits.append(lits[0] ^ 1)
        elif shape == "empty":
            lits = []  # can never hold
        m.require_clauses([lits])
    def terms_of(h):
        # h's value, or one "h == v" or "h != v" literal
        coef = draw(st.integers(min_value=-2, max_value=3))
        if draw(st.booleans()):
            return value_terms(m, h, coef)
        return [(coef, draw(st.sampled_from(m.lits(h))) ^ draw(st.integers(0, 1)))]

    if draw(st.booleans()):
        # a weighted row over literals of distinct columns
        pool = [lit for h in handles for lit in m.lits(h)]
        lits = [lit ^ draw(st.integers(min_value=0, max_value=1)) for lit in draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique_by=lambda x: x >> 1))]
        coefs = [draw(st.integers(min_value=1, max_value=3)) for _ in lits]
        m.require_at_least([(lits, coefs, draw(st.integers(min_value=-1, max_value=8)))])
    if draw(st.booleans()):
        terms = [t for h in handles for t in terms_of(h)]
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
    """5*b - c + [x == 2] >= 2, stated as 5*[b] + [not c] + [x == 2] >= 3
    and lowered to one PB row whose coefficient 5 is clipped to its bound 3."""
    m = Model()
    x, b, c = m.int_var(0, 3), m.bool_var(), m.bool_var()
    m.require_at_least([([m.lits(b)[1], m.lits(c)[0], m.lits(x)[2]], [5, 1, 1], 3)])
    m.minimize(value_terms(m, x) + [(2, m.lits(b)[1]), (-1, m.lits(c)[1])])
    return m


def test_milp_reads_a_clipped_pb_row_with_a_negated_literal():
    m = _clipped_pb_model()
    row = m._compile()[1][-1]
    assert row == ([2 * 4, 2 * 5 + 1, 2 * 2], [3, 1, 1], 3)
    # the MILP engine reads it over columns: 3*b - c + [x == 2] >= 2
    assert sv._ge_row(row) == ([(3, 4), (-1, 5), (1, 2)], 2)
    assert solve(m, method="milp") == solve(m, method="sat") == \
        Verdict(sv.SAT, {0: 0, 1: 1, 2: 1}, 1)


def _as_written(state):
    """x in 0..4 (an order chain when ordered), a bool b, minimize x - b,
    and the rows state(m, x, lits of x, lits of b) adds."""
    m = Model()
    x, b = m.int_var(0, 4), m.bool_var()
    state(m, x, m.lits(x), m.lits(b))
    m.minimize(value_terms(m, x) + [(-1, m.lits(b)[1])])
    return m


@settings(max_examples=60, deadline=None)
@given(models())
@example(_clipped_pb_model())
# rows no family of the package states, loaded as written
@example(_as_written(lambda m, x, lx, lb: m.require_clauses([[lx[2], lx[2]]])))
@example(_as_written(lambda m, x, lx, lb: m.require_clauses([[lx[0], lx[0] ^ 1]])))
@example(_as_written(  # x == 0 is false at the root, and repeated
    lambda m, x, lx, lb: m.require_clauses([[lx[0] ^ 1], [lx[0], lb[0], lx[0]]])))
@example(_as_written(lambda m, x, lx, lb: m.require_orders([(x, x, 0)])))
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


def _with_search_calls(run):
    """run()'s result and the number of Searcher.search calls it made."""
    calls = []
    search = _cdcl.Searcher.search
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_cdcl.Searcher, "search",
                   lambda self, deadline=None: calls.append(None) or search(self, deadline))
        result = run()
    return result, len(calls)


@settings(max_examples=60, deadline=None)
@given(models(), st.integers(min_value=0, max_value=3))
@example(_clipped_pb_model(), 0)
def test_a_proven_bound_keeps_the_verdict(m, slack):
    """A bound no assignment beats, at the optimum or `slack` short of it,
    leaves the verdict as it is. At the optimum it spares the final search,
    the one that proves the tightened model unsatisfiable; the objective's
    constant part and a maximization count as for the value."""
    plain, searches = _with_search_calls(lambda: solve(m))
    if plain.status != sv.SAT or plain.objective_value is None:
        return
    sign = 1 if m._objective[0] == "min" else -1
    bound = plain.objective_value - sign * slack
    bounded, bounded_searches = _with_search_calls(lambda: solve(m, bound=bound))
    assert bounded == plain
    if slack == 0 and m._compile()[2]:
        assert bounded_searches == searches - 1
