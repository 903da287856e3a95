"""CDCL search core: every search decision matches a frozen reference copy."""

import copy
import itertools
import math
import random

from hypothesis import given, settings, strategies as st

import _cdcl_reference as reference
from qlayout import _cdcl
from qlayout import solver as sv
from qlayout.solver import Model, _core_rows


def _state(searcher, status):
    """What one search() call decided: its status, the counters the tracer
    reads, the clause store (original rows in watch order, learned clauses,
    deleted slots) and the model."""
    model = searcher.model() if status == "sat" else None
    return (status, searcher.conflicts, searcher.decisions,
            searcher.propagations, len(searcher.clauses), searcher.clauses,
            model)


def _both(nvars):
    return _cdcl.Searcher(nvars), reference.Searcher(nvars)


def _ge_rows(coeffs, lb, ub):
    """The >=-rows of lb <= sum coef*x <= ub, split as the reference's
    add_linear splits them: the upper bound's negated row first."""
    items = [(int(cf), col) for col, cf in coeffs.items() if cf]
    rows = []
    if ub != math.inf:
        rows.append(([(-cf, col) for cf, col in items], -int(ub)))
    if lb != -math.inf:
        rows.append((items, int(lb)))
    return rows


def _load(pair, rows):
    """Clause rows go to both searchers; a linear row (coeffs, lb, ub) goes
    to the searcher as the core rows of its >=-rows, as a Model states
    them, and to the reference's add_linear."""
    searcher, ref = pair
    for row in rows:
        if isinstance(row, list):
            searcher.add_rows([row])
            ref.add_clause(row)
        else:
            searcher.add_rows([r for terms, b in _ge_rows(*row) for r in _core_rows(terms, b)])
            ref.add_linear(*row)


def _search_both(pair):
    states = [_state(s, s.search()) for s in pair]
    assert states[0] == states[1]
    return states[0]


# -- random inputs -----------------------------------------------------------


@st.composite
def _columns(draw, nvars):
    # mostly three columns: random 3-SAT-like rows near the satisfiability
    # threshold need real search, with conflicts, learning and restarts
    size = min(nvars, draw(st.sampled_from((1,) + (2,) * 2 + (3,) * 6 + (4, 4, 6))))
    return draw(st.lists(st.integers(0, nvars - 1), min_size=size,
                         max_size=size, unique=True))


@st.composite
def _clause(draw, nvars):
    return [2 * col + draw(st.integers(0, 1)) for col in draw(_columns(nvars))]


@st.composite
def _linear(draw, nvars, kinds=("one", "all_but_one", "pb", "pb")):
    """(coeffs, lb, ub) of one of the row kinds `_core_rows` lowers
    differently: a disjunction (b == 1), "all but one" (pairwise
    clauses), a counting row with mixed coefficients, or a row no
    assignment meets ("infeasible")."""
    cols = draw(_columns(nvars))
    kind = draw(st.sampled_from(kinds))
    upper = draw(st.booleans())  # state the row as an upper bound instead
    if kind in ("one", "all_but_one"):
        signs = [draw(st.sampled_from((-1, 1))) for _ in cols]
        b = 1 if kind == "one" else len(cols) - 1
        if upper:  # sum(-s x) >= b - #pos, i.e. sum(s x) <= #pos - b
            coeffs = {c: float(-s) for c, s in zip(cols, signs)}
            return coeffs, -math.inf, float(signs.count(-1) - b)
        return ({c: float(s) for c, s in zip(cols, signs)}, float(b - signs.count(-1)),
                math.inf)
    coefs = [draw(st.integers(-4, 4).filter(bool)) for _ in cols]
    coeffs = {c: float(cf) for c, cf in zip(cols, coefs)}
    low = sum(cf for cf in coefs if cf < 0)
    high = sum(cf for cf in coefs if cf > 0)
    if kind == "infeasible":
        return (coeffs, -math.inf, float(low - 1)) if upper else (coeffs, float(high + 1), math.inf)
    if upper:
        return coeffs, -math.inf, float(draw(st.integers(low, high)))
    lb = draw(st.integers(low, high))
    ub = draw(st.one_of(st.just(math.inf), st.integers(lb, high + 1).map(float)))
    return coeffs, float(lb), ub


@st.composite
def _problems(draw):
    nvars = draw(st.integers(1, 16))
    # about four rows per column: near the threshold, where search is hard
    nrows = draw(st.integers(0, 5 * nvars))
    rows = draw(st.lists(st.one_of(_clause(nvars), _clause(nvars), _clause(nvars),
                                   _linear(nvars)),
                         min_size=nrows, max_size=nrows))
    if draw(st.integers(0, 9)) == 0:
        rows.insert(draw(st.integers(0, nrows)), draw(_linear(nvars, ("infeasible",))))
    boosts = draw(st.lists(st.tuples(
        st.integers(0, nvars - 1),
        st.sampled_from((0.0, 0.5, 1.0, 1.001, 2.5)),
        st.sampled_from((None, 0, 1))), max_size=6))
    tighten = draw(st.lists(_linear(nvars), max_size=4))
    return nvars, rows, boosts, tighten


@settings(max_examples=150, deadline=None)
@given(_problems())
def test_search_matches_reference(problem):
    nvars, rows, boosts, tighten = problem
    pair = _both(nvars)
    _load(pair, rows)
    for s in pair:
        for var, amount, phase in boosts:
            s.boost(var, amount, phase)
    _search_both(pair)
    # a second round of rows between two searches, as incumbent tightening does
    _load(pair, tighten)
    _search_both(pair)


def _random_rows(rng, nvars):
    """Random 3-SAT-like clauses near the satisfiability threshold, mixed
    with linear rows of every kind: instances that take real search."""
    def cols(size):
        return rng.sample(range(nvars), min(size, nvars))

    rows = []
    for _ in range(round(nvars * rng.uniform(3.6, 4.4))):
        rows.append([2 * c + rng.randrange(2) for c in cols(rng.choice((3, 3, 3, 4)))])
    for _ in range(rng.randrange(nvars // 8 + 1)):
        picked = cols(rng.randrange(2, 6))
        coefs = [rng.choice((-3, -2, -1, 1, 1, 2, 3, 4)) for _ in picked]
        kind = rng.randrange(3)
        if kind == 0:  # at most one
            rows.append(({c: 1.0 for c in picked}, -math.inf, 1.0))
        elif kind == 1:  # at least one, over mixed signs
            rows.append(({c: float(cf // abs(cf)) for c, cf in zip(picked, coefs)},
                         1.0 - sum(cf < 0 for cf in coefs), math.inf))
        else:  # a bound at or a little below the middle of its range
            rows.append(({c: float(cf) for c, cf in zip(picked, coefs)},
                         float(round(sum(coefs) / 2 - rng.uniform(0, 2))), math.inf))
    return rows


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hard_search_matches_reference(seed):
    rng = random.Random(seed)  # a failing seed replays from the report
    nvars = rng.randrange(20, 100)
    pair = _both(nvars)
    _load(pair, _random_rows(rng, nvars))
    objective = {c: float(rng.randrange(1, 4)) for c in rng.sample(range(nvars), nvars // 3)}
    # in half the examples every search rescales activities after ~45
    # conflicts, which rebuilds the decision heap with columns assigned
    act_inc = 1e99 if rng.randrange(2) else None
    for s in pair:
        for col, cf in objective.items():
            s.boost(col, 1.0 + cf * 1e-3, phase=0)
    while True:
        if act_inc:
            for s in pair:
                s.act_inc = act_inc
        status, *_, model = _search_both(pair)
        if status != "sat" or not objective:
            break
        # tighten the incumbent until unsatisfiable, as the SAT engine does
        value = sum(cf * model[c] for c, cf in objective.items())
        _load(pair, [(objective, -math.inf, value - 1)])


# -- the Model's normalizer against the reference's and brute force -----------


@st.composite
def _ge_row_cases(draw):
    """(ncols, terms, b) of a >=-row over at most six columns, some with a
    zero coefficient: any bound from always-holds to infeasible, or a
    disjunction, an "all but one" row or a row whose coefficients clip."""
    ncols = draw(st.integers(1, 6))
    cols = draw(st.lists(st.integers(0, ncols - 1), max_size=ncols, unique=True))
    kind = draw(st.sampled_from(("any", "one", "all_but_one", "clip")))
    size = {"any": st.integers(-5, 5), "one": st.integers(-3, 3),
            "all_but_one": st.sampled_from((-1, 1)), "clip": st.integers(-6, 6)}[kind]
    terms = [(draw(size), col) for col in cols]
    low = sum(cf for cf, _ in terms if cf < 0)
    high = sum(cf for cf, _ in terms if cf > 0)
    # b - low is the bound once negative terms sit on negative literals
    b = {"any": draw(st.integers(low - 2, high + 2)), "one": low + 1,
         "all_but_one": low + len(terms) - 1, "clip": low + draw(st.integers(1, 3))}[kind]
    return ncols, terms, b


def _holds(lit, point):
    return point[lit >> 1] != lit & 1


@settings(max_examples=400, deadline=None)
@given(_ge_row_cases())
def test_core_rows_match_reference_and_brute_force(case):
    ncols, terms, b = case
    rows = _core_rows(terms, b)
    ref = reference.Searcher(ncols)
    ref._add_ge(terms, b)
    clauses = [r for r in rows if r.__class__ is list]
    pb = [r for r in rows if r.__class__ is tuple]
    attached = [r for r in pb if sum(r[1]) >= r[2]]
    assert len(clauses) + len(pb) == len(rows) and len(pb) <= 1
    # the reference stores the same clauses and attaches the same PB row, or
    # flags a row that can never hold
    assert clauses == ref.clauses
    assert attached == list(zip(ref.pb_lits, ref.pb_coefs, ref.pb_b))
    assert (pb != attached) == ref.hard_unsat
    if pb != attached:  # unclipped: every coefficient's size, as stated
        assert rows == pb and pb[0][1] == [abs(cf) for cf, _ in terms if cf]
    assert all(0 < cf <= bound for _, coefs, bound in attached for cf in coefs)
    # the rows accept exactly the 0/1 points where the row holds
    for point in itertools.product((0, 1), repeat=ncols):
        holds = sum(cf * point[col] for cf, col in terms) >= b
        accepted = all(any(_holds(lit, point) for lit in row) for row in clauses) and all(
            sum(cf for lit, cf in zip(lits, coefs) if _holds(lit, point)) >= bound
            for lits, coefs, bound in pb)
        assert accepted == holds, point


# -- compiled models: the bulk loader against row-by-row loading ---------------


@st.composite
def _models(draw):
    """A Model with bools and ints of 1, 2, 3 and more values; clauses with
    constant, repeated and complementary literals; orderings; sums; an
    objective; and one unit clause among the other constraints, so that
    the rows after it can carry literals false at the root."""
    m = Model()
    handles = []
    for _ in range(draw(st.integers(2, 6))):
        size = draw(st.sampled_from((0, 1, 2, 3, 4, 6)))  # 0: a bool
        lo = draw(st.integers(-2, 2))
        handles.append(m.bool_var() if size == 0 else m.int_var(lo, lo + size - 1))

    def value(h):
        var = m._var(h)
        return draw(st.integers(var.lo, var.hi))

    lit = st.tuples(st.sampled_from(handles), st.integers(-3, 6), st.booleans())
    count = draw(st.integers(0, 12))
    unit_at = draw(st.integers(0, count))
    for i in range(count + 1):
        if i == unit_at:
            h = draw(st.sampled_from(handles))
            m.require_clause([(h, value(h), True)])
        if i == count:
            break
        kind = draw(st.sampled_from(("clause", "clause", "order", "sum")))
        if kind == "clause":
            lits = draw(st.lists(lit, max_size=5))
            if lits and draw(st.booleans()):
                lits += draw(st.lists(st.sampled_from(lits), max_size=2))  # repeats
            if lits and draw(st.integers(0, 3)) == 0:
                h, v, positive = draw(st.sampled_from(lits))
                lits.append((h, v, not positive))  # a complementary pair
            m.require_clause(draw(st.permutations(lits)))
        elif kind == "order":
            m.require_order(draw(st.sampled_from(handles)), draw(st.sampled_from(handles)),
                            draw(st.integers(-1, 2)))
        else:
            picked = draw(st.lists(st.sampled_from(handles), min_size=1, max_size=4))
            terms = [(draw(st.integers(-3, 3)), draw(st.sampled_from((h, (h, value(h))))))
                     for h in picked]
            m.require_sum(terms, draw(st.sampled_from(("<=", ">=", "=="))),
                          draw(st.integers(-4, 8)))
    if draw(st.booleans()):
        terms = [(draw(st.integers(-3, 3)), h) for h in handles]
        if draw(st.booleans()):
            m.minimize(terms)
        else:
            m.maximize(terms)
    return m


def _linear_of(terms, b):
    """The reference's add_linear arguments for the >=-row (terms, b)."""
    return {col: cf for cf, col in terms}, b, math.inf


@settings(max_examples=150, deadline=None)
@given(_models())
def test_bulk_loaded_model_matches_row_by_row_reference(m):
    # the sat engine's load, boost and incumbent-tightening sequence, with
    # the rows loaded at once through add_rows and one at a time into the
    # reference: a PB row through add_linear, as its >=-row over columns
    ncols, rows, objective = m._compile()
    rows_before = copy.deepcopy(rows)
    searcher, ref = pair = _both(ncols)
    searcher.add_rows(rows)
    for row in rows:
        if row.__class__ is list:
            ref.add_clause(row)
        else:
            ref.add_linear(*_linear_of(*sv._ge_row(row)))
    assert searcher.clauses == ref.clauses
    assert searcher._pending_cl == ref._pending_cl
    assert searcher.hard_unsat == ref.hard_unsat
    for s in pair:
        for rank, (coef, col) in enumerate(objective):
            s.boost(col, amount=1.0 + (len(objective) - rank) * 1e-3,
                    phase=1 if coef < 0 else 0)
    while True:
        status, *_, model = _search_both(pair)
        assert (searcher.pb_lits, searcher.pb_b) == (ref.pb_lits, ref.pb_b)
        if status != "sat" or not objective:
            break
        value = sum(coef * model[col] for coef, col in objective)
        row = ([(-coef, col) for coef, col in objective], 1 - value)
        searcher.add_rows(_core_rows(*row))
        ref.add_linear(*_linear_of(*row))
    # the searcher reordered its own copies, never the model's rows
    assert m._compile()[1] == rows_before


# -- fixed cases ---------------------------------------------------------------


def _pigeonhole(pair, pigeons, holes):
    def var(i, h):
        return i * holes + h

    rows = [[2 * var(i, h) for h in range(holes)] for i in range(pigeons)]
    for h in range(holes):
        for i in range(pigeons):
            for j in range(i + 1, pigeons):
                rows.append([2 * var(i, h) + 1, 2 * var(j, h) + 1])
    _load(pair, rows)


def test_pigeonhole_matches_reference_through_db_reduction():
    pair = _both(8 * 7)
    _pigeonhole(pair, 8, 7)
    status, conflicts, *_, clauses, _ = _search_both(pair)
    assert (status, conflicts) == ("unsat", 4150)
    assert None in clauses  # _reduce_db deleted learned clauses


def test_activity_rescale_matches_reference():
    pair = _both(6 * 5)
    _pigeonhole(pair, 6, 5)
    for s in pair:
        s.boost(3, 2.0, 1)
        s.boost(17, 1.5, 0)
        s.act_inc = 1e99  # rescaled, and the heap rebuilt, within ~50 conflicts
    status, conflicts, *_ = _search_both(pair)
    assert status == "unsat" and conflicts > 50
    assert all(s.act_inc < 1e99 for s in pair)
