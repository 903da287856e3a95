"""Exact-optimization seam: declarative models over a 0/1 search core.

The rest of the package describes models declaratively: bounded integer
variables, booleans, three kinds of constraint (families of clauses, of
weighted rows over literals and of orderings between two variables) and
one optional linear objective over literals. Every domain bound,
coefficient, row bound and margin is an integer, and no bool: `int_var`,
`require_orders`, `require_at_least`, `minimize` and `maximize` raise
ModelError on any other. This module lowers that description, family by
family at its call, to the search core's two kinds of row over 0/1
columns:

  * clause rows: literal lists in the search core's convention (2*c
    asserts column c is 1, 2*c+1 asserts it is 0). `Model.lits(handle)`
    lists the literal of "handle == v" for each value v of its domain, and
    "handle != v" is that literal ^ 1; a clause family is written from
    those lists and handed over whole to `require_clauses`, which checks its
    literals once and keeps its rows as written: no family states a repeat
    or a complementary pair, and both engines are sound on one (see
    `_cdcl.Searcher.add_rows`; HiGHS sums duplicate entries). An ordering
    "a + margin <= b" becomes clause rows too, at its call, over an order
    encoding ("x >= v" literals on aux columns, see `Model._ge`). An int is
    a one-hot group of binary columns, so "x == v" is one column; its
    exactly-one is its pairwise "not both" clauses, then "at least one";
  * pseudo-Boolean (PB) rows (lits, coefs, b): sum(coef * lit) >= b with
    positive coefficients no larger than b. A weighted row is stated in
    that form over the same literals, a family per `require_at_least` call,
    and lowered at once (`_at_least_rows`): an at-most-one over literals is
    its complements' "all but one" row, which lowers to "not both" pairs.

Columns are numbered in the order they are made: a variable's as it is
created, an order chain's aux columns as the first ordering needs them.

The objective, (coef, lit) terms over the same literals, becomes a sparse
list of integer (coef, col) terms to minimize (a complement 2*c+1 counts
as 1 - column c), negated for maximization, also at the call.

The conflict-driven search core solves the rows (strong on tight
feasibility questions, proves optima by tightening the incumbent until
unsatisfiable). scipy's MILP interface (HiGHS), run with a zero MIP gap,
stays as an independent cross-check engine for tests and reference optima
(`method="milp"`): it reads each row back as a linear row (`_ge_row`), and
numpy and scipy are imported only when it runs. Either way reported optima
are exact, which the synthesis layers rely on; every satisfying assignment
is replayed against the declarative model before it is returned: each
clause and weighted row on the assignment's column image, each ordering on
the values. A backend anomaly raises SolverBackendError and is never reported
"unsatisfiable".
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, combinations, compress, groupby
from operator import length_hint  # a row with no length reads as 0 items

from . import _cdcl

SAT = "satisfiable"
UNSAT = "unsatisfiable"
TIMEOUT = "timeout"


class ModelError(ValueError):
    """Malformed model construction (bad handle, empty domain, ...)."""


class SolverBackendError(RuntimeError):
    """The backend failed in a way distinct from unsatisfiability."""


@dataclass
class _Var:
    handle: int
    lo: int
    hi: int
    is_bool: bool
    name: str
    first_col: int

    @property
    def domain(self):
        return range(self.lo, self.hi + 1)


_INT = frozenset({int})
_LIST = frozenset({list})
_NOT = bytes([1, 0]) + bytes(254)  # bytes.translate table: 0 <-> 1


def _at_least_rows(rows) -> list:
    """The core's rows for weighted rows (lits, coefs, b), in order: each
    says the coefficients of its literals that hold sum to at least b, over
    distinct columns and with positive coefficients. A row states none if
    it always holds (b <= 0), itself if it never can, and otherwise, its
    coefficients clipped to b, a clause (b == 1), the pairwise clauses of an
    "all but one" row, or one PB row (lits, coefs, b)."""
    out = []
    for lits, coefs, b in rows:
        if b <= 0:
            continue
        if b == 1 and lits:
            out.append(lits)
        elif b == len(lits) - 1 and coefs.count(1) == len(coefs):
            # "all but one": equivalent to pairwise disjunctions, which give
            # conflict analysis short reasons where a counting row would not
            out += map(list, combinations(lits, 2))
        else:
            # a coefficient above b is clipped; one that never can hold has
            # every coefficient below b, so it keeps them as they are
            if max(coefs, default=0) > b:
                coefs = [cf if cf < b else b for cf in coefs]
            out.append((lits, coefs, b))
    return out


def _core_rows(terms, b) -> list:
    """The core's rows for sum(coef * column) >= b over integer (coef, col)
    terms, columns distinct: the weighted row over literals it normalizes
    to, lowered by `_at_least_rows`."""
    lits, coefs = [], []
    for cf, col in terms:
        if cf > 0:
            lits.append(2 * col)
            coefs.append(cf)
        elif cf < 0:
            lits.append(2 * col + 1)
            coefs.append(-cf)
            b += -cf
    return _at_least_rows([(lits, coefs, b)])


def _listed(items, what: str) -> list:
    """items as a list, itself if it is one; ModelError unless it is
    iterable."""
    if items.__class__ is list:
        return items
    try:
        return [*items]
    except TypeError:
        raise ModelError(f"{what} {items!r} is not iterable") from None


def _integer(x, what: str) -> int:
    """x as an int; ModelError unless x is integral and no bool."""
    if x.__class__ is int:
        return x
    try:
        if x.__class__ is not bool and x == int(x):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ModelError(f"non-integral {what} {x!r}")


@dataclass
class Verdict:
    status: str
    assignment: dict | None = None
    objective_value: int | None = None


class Model:
    """Declarative model: variables, clauses, weighted rows and orderings,
    one objective.

    Each call builds its rows at once and logs what it states for replay;
    `_compile` only puts the row lists together, so a solve always sees the
    model as it stands. Every statement is a family per call over the
    literals of `lits`: clauses (`require_clauses`), weighted rows
    (`require_at_least`) and objective terms; orderings (`require_orders`)
    are over handles.
    """

    def __init__(self) -> None:
        self._vars: list[_Var] = []
        self._ncols = 0  # columns made so far: variables' and order chains'
        # in order: a clause as the literal list it was stated with and an
        # ordering as its (a, b, margin) tuple, kept for replay
        self._assertions: list = []
        self._onehot_rows: list[list[int]] = []  # the ints' exactly-one clauses, in order
        self._rows: list[list[int]] = []  # clause, ordering and chain rows, in order
        self._sums: list[tuple[list, list, int]] = []  # weighted rows, for replay
        self._sum_rows: list = []  # the weighted rows' clause and PB rows, in order
        # (sense, its (coef, lit) terms, its (coef, col) terms to minimize,
        # the constant part of its value) or None
        self._objective: tuple[str, list, list, int] | None = None
        self._chains: dict[int, list] = {}  # int handle -> its "x >= v" literals
        self._aux_names: list[str] = []
        self._aux_lits: set[int] = set()  # both literals of every aux column
        self._compiled = None  # what _compile last returned

    # -- variable registration ------------------------------------------------

    def int_var(self, lo: int, hi: int, name: str = "") -> int:
        lo, hi = _integer(lo, "lower bound"), _integer(hi, "upper bound")
        if hi < lo:
            raise ModelError(f"empty domain [{lo}, {hi}] for {name or 'int var'}")
        return self._new_var(lo, hi, False, name or f"x{len(self._vars)}")

    def bool_var(self, name: str = "") -> int:
        return self._new_var(0, 1, True, name or f"b{len(self._vars)}")

    def _new_var(self, lo: int, hi: int, is_bool: bool, name: str) -> int:
        c = self._ncols
        v = _Var(len(self._vars), lo, hi, is_bool, name, c)
        self._ncols += 1 if is_bool else hi - lo + 1
        if not is_bool:
            # the one-hot group's exactly-one: no two of its columns, then one
            rows = self._onehot_rows
            rows += map(list, combinations(range(2 * c + 1, 2 * self._ncols, 2), 2))
            rows.append(list(range(2 * c, 2 * self._ncols, 2)))
        self._vars.append(v)
        return v.handle

    def _var(self, handle) -> _Var:
        # a bool is an int to Python, but no handle
        if handle.__class__ is not int or not (0 <= handle < len(self._vars)):
            raise ModelError(f"unknown variable handle {handle!r}")
        return self._vars[handle]

    def lits(self, handle) -> list[int]:
        """The literal of "handle == v" for each value v of its domain, low
        end first: [== 0, == 1] for a bool. "handle != v" is the literal ^ 1.

        It reads the layout `_extract` reads back: a bool's column holds its
        value, an int's column first_col + v - lo is set when it is v.
        """
        v = self._var(handle)
        c = v.first_col
        if v.is_bool:
            return [2 * c + 1, 2 * c]
        return list(range(2 * c, 2 * (c + v.hi - v.lo) + 1, 2))

    # -- constraint registration ----------------------------------------------

    def require_clauses(self, rows) -> None:
        """Require of each row that at least one of its literals holds.

        Each row lists literals from `lits` or their complements (lit ^ 1).
        The whole family is checked first: a family or a row that is not
        iterable, or a literal that is no int (a bool neither), is negative,
        is past the last column or is on an order chain's aux column raises
        ModelError, and nothing is kept. Each row is then logged for replay
        and becomes a clause row, both as given (a row that is no list as
        the list of its literals) and in order. An empty row can never
        hold; a row with a repeat or a complementary pair is kept as it is
        (see the module docstring).
        """
        rows = _listed(rows, "clause family")
        if not _LIST.issuperset(map(type, rows)):
            rows = [_listed(row, "clause row") for row in rows]
        self._check_literals(rows, "clause")
        self._assertions += rows
        self._rows += rows

    def _check_literals(self, rows, what: str) -> None:
        """ModelError naming the first literal, in row order, that is no
        int (a bool neither), is negative, is past the last column or is on
        an order chain's aux column."""
        flat = [*chain.from_iterable(rows)]
        aux = self._aux_lits
        if flat and not (_INT.issuperset(map(type, flat)) and min(flat) >= 0
                         and max(flat) < 2 * self._ncols
                         and (not aux or aux.isdisjoint(flat))):
            bad = next(lit for lit in flat if lit.__class__ is not int
                       or not 0 <= lit < 2 * self._ncols or lit in aux)
            raise ModelError(f"{what} literal {bad!r} is no literal of a variable column")

    def require_at_least(self, rows) -> None:
        """Require of each row (lits, coefs, b) that the coefficients of its
        literals that hold sum to at least b.

        A row lists distinct literals from `lits` or their complements, as a
        clause does, each with a positive int coefficient, and an int b. The
        whole family is checked first: a family, lits or coefs that are not
        iterable, a bad literal (see `require_clauses`), a coefficient that
        is no int (a bool neither) or not positive, a b that is no int, or
        lits and coefs of unequal length raise ModelError, and nothing is
        kept. Each row is then logged for replay
        and lowered by `_at_least_rows`, in order.
        """
        rows = _listed(rows, "weighted-row family")
        if rows and set(map(length_hint, rows)) != {3}:
            raise ModelError("a weighted row is (lits, coefs, b)")
        lits, coefs, bounds = zip(*rows) if rows else ((), (), ())
        if not (_LIST.issuperset(map(type, lits)) and _LIST.issuperset(map(type, coefs))):
            rows = [(_listed(row[0], "weighted-row literals"),
                     _listed(row[1], "weighted-row coefficients"), row[2]) for row in rows]
            lits, coefs, bounds = zip(*rows)
        self._check_literals(lits, "weighted row")
        weights = [*chain.from_iterable(coefs)]
        if weights and not (_INT.issuperset(map(type, weights)) and min(weights) > 0):
            bad = next(cf for cf in weights if cf.__class__ is not int or cf <= 0)
            raise ModelError(f"coefficient {bad!r} is no positive int")
        if not _INT.issuperset(map(type, bounds)):
            bad = next(b for b in bounds if b.__class__ is not int)
            raise ModelError(f"non-integral bound {bad!r}")
        if [*map(len, lits)] != [*map(len, coefs)]:
            raise ModelError("a weighted row has as many coefficients as literals")
        self._sums += rows
        self._sum_rows += _at_least_rows(rows)

    def require_orders(self, rows) -> None:
        """Require of each row (a, b, margin) that a + margin <= b, over two
        variable handles and an integer margin.

        The whole family is checked first: a family that is not iterable, a
        row that is no (a, b, margin), a handle that is no variable's (a
        bool neither) or a margin that is not integral (a bool neither)
        raises ModelError, and nothing is kept. Each row is then logged for replay as an (a, b, margin) tuple
        and lowered, in order: for each value v of a, the clause
        [not a >= v, b >= v + margin] over the order encoding (`_ge`), so a
        value fixed on one side bounds the other by unit propagation alone.
        A True "b >= v + margin" states no row; a False one, or a True
        "a >= v", drops its literal, so a row may be empty.
        """
        rows = _listed(rows, "ordering family")
        if rows and set(map(length_hint, rows)) != {3}:
            raise ModelError("an ordering is (a, b, margin)")
        orders = [(self._var(a), self._var(b), _integer(margin, "margin"))
                  for a, b, margin in rows]
        self._assertions += [(va.handle, vb.handle, margin) for va, vb, margin in orders]
        out, ge = self._rows, self._ge
        for va, vb, margin in orders:
            for v in va.domain:
                head = ge(va, v)  # never False: v is in a's domain
                tail = ge(vb, v + margin)
                if tail is True:
                    continue
                row = [] if head is True else [head ^ 1]
                if tail is not False:
                    row.append(tail)
                out.append(row)

    def _ge(self, var: _Var, v: int):
        """Literal for "var >= v" in the order encoding of Tamura et al.

        A constant for v <= lo or v > hi, a bool's own column, "var != lo"
        at v = lo + 1 and "var == hi" at v = hi. An int of four or more
        values gets, the first time an ordering needs an inner value, one
        aux column per inner value (the next free columns) and the chain
        clauses ge(v+1) -> ge(v), var = v -> ge(v), var = v -> not ge(v+1)
        and ge(v) and not ge(v+1) -> var = v, appended just before that
        ordering's rows; later orderings share the chain.
        """
        if v <= var.lo:
            return True
        if v > var.hi:
            return False
        col = var.first_col
        if var.is_bool:
            return 2 * col
        if v == var.lo + 1:
            return 2 * col + 1  # var != lo
        if v == var.hi:
            return 2 * (col + v - var.lo)  # var == hi
        chain = self._chains.get(var.handle)
        if chain is None:
            # chain[i] stands for "var >= lo + i", i in 1..n-1
            n = var.hi - var.lo + 1
            aux = self._ncols
            self._ncols += n - 3
            self._aux_names += ["ge"] * (n - 3)
            self._aux_lits.update(range(2 * aux, 2 * (aux + n - 3)))
            chain = self._chains[var.handle] = (
                [None, 2 * col + 1] + [2 * c for c in range(aux, aux + n - 3)]
                + [2 * (col + n - 1)])
            rows = self._rows
            for i in range(1, n - 1):
                eq = 2 * (col + i)
                rows.append([chain[i + 1] ^ 1, chain[i]])  # ge(i+1) -> ge(i)
                if i >= 2:
                    rows.append([eq ^ 1, chain[i]])  # x = i -> ge(i)
                if i <= n - 3:
                    rows.append([eq ^ 1, chain[i + 1] ^ 1])  # x = i -> not ge(i+1)
                rows.append([chain[i] ^ 1, chain[i + 1], eq])  # ge(i), not ge(i+1) -> x = i
        return chain[v - var.lo]

    def minimize(self, terms) -> None:
        """Minimize over (coef, lit) terms; see `maximize`."""
        self._set_objective("min", terms)

    def maximize(self, terms) -> None:
        """Maximize the sum of the coefficients of the terms' literals that
        hold. A term (coef, lit) has an integral coefficient (no bool) and a
        literal checked as in `require_clauses`; terms that are not iterable
        or a bad term raise ModelError and keep the objective as it was."""
        self._set_objective("max", terms)

    def _set_objective(self, sense, terms) -> None:
        terms = _listed(terms, "objective")
        if terms and set(map(length_hint, terms)) != {2}:
            raise ModelError("an objective term is (coef, lit)")
        terms = [(_integer(coef, "coefficient"), lit) for coef, lit in terms]
        self._check_literals([[lit for _, lit in terms]], "objective")
        # a complement 2c+1 weighs coef * (1 - column c): coef goes to the constant
        coeffs: dict[int, int] = {}
        const = 0
        for coef, lit in terms:
            if lit & 1:
                coef, const = -coef, const + coef
            coeffs[lit >> 1] = coeffs.get(lit >> 1, 0) + coef
        sign = 1 if sense == "min" else -1
        objective = [(sign * coef, col) for col, coef in sorted(coeffs.items()) if coef]
        self._objective = (sense, terms, objective, const)

    # -- replay on concrete values (tests and every returned assignment) -------

    def _holding(self, assignment: dict) -> set[int]:
        """The literals that hold on the assignment's column image: each
        int's value column is set and each bool's column holds its value,
        as `_extract` reads them. An aux column reads 0; no clause,
        weighted row or objective term names one."""
        cols = bytearray(self._ncols)
        for v in self._vars:
            value = assignment[v.handle]
            if v.is_bool:
                cols[v.first_col] = value == 1
            elif v.lo <= value <= v.hi:
                cols[v.first_col + value - v.lo] = 1
        image = bytearray(2 * self._ncols)
        image[::2] = cols
        image[1::2] = cols.translate(_NOT)
        return set(compress(range(2 * self._ncols), image))

    def _named(self, row) -> tuple:
        """A clause row as its (handle, value, positive) literals."""
        starts = [v.first_col for v in self._vars]
        named = []
        for lit in row:
            v = self._vars[bisect_right(starts, lit >> 1) - 1]
            table = self.lits(v.handle)
            positive = lit in table
            named.append((v.handle, v.lo + table.index(lit if positive else lit ^ 1), positive))
        return tuple(named)

    def check_assignment(self, assignment: dict) -> list[str]:
        """Replay every assertion on concrete values; returns violations.

        A clause or a weighted row is checked on the assignment's column
        image (`_holding`) and named by its (handle, value, positive)
        literals; an ordering on the values.
        """
        return self._violations(assignment, self._holding(assignment))

    def _violations(self, assignment: dict, holding: set[int]) -> list[str]:
        """check_assignment's replay on the assignment and its column
        image `holding` (`_holding`)."""
        bad = []
        at = 0  # index of the run's first assertion
        for kind, run in groupby(self._assertions, type):
            run = list(run)
            if kind is list:
                # a run of clause rows is named only if one of them fails
                if any(map(holding.isdisjoint, run)):
                    bad += [f"assertion {i}: Clause{self._named(f)!r}"
                            for i, f in enumerate(run, at) if holding.isdisjoint(f)]
            else:
                bad += [f"assertion {i}: Order(x{a} + {m} <= x{b})" for i, (a, b, m)
                        in enumerate(run, at) if assignment[a] + m > assignment[b]]
            at += len(run)
        for i, (lits, coefs, b) in enumerate(self._sums):
            total = sum(compress(coefs, map(holding.__contains__, lits)))
            if total < b:
                bad.append(f"sum {i}: AtLeast{self._named(lits)!r} weighs {total} < {b}")
        return bad

    def objective_of(self, assignment: dict) -> int | None:
        return self._value_on(self._holding(assignment))

    def _value_on(self, holding: set[int]) -> int | None:
        """The objective's value on a column image (`_holding`), or None
        with no objective."""
        if self._objective is None:
            return None
        return sum(coef for coef, lit in self._objective[1] if lit in holding)

    # -- the compiled form ------------------------------------------------------

    def _compile(self):
        """The model as (ncols, rows, objective), also kept in `_compiled`
        for the benchmark's tracer to read: the core's rows, the ints'
        exactly-one clauses first, then the clause, ordering and order chain
        rows in call order, then the weighted rows' rows; the objective's
        (coef, col) terms in column order, negated for maximization. Every row and the
        objective were built at their calls.
        """
        objective = self._objective[2] if self._objective is not None else []
        self._compiled = (self._ncols, self._onehot_rows + self._rows + self._sum_rows,
                          objective)
        return self._compiled


def solve(model: Model, deadline: float | None = None,
          method: str = "sat", bound: int | None = None) -> Verdict:
    """Solve to proven optimality; never best-effort.

    method "sat" runs the conflict-driven core (strong on feasibility
    boundaries and unsatisfiability proofs); "milp" runs the HiGHS branch
    and bound, the cross-check engine. Both return identical verdict
    semantics. deadline is None (no budget) or the calling flow's one
    time.monotonic() deadline (exact._deadline); past it, both return TIMEOUT.

    bound is an objective value the caller has proven no assignment beats,
    or None. The core stops tightening its incumbent once it reaches the
    bound: the next search could only prove the model unsatisfiable, so the
    verdict is the one it returns without the bound.
    """
    if method not in ("sat", "milp"):
        raise ModelError(f"unknown solve method {method!r}")
    ncols, rows, objective = model._compile()
    if ncols == 0:
        # no columns, but constant rows may still contradict (empty sums)
        assignment: dict = {}
        if model.check_assignment(assignment):
            return Verdict(status=UNSAT)
        obj = model.objective_of(assignment)
        return Verdict(status=SAT, assignment=assignment, objective_value=obj)
    if method == "milp":
        return _solve_milp(model, ncols, rows, objective, deadline)
    return _solve_sat(model, ncols, rows, objective, deadline, bound)


def _extract(model: Model, x) -> Verdict:
    """Read a 0/1 column vector back into model variables and replay it."""
    assignment = {}
    for v in model._vars:
        if v.is_bool:
            assignment[v.handle] = int(x[v.first_col] > 0.5)
        else:
            hits = [val for val in v.domain if x[v.first_col + (val - v.lo)] > 0.5]
            if len(hits) != 1:
                raise SolverBackendError(f"one-hot group of {v.name} returned {hits}")
            assignment[v.handle] = hits[0]
    # one column image serves the replay and the objective
    holding = model._holding(assignment)
    bad = model._violations(assignment, holding)
    if bad:
        raise SolverBackendError(f"assignment fails replay: {bad[:3]}")
    return Verdict(status=SAT, assignment=assignment,
                   objective_value=model._value_on(holding))


def _solve_sat(model: Model, ncols, rows, objective, deadline, bound) -> Verdict:
    searcher = _cdcl.Searcher(ncols)
    searcher.add_rows(rows)
    # decide objective columns first, preferring the cost-lowering phase;
    # the epsilon ladder keeps their relative order deterministic
    for rank, (coef, col) in enumerate(objective):
        searcher.boost(col, amount=1.0 + (len(objective) - rank) * 1e-3,
                       phase=1 if coef < 0 else 0)

    status = searcher.search(deadline)
    if status == "unsat":
        return Verdict(status=UNSAT)
    if status == "timeout":
        return Verdict(status=TIMEOUT)
    best = searcher.model()
    # tighten the incumbent until the strengthened model is unsatisfiable,
    # or until it reaches the bound: the objective terms are the value less
    # its constant, negated for maximization
    stop = None
    if bound is not None and objective:
        sense, _, _, const = model._objective
        stop = (bound - const) * (1 if sense == "min" else -1)
    while objective:
        value = sum(coef * best[col] for coef, col in objective)
        if stop is not None and value <= stop:
            break
        searcher.add_rows(_core_rows([(-coef, col) for coef, col in objective], 1 - value))
        status = searcher.search(deadline)
        if status == "timeout":
            return Verdict(status=TIMEOUT)
        if status == "unsat":
            break
        best = searcher.model()
    return _extract(model, best)


def _ge_row(row) -> tuple[list, int]:
    """A row as its >=-row (terms, b) over columns: a clause is sum(lits) >=
    1, and a negative literal 2*c+1 stands for 1 - column c."""
    lits, coefs, b = (row, [1] * len(row), 1) if row.__class__ is list else row
    terms = [(-cf, lit >> 1) if lit & 1 else (cf, lit >> 1) for lit, cf in zip(lits, coefs)]
    return terms, b - sum(cf for lit, cf in zip(lits, coefs) if lit & 1)


def _solve_milp(model: Model, ncols, rows, objective, deadline) -> Verdict:
    import numpy as np
    from scipy import sparse
    from scipy.optimize import LinearConstraint, milp

    if rows:
        data, row_idx, cols, lbs = [], [], [], []
        for i, row in enumerate(rows):
            terms, b = _ge_row(row)
            for coef, col in terms:
                row_idx.append(i)
                cols.append(col)
                data.append(coef)
            lbs.append(b)
        a = sparse.csc_array(
            (data, (row_idx, cols)), shape=(len(rows), ncols))
        constraints = [LinearConstraint(a, np.array(lbs), np.inf)]
    else:
        constraints = []

    c = np.zeros(ncols)
    for coef, col in objective:
        c[col] = coef
    options = {"mip_rel_gap": 0.0}
    if deadline is not None:
        # HiGHS ignores a negative limit and solves with no budget
        options["time_limit"] = max(0.0, deadline - time.monotonic())
    res = milp(
        c,
        constraints=constraints,
        integrality=np.ones(ncols),
        bounds=(0, 1),
        options=options,
    )
    if res.status == 2:
        return Verdict(status=UNSAT)
    if res.status == 1:
        return Verdict(status=TIMEOUT)
    if res.status != 0 or res.x is None:
        raise SolverBackendError(f"backend anomaly: status={res.status} {res.message}")
    return _extract(model, res.x)
