"""Exact-optimization seam: declarative models over a 0/1 search core.

The rest of the package describes models declaratively: bounded integer
variables, booleans, three kinds of constraint (clauses over indicator
literals, orderings between two variables, linear sums) and one optional
linear objective. Every coefficient, bound, margin and indicator value is
an integer: `require_order`, `require_sum`, `minimize` and `maximize` raise
ModelError on any other. This module lowers that description, constraint by
constraint at its call, to the search core's two kinds of row over 0/1 columns:

  * clause rows: literal lists in the search core's convention (2*c
    asserts column c is 1, 2*c+1 asserts it is 0). `Model.lits(handle)`
    lists the literal of "handle == v" for each value v of its domain, and
    "handle != v" is that literal ^ 1; a clause family is written from
    those lists and handed over whole to `require_clauses`, which checks it
    once and keeps its rows. `require_clause` resolves one clause of
    (handle, value, positive) triples to such a row. An ordering
    "a + margin <= b" becomes clause rows too, at its call, over an order
    encoding ("x >= v" literals on aux columns, see `Model._ge`). An int
    is a one-hot group of binary columns, so "x == v" is one column; its
    exactly-one is its pairwise "not both" clauses, then "at least one";
  * pseudo-Boolean (PB) rows (lits, coefs, b): sum(coef * lit) >= b with
    positive coefficients no larger than b. A sum states one >=-row per
    bound, the upper bound's (negated) row first, each through `_core_rows`.

Columns are numbered in the order they are made: a variable's as it is
created, an order chain's aux columns as the first ordering needs them.

The objective becomes a sparse list of integer (coef, col) terms to
minimize, negated for maximization, also at the call.

The conflict-driven search core solves the rows (strong on tight
feasibility questions, proves optima by tightening the incumbent until
unsatisfiable). scipy's MILP interface (HiGHS), run with a zero MIP gap,
stays as an independent cross-check engine for tests and reference optima
(`method="milp"`): it reads each row back as a linear row (`_ge_row`), and
numpy and scipy are imported only when it runs. Either way reported optima
are exact, which the synthesis layers rely on; every satisfying assignment
is replayed against the declarative model before it is returned: each
clause row on the assignment's column image, each ordering and sum on the
values. A backend anomaly raises SolverBackendError and is never reported
"unsatisfiable".
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, combinations, compress, groupby

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


class _Order:
    """A require_order assertion: a + margin <= b over two handles."""

    __slots__ = ("a", "b", "margin")

    def __init__(self, a: int, b: int, margin: int):
        self.a = a
        self.b = b
        self.margin = margin

    def __repr__(self) -> str:
        return f"Order(x{self.a} + {self.margin} <= x{self.b})"


_INT = frozenset({int})
_column = (1).__rrshift__  # _column(lit) is lit >> 1, the literal's column
_NOT = bytes([1, 0]) + bytes(254)  # bytes.translate table: 0 <-> 1


def _clause_row(lits) -> list[int] | None:
    """Clause row of a disjunction of literals and True/False constants.

    Repeated literals collapse and False constants drop out. Returns None
    when the clause always holds (a True constant or a complementary pair);
    an empty row means the clause can never hold.
    """
    row: list[int] = []
    for lit in lits:
        if lit is True:
            return None
        if lit is False or lit in row:
            continue
        if lit ^ 1 in row:
            return None
        row.append(lit)
    return row


def _core_rows(terms, b) -> list:
    """The core's rows for sum(coef * column) >= b over integer (coef, col)
    terms, columns distinct: none if it always holds, itself unclipped if it
    never can, else, coefficients clipped to b, a clause (b == 1), the
    pairwise clauses of an "all but one" row, or one PB row (lits, coefs, b)."""
    # normalize to positive coefficients over literals
    lits, coefs = [], []
    for cf, col in terms:
        if cf > 0:
            lits.append(2 * col)
            coefs.append(cf)
        elif cf < 0:
            lits.append(2 * col + 1)
            coefs.append(-cf)
            b += -cf
    if b <= 0:
        return []
    if sum(coefs) < b:
        return [(lits, coefs, b)]
    coefs = [min(cf, b) for cf in coefs]
    if b == 1:
        return [lits]
    if b == len(lits) - 1 and all(cf == 1 for cf in coefs):
        # "all but one": equivalent to pairwise disjunctions, which give
        # conflict analysis short reasons where a counting row would not
        return [*map(list, combinations(lits, 2))]
    return [(lits, coefs, b)]


def _integer(x, what: str) -> int:
    """x as an int; ModelError unless x is integral."""
    if x.__class__ is int:
        return x
    try:
        if x == int(x):
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
    """Declarative model: variables, clauses and orderings, sums, one objective.

    Each call builds its rows at once and logs what it states for replay;
    `_compile` only puts the row lists together, so a solve always sees the
    model as it stands. A clause is written over the literals of `lits`
    and stated by `require_clauses`, a whole family per call.
    """

    def __init__(self) -> None:
        self._vars: list[_Var] = []
        self._ncols = 0  # columns made so far: variables' and order chains'
        # in order: a clause as the literal list it was stated with and an
        # ordering as _Order, kept for replay
        self._assertions: list = []
        self._onehot_rows: list[list[int]] = []  # the ints' exactly-one clauses, in order
        self._rows: list[list[int]] = []  # clause, ordering and chain rows, in order
        self._sums: list[tuple[list, str, int]] = []
        self._sum_rows: list = []  # the sums' clause and PB rows, in order
        # (sense, terms, its (coef, col) terms to minimize) or None
        self._objective: tuple[str, list, list] | None = None
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
        The whole family is checked first: a literal that is no int (a bool
        neither), is negative, is past the last column or is on an order
        chain's aux column raises ModelError, and nothing is kept. Each row
        is then logged for replay as given and becomes a clause row in
        order: repeats collapse, a row with a complementary pair always
        holds (no clause row), and an empty row can never hold.
        """
        rows = list(map(list, rows))
        flat = [*chain.from_iterable(rows)]
        if flat and not (_INT.issuperset(map(type, flat)) and min(flat) >= 0
                         and max(flat) < 2 * self._ncols and self._aux_lits.isdisjoint(flat)):
            bad = next(lit for lit in flat if lit.__class__ is not int
                       or not 0 <= lit < 2 * self._ncols or lit in self._aux_lits)
            raise ModelError(f"clause literal {bad!r} is no literal of a variable column")
        self._assertions += rows
        kept = self._rows
        for row in rows:
            if len({*map(_column, row)}) < len(row):  # a repeat or a complementary pair
                row = _clause_row(row)
                if row is None:
                    continue
            kept.append(row)

    def require_clause(self, lits) -> None:
        """Require that at least one indicator literal holds.

        Each literal is a (handle, value, positive) triple: "handle == value"
        when positive, "handle != value" when not. A value outside the
        handle's domain makes its literal a constant: false when positive
        (dropped), true when not (stated as a complementary pair on the
        handle's first column). Every handle is checked before the row, in
        the order given, goes to `require_clauses`.
        """
        row: list[int] = []
        for handle, value, positive in lits:
            table = self.lits(handle)
            lo, value = self._vars[handle].lo, _integer(value, "indicator value")
            if lo <= value < lo + len(table):
                row.append(table[value - lo] if positive else table[value - lo] ^ 1)
            elif not positive:
                row += (table[0], table[0] ^ 1)
        self.require_clauses([row])

    def require_order(self, a: int, b: int, margin: int = 0) -> None:
        """Require a + margin <= b over two variable handles, with an
        integer margin.

        Its rows are built here: for each value v of a, the clause
        [not a >= v, b >= v + margin] over the order encoding (`_ge`), so a
        value fixed on one side bounds the other by unit propagation alone.
        """
        va, vb = self._var(a), self._var(b)
        margin = _integer(margin, "margin")
        self._assertions.append(_Order(a, b, margin))
        for v in va.domain:
            head = self._ge(va, v)  # never False: v is in a's domain
            row = _clause_row([False if head is True else head ^ 1, self._ge(vb, v + margin)])
            if row is not None:
                self._rows.append(row)

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

    def require_sum(self, terms, op: str, rhs: int) -> None:
        """Linear constraint over terms: (coef, handle) or (coef, (handle, value)),
        with integer coefficients, values and bound. Its rows are built here."""
        if op not in ("<=", ">=", "=="):
            raise ModelError(f"bad sum op {op!r}")
        terms, coeffs, const = self._terms(terms)
        rhs = _integer(rhs, "bound")
        self._sums.append((terms, op, rhs))
        # the upper bound's negated row first
        row = [(coef, col) for col, coef in coeffs.items() if coef]
        if op != ">=":
            self._sum_rows += _core_rows([(-coef, col) for coef, col in row], const - rhs)
        if op != "<=":
            self._sum_rows += _core_rows(row, rhs - const)

    def minimize(self, terms) -> None:
        self._set_objective("min", terms)

    def maximize(self, terms) -> None:
        self._set_objective("max", terms)

    def _set_objective(self, sense, terms) -> None:
        # the constant part shifts every value alike; dropped
        terms, coeffs, _ = self._terms(terms)
        sign = 1 if sense == "min" else -1
        objective = [(sign * coef, col) for col, coef in sorted(coeffs.items()) if coef]
        self._objective = (sense, terms, objective)

    def _terms(self, terms) -> tuple[list, dict, int]:
        """The terms with integer coefficients, every handle and value
        checked, and their sum as {col: coef} plus a constant ([b == 0] is
        1 - b)."""
        out: list = []
        coeffs: dict[int, int] = {}
        const = 0
        for coef, t in terms:
            if isinstance(t, tuple):
                var, value = self._var(t[0]), _integer(t[1], "indicator value")
                if not (var.lo <= value <= var.hi):
                    raise ModelError(f"indicator value {value} outside domain of {var.name}")
            else:
                var, value = self._var(t), None
            coef = _integer(coef, "coefficient")
            out.append((coef, t))
            col = var.first_col
            if var.is_bool:
                if value == 0:
                    coef, const = -coef, const + coef
            elif value is not None:
                col += value - var.lo
            else:
                for i, v in enumerate(var.domain):
                    coeffs[col + i] = coeffs.get(col + i, 0) + coef * v
                continue
            coeffs[col] = coeffs.get(col, 0) + coef
        return out, coeffs, const

    # -- replay on concrete values (tests and every returned assignment) -------

    def _sum_value(self, terms, assignment) -> int:
        total = 0
        for coef, t in terms:
            if isinstance(t, tuple):
                total += coef * (1 if assignment[t[0]] == t[1] else 0)
            else:
                total += coef * assignment[t]
        return total

    def _holding(self, assignment: dict) -> set[int]:
        """The literals that hold on the assignment's column image: each
        int's value column is set and each bool's column holds its value,
        as `_extract` reads them. An aux column reads 0; no clause row
        names one."""
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
            if lit in table:
                named.append((v.handle, v.lo + table.index(lit), True))
            else:
                named.append((v.handle, v.lo + table.index(lit ^ 1), False))
        return tuple(named)

    def check_assignment(self, assignment: dict) -> list[str]:
        """Replay every assertion on concrete values; returns violations.

        A clause is checked on the assignment's column image (`_holding`)
        and named by its (handle, value, positive) literals; an ordering and
        a sum on the values.
        """
        bad = []
        holding = self._holding(assignment)
        at = 0  # index of the run's first assertion
        for kind, run in groupby(self._assertions, type):
            run = list(run)
            if kind is list:
                # a run of clause rows is named only if one of them fails
                if any(map(holding.isdisjoint, run)):
                    bad += [f"assertion {i}: Clause{self._named(f)!r}"
                            for i, f in enumerate(run, at) if holding.isdisjoint(f)]
            else:
                bad += [f"assertion {i}: {f!r}" for i, f in enumerate(run, at)
                        if assignment[f.a] + f.margin > assignment[f.b]]
            at += len(run)
        for i, (terms, op, rhs) in enumerate(self._sums):
            total = self._sum_value(terms, assignment)
            ok = (total <= rhs) if op == "<=" else (total >= rhs) if op == ">=" else (total == rhs)
            if not ok:
                bad.append(f"sum {i}: value {total} not {op} {rhs}")
        return bad

    def objective_of(self, assignment: dict) -> int | None:
        if self._objective is None:
            return None
        return self._sum_value(self._objective[1], assignment)

    # -- the compiled form ------------------------------------------------------

    def _compile(self):
        """The model as (ncols, rows, objective), also kept in `_compiled`
        for the benchmark's tracer to read: the core's rows, the ints'
        exactly-one clauses first, then the clause, ordering and order chain
        rows in call order, then the sums' rows; the objective's (coef, col)
        terms in column order, negated for maximization. Every row and the
        objective were built at their calls.
        """
        objective = self._objective[2] if self._objective is not None else []
        self._compiled = (self._ncols, self._onehot_rows + self._rows + self._sum_rows,
                          objective)
        return self._compiled


def solve(model: Model, timeout: float | None = None,
          method: str = "sat") -> Verdict:
    """Solve to proven optimality; never best-effort.

    method "sat" runs the conflict-driven core (strong on feasibility
    boundaries and unsatisfiability proofs); "milp" runs the HiGHS branch
    and bound, the cross-check engine. Both return identical verdict
    semantics. timeout is None (no budget) or a number of seconds >= 0;
    anything else, NaN and bools included, raises ValueError.
    """
    if timeout is not None and (isinstance(timeout, bool) or not (
            isinstance(timeout, (int, float)) and timeout >= 0)):
        raise ValueError(f"timeout must be a number >= 0, not {timeout!r}")
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
        return _solve_milp(model, ncols, rows, objective, timeout)
    return _solve_sat(model, ncols, rows, objective, timeout)


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
    bad = model.check_assignment(assignment)
    if bad:
        raise SolverBackendError(f"assignment fails replay: {bad[:3]}")
    obj = model.objective_of(assignment)
    return Verdict(status=SAT, assignment=assignment, objective_value=obj)


def _solve_sat(model: Model, ncols, rows, objective, timeout) -> Verdict:
    deadline = time.monotonic() + timeout if timeout is not None else None
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
    # tighten the incumbent until the strengthened model is unsatisfiable
    while objective:
        value = sum(coef * best[col] for coef, col in objective)
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


def _solve_milp(model: Model, ncols, rows, objective, timeout) -> Verdict:
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
    if timeout is not None:
        options["time_limit"] = float(timeout)
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
