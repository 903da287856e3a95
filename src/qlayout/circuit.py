"""Circuit intermediate representation and dependency preprocessing.

A circuit is an ordered list of opaque 1- and 2-qubit gates over M logical
qubits. Layout synthesis only cares about gate arity and operand identity,
so gate names are carried through untouched. preprocess sets, in one
step, the dependencies (every pair of gates sharing a qubit, or the user's
pairs); a circuit whose dependencies are set derives its tables from them
as it is built, once, for every layer to read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .device import component_sizes


class CircuitError(ValueError):
    """Raised for malformed circuit text or invalid derived inputs."""


@dataclass(frozen=True)
class Gate:
    index: int
    name: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.qubits) not in (1, 2):
            raise CircuitError(f"gate {self.index}: expected 1 or 2 operands")
        if len(self.qubits) == 2 and self.qubits[0] == self.qubits[1]:
            raise CircuitError(f"gate {self.index}: repeated operand q{self.qubits[0]}")

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2


def _derived():
    """A table Circuit derives at construction, not compared or shown."""
    return field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...]
    # (l, l') pairs with l < l', lexicographically sorted; None until
    # preprocess sets them.
    dependencies: tuple[tuple[int, int], ...] | None = None
    # Derived from the dependencies at construction, so dataclasses.replace
    # never carries a stale one; each is None while they are:
    # longest_chain: the longest dependency chain, in gates (0 when empty)
    longest_chain: int | None = field(default=None, init=False)
    # asap[l], tail[l]: the longest chain before gate l and after it, in gates
    asap: tuple[int, ...] | None = _derived()
    tail: tuple[int, ...] | None = _derived()
    # ancestors[l]: gate l's dependency ancestors, as a bit set
    ancestors: tuple[int, ...] | None = _derived()
    # preds[l]: gate l's dependency predecessors, ascending, transitively reduced
    preds: tuple[tuple[int, ...], ...] | None = _derived()
    # partners[q]: the qubits sharing a two-qubit gate with q, the
    # interaction graph; components: its component sizes, largest first
    partners: tuple[frozenset[int], ...] | None = _derived()
    components: tuple[int, ...] | None = _derived()
    # unordered: the first (l, l', q), gates l < l' in a row on qubit q
    # with no dependency path between them, or None
    unordered: tuple[int, int, int] | None = _derived()

    def __post_init__(self) -> None:
        if self.dependencies is None:
            return
        L = len(self.gates)
        # one forward and one backward pass over the sorted pairs: every
        # pair into l comes before every pair out of it
        asap, tail = [0] * L, [0] * L
        for l, lp in self.dependencies:
            asap[lp] = max(asap[lp], asap[l] + 1)
        for l, lp in reversed(self.dependencies):
            tail[l] = max(tail[l], tail[lp] + 1)
        preds = [[] for _ in range(L)]
        for l, lp in self.dependencies:
            preds[lp].append(l)
        ancestors = [0] * L
        for l, direct in enumerate(preds):
            through = 0
            for i in direct:
                through |= ancestors[i]
            preds[l] = tuple(i for i in direct if not through >> i & 1)
            ancestors[l] = through | sum(1 << i for i in preds[l])
        pairs = [g.qubits for g in self.gates if g.is_two_qubit]
        partners = [frozenset(r for pair in pairs if q in pair for r in pair if r != q)
                    for q in range(self.num_qubits)]
        # consecutive gates on each qubit; ordered, they order all of its
        # gates by transitivity
        unordered, last = None, {}
        for g in self.gates:
            for q in g.qubits:
                if unordered is None and q in last and not ancestors[g.index] >> last[q] & 1:
                    unordered = (last[q], g.index, q)
                last[q] = g.index
        vars(self).update(  # frozen: no attribute assignment
            longest_chain=max(asap, default=-1) + 1, asap=tuple(asap), tail=tuple(tail),
            ancestors=tuple(ancestors), preds=tuple(preds),
            partners=tuple(partners),
            components=component_sizes(self.num_qubits, pairs), unordered=unordered)

    @property
    def num_gates(self) -> int:
        return len(self.gates)


_QUBIT_RE = re.compile(r"^q(\d+)$")


def _statements(text: str):
    """Yield (line_number, statement) pairs, splitting on newlines and ';'."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if stmt:
                yield lineno, stmt


def parse_program(text: str) -> Circuit:
    """Parse gate-list text into a Circuit.

    Grammar: first statement is "qubits M"; every following statement is
    "<name> q<i>" or "<name> q<i> q<j>". "#" starts a comment and ";" may
    separate statements on one line.
    """
    num_qubits = None
    gates: list[Gate] = []
    for lineno, stmt in _statements(text):
        tokens = stmt.split()
        if num_qubits is None:
            if len(tokens) != 2 or tokens[0] != "qubits":
                raise CircuitError(f"line {lineno}: expected 'qubits <M>' header")
            try:
                num_qubits = int(tokens[1])
            except ValueError:
                raise CircuitError(f"line {lineno}: bad qubit count {tokens[1]!r}") from None
            if num_qubits < 0:
                raise CircuitError(f"line {lineno}: negative qubit count")
            continue
        name, operands = tokens[0], tokens[1:]
        if not operands or len(operands) > 2:
            raise CircuitError(f"line {lineno}: gate needs 1 or 2 operands, got {len(operands)}")
        qubits = []
        for tok in operands:
            m = _QUBIT_RE.match(tok)
            if not m:
                raise CircuitError(f"line {lineno}: bad operand {tok!r}, expected q<i>")
            q = int(m.group(1))
            if q >= num_qubits:
                raise CircuitError(f"line {lineno}: q{q} out of range for {num_qubits} qubits")
            qubits.append(q)
        if len(qubits) == 2 and qubits[0] == qubits[1]:
            raise CircuitError(f"line {lineno}: repeated operand {operands[0]}")
        gates.append(Gate(index=len(gates), name=name, qubits=tuple(qubits)))
    if num_qubits is None:
        raise CircuitError("empty program: missing 'qubits <M>' header")
    return Circuit(num_qubits=num_qubits, gates=tuple(gates))


def preprocess(circuit: Circuit, user_deps=None) -> Circuit:
    """Set the dependencies, and so the tables derived from them.

    The dependencies are every pair of gates sharing a logical qubit by
    default, the user's pairs otherwise; an explicit empty list declares
    all gates free to commute. A user pair must be two ints (not bools)
    with l < l', so gate index order stays a topological order.
    """
    gates = circuit.gates
    if user_deps is None:
        deps = {(i, j) for j, g in enumerate(gates) for i in range(j)
                if gates[i].qubits[0] in g.qubits or gates[i].qubits[-1] in g.qubits}
    else:
        deps = set()
        for pair in user_deps:
            try:
                l, lp = pair
            except (TypeError, ValueError):
                l = lp = None
            if not (l.__class__ is lp.__class__ is int and 0 <= l < lp < circuit.num_gates):
                raise CircuitError(f"dependency {pair!r}: need ints 0 <= l < l' < L")
            deps.add((l, lp))
    return replace(circuit, dependencies=tuple(sorted(deps)))


def load_circuit(text: str, user_deps=None) -> Circuit:
    """Parse and fully preprocess a gate-list program."""
    return preprocess(parse_program(text), user_deps)
