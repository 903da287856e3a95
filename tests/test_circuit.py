"""Gate-list parsing, dependency preprocessing and the tables a circuit
derives from its dependencies."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qlayout.circuit import (
    Circuit,
    CircuitError,
    Gate,
    load_circuit,
    parse_program,
    preprocess,
)

OR_TEXT = """\
qubits 3
x q0
x q1
h q2
ry q2
cx q1 q2
ry q2
cx q0 q2
"""


def test_parse_basic():
    c = parse_program("qubits 2\nh q0\ncx q0 q1\n")
    assert c.num_qubits == 2
    assert c.num_gates == 2
    assert c.gates[0] == Gate(index=0, name="h", qubits=(0,))
    assert c.gates[1].qubits == (0, 1)
    assert c.gates[1].is_two_qubit


def test_parse_comments_and_semicolons():
    c = parse_program("# leading comment\nqubits 2; h q0; cx q0 q1 # tail\n")
    assert c.num_gates == 2


def test_parse_empty_circuit():
    c = parse_program("qubits 4\n")
    assert c.num_qubits == 4
    assert c.num_gates == 0


@pytest.mark.parametrize("text", [
    "",                          # no header
    "h q0\n",                    # gate before header
    "qubits two\n",              # non-integer count
    "qubits -1\n",               # negative count
    "qubits 2\ncx q0 q1 q0\n",   # 3 operands
    "qubits 2\ncx q0 q0\n",      # repeated operand
    "qubits 2\nh q2\n",          # out of range
    "qubits 2\nh 0\n",           # operand not q<i>
])
def test_parse_rejects(text):
    with pytest.raises(CircuitError):
        parse_program(text)


def test_collisions_shared_qubit_pairs():
    c = preprocess(parse_program(OR_TEXT))
    # q2 appears in gates 2,3,4,5,6; q1 in 1,4; q0 in 0,6
    assert (2, 3) in c.dependencies
    assert (1, 4) in c.dependencies
    assert (0, 6) in c.dependencies
    assert (0, 1) not in c.dependencies
    assert all(l < lp for l, lp in c.dependencies)
    assert list(c.dependencies) == sorted(c.dependencies)


def _shared_qubit_pairs(circuit):
    gates = circuit.gates
    return tuple((i, j) for i in range(len(gates)) for j in range(i + 1, len(gates))
                 if set(gates[i].qubits) & set(gates[j].qubits))


def test_dependencies_default_to_collisions():
    # the default dependencies are every pair of gates sharing a qubit
    c = preprocess(parse_program(OR_TEXT))
    assert c.dependencies == _shared_qubit_pairs(c)


def test_user_dependencies_override():
    c = preprocess(parse_program(OR_TEXT), user_deps=[(0, 1)])
    assert c.dependencies == ((0, 1),)
    assert c.longest_chain == 2


def test_empty_user_dependencies_mean_full_commutation():
    c = preprocess(parse_program(OR_TEXT), user_deps=[])
    assert c.dependencies == ()
    assert c.longest_chain == 1


def test_user_dependency_validation():
    c = parse_program(OR_TEXT)
    with pytest.raises(CircuitError):
        preprocess(c, user_deps=[(3, 3)])
    with pytest.raises(CircuitError):
        preprocess(c, user_deps=[(5, 2)])
    with pytest.raises(CircuitError):
        preprocess(c, user_deps=[(0, 99)])
    # a pair is two ints: no bools, floats, triples, strings or lone ints
    for pair in [(False, True), (0.0, 1.0), (0, 1, 2), "01", 1]:
        with pytest.raises(CircuitError):
            preprocess(c, user_deps=[pair])
    # repeated pairs collapse, and the pairs are sorted
    assert preprocess(c, user_deps=[(4, 6), (0, 1), (4, 6)]).dependencies == ((0, 1), (4, 6))


def test_longest_chain_or_circuit():
    c = preprocess(parse_program(OR_TEXT))
    # q2 threads gates 2,3,4,5,6 in sequence
    assert c.longest_chain == 5


def test_longest_chain_empty():
    c = preprocess(parse_program("qubits 3\n"))
    assert c.longest_chain == 0


def test_chain_requires_dependencies():
    c = parse_program(OR_TEXT)
    assert c.dependencies is None and c.longest_chain is None
    assert c.asap is c.tail is c.preds is c.partners is c.unordered is None


def test_load_circuit_is_preprocessed():
    c = load_circuit(OR_TEXT)
    assert c.dependencies == _shared_qubit_pairs(c)
    assert c.longest_chain == 5


names = st.sampled_from(["h", "x", "t", "cx", "cz", "swap"])


@st.composite
def programs(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    lines = [f"qubits {m}"]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        name = draw(names)
        if m >= 2 and draw(st.booleans()):
            a = draw(st.integers(min_value=0, max_value=m - 1))
            b = draw(st.integers(min_value=0, max_value=m - 1).filter(lambda x: x != a))
            lines.append(f"{name} q{a} q{b}")
        else:
            a = draw(st.integers(min_value=0, max_value=m - 1))
            lines.append(f"{name} q{a}")
    return "\n".join(lines) + "\n"


@given(programs())
def test_parse_roundtrip_stable(text):
    c = parse_program(text)
    rebuilt = "\n".join(
        [f"qubits {c.num_qubits}"]
        + [g.name + " " + " ".join(f"q{q}" for q in g.qubits) for g in c.gates]
    ) + "\n"
    again = parse_program(rebuilt)
    assert again.num_qubits == c.num_qubits
    assert [(g.name, g.qubits) for g in again.gates] == \
        [(g.name, g.qubits) for g in c.gates]


@given(programs())
def test_chain_bounds(text):
    c = preprocess(parse_program(text))
    if c.num_gates == 0:
        assert c.longest_chain == 0
    else:
        assert 1 <= c.longest_chain <= c.num_gates


def _dfs_path_lengths(num_gates, pairs, forward):
    """Gates on the longest path out of each gate, the gate itself
    excluded, along the pairs (forward) or against them, by DFS."""
    step = [[] for _ in range(num_gates)]
    for l, lp in pairs:
        if forward:
            step[l].append(lp)
        else:
            step[lp].append(l)
    memo = {}

    def dfs(l):
        if l not in memo:
            memo[l] = max((1 + dfs(n) for n in step[l]), default=0)
        return memo[l]

    return [dfs(l) for l in range(num_gates)]


@given(programs(), st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12))
def test_chain_depths_are_longest_paths(text, raw_pairs):
    # for the shared-qubit dependencies and for arbitrary user pairs
    c = parse_program(text)
    n = c.num_gates
    user = [(min(a, b), max(a, b)) for a, b in raw_pairs if a != b and max(a, b) < n]
    default, declared = preprocess(c), preprocess(c, user)
    assert default.dependencies == _shared_qubit_pairs(c)
    assert declared.dependencies == tuple(sorted(set(user)))
    for circuit in (default, declared):
        asap, tail = circuit.asap, circuit.tail
        assert list(asap) == _dfs_path_lengths(n, circuit.dependencies, forward=False)
        assert list(tail) == _dfs_path_lengths(n, circuit.dependencies, forward=True)
        assert circuit.longest_chain == max((a + 1 + b for a, b in zip(asap, tail)), default=0)


def _two_pass_chain_depths(circuit):
    """(asap, tail) per gate by one forward and one backward pass over the
    sorted pairs."""
    asap = [0] * circuit.num_gates
    tail = [0] * circuit.num_gates
    for l, lp in circuit.dependencies:
        asap[lp] = max(asap[lp], asap[l] + 1)
    for l, lp in reversed(circuit.dependencies):
        tail[l] = max(tail[l], tail[lp] + 1)
    return asap, tail


def _ancestor_closure(circuit):
    """Each gate's ancestors as a bit set, closed over the sorted pairs."""
    ancestors = [0] * circuit.num_gates
    for l, lp in circuit.dependencies:
        ancestors[lp] |= ancestors[l] | 1 << l
    return ancestors


def _first_unordered(circuit, ancestors):
    """The first two gates in a row on one qubit with no dependency path
    between them, as (l, l', q), or None."""
    last = {}
    for g in circuit.gates:
        for q in g.qubits:
            if q in last and not ancestors[g.index] >> last[q] & 1:
                return last[q], g.index, q
            last[q] = g.index
    return None


def _partners_and_components(circuit):
    """The interaction graph's partner sets and its component sizes,
    largest first, by search from each unvisited qubit."""
    partners = [set() for _ in range(circuit.num_qubits)]
    for g in circuit.gates:
        if g.is_two_qubit:
            a, b = g.qubits
            partners[a].add(b)
            partners[b].add(a)
    seen, sizes = set(), []
    for q in range(circuit.num_qubits):
        if q not in seen:
            stack, size = [q], 0
            seen.add(q)
            while stack:
                size += 1
                for r in partners[stack.pop()] - seen:
                    seen.add(r)
                    stack.append(r)
            sizes.append(size)
    return partners, sorted(sizes, reverse=True)


def _assert_tables(circuit):
    asap, tail = _two_pass_chain_depths(circuit)
    ancestors = _ancestor_closure(circuit)
    partners, components = _partners_and_components(circuit)
    assert (list(circuit.asap), list(circuit.tail)) == (asap, tail)
    assert circuit.longest_chain == max(asap, default=-1) + 1
    assert list(circuit.ancestors) == ancestors
    # the reduced predecessors drop exactly those implied through another
    for lp, preds in enumerate(circuit.preds):
        direct = [l for l, m in circuit.dependencies if m == lp]
        assert list(preds) == [l for l in direct
                               if not any(ancestors[i] >> l & 1 for i in direct)]
    assert [set(ps) for ps in circuit.partners] == partners
    assert list(circuit.components) == components
    assert circuit.unordered == _first_unordered(circuit, ancestors)
    for table in (circuit.asap, circuit.tail, circuit.ancestors, circuit.preds,
                  circuit.partners, circuit.components):
        assert isinstance(table, tuple)


@st.composite
def dependency_lists(draw, num_gates):
    """None (the default dependencies), [] or drawn user pairs."""
    later = [(l, lp) for lp in range(num_gates) for l in range(lp)]
    return draw(st.one_of(st.none(), st.just([]),
                          st.lists(st.sampled_from(later), max_size=10) if later
                          else st.just([])))


@settings(max_examples=200, deadline=None)
@given(programs(), st.data())
def test_circuit_tables_equal_their_references(text, data):
    # each table a circuit derives from its dependencies equals a
    # from-scratch reference, and a circuit rebuilt by replace with other
    # dependencies derives its own
    c = parse_program(text)
    circuit = preprocess(c, data.draw(dependency_lists(c.num_gates)))
    _assert_tables(circuit)
    other = preprocess(c, data.draw(dependency_lists(c.num_gates))).dependencies
    rebuilt = replace(circuit, dependencies=other)
    _assert_tables(rebuilt)
    assert rebuilt == preprocess(c, other)
