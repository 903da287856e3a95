"""Device model: validation, derived structures, fidelity scaling."""

import math
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from importlib import resources

from qlayout.device import (
    DeviceError,
    build_device,
    load_device,
    scaled_log_fidelity,
    serialize_device,
    swap_log_fidelity,
)


def bundled(name):
    return (resources.files("qlayout") / "data" / name).read_text()


def test_qx2_shape():
    d = load_device(bundled("qx2.json"))
    assert d.num_physical == 5
    assert d.num_edges == 6
    # every edge pair of QX2 shares an endpoint except the 5 disjoint ones
    assert len(d.overlap_pairs) == 10


def test_grid_device_sizes():
    for name, n in (("grid2x3.json", 6), ("grid2x4.json", 8), ("grid4x4.json", 16)):
        assert load_device(bundled(name)).num_physical == n


def test_build_canonicalizes_edges():
    d = build_device(3, [(2, 1), (0, 1)])
    assert d.edges == ((1, 2), (0, 1))
    assert d.edge_index(1, 2) == 0
    assert d.edge_index(2, 1) == 0
    with pytest.raises(DeviceError):
        d.edge_index(0, 2)


def test_incident_lists():
    d = build_device(3, [(0, 1), (1, 2)])
    assert d.incident == ((0,), (0, 1), (1,))
    assert d.neighbours == ((1,), (0, 2), (1,))


@pytest.mark.parametrize("nodes,edges", [
    (2, [(0, 0)]),            # self loop
    (2, [(0, 1), (1, 0)]),    # duplicate
    (2, [(0, 2)]),            # out of range
    (-1, []),                 # bad count
    (2, [(0, 1, 2)]),         # arity
    (True, []),               # a bool count: no number, though an int
    (2.5, []),                # a non-integral count
    ("2", []),                # a string count
])
def test_build_rejects(nodes, edges):
    with pytest.raises(DeviceError):
        build_device(nodes, edges)


def test_build_reads_an_integral_float_count():
    assert build_device(2.0, [(0, 1)]) == build_device(2, [(0, 1)])
    assert build_device(2.0, []).num_physical.__class__ is int


def test_fidelity_validation():
    with pytest.raises(DeviceError):
        build_device(2, [(0, 1)], {"single": [0.9]})
    with pytest.raises(DeviceError):
        build_device(2, [(0, 1)], {"two": [1.5]})
    with pytest.raises(DeviceError):
        build_device(2, [(0, 1)], {"measure": [0.9, 0.0]})


def test_unknown_fidelity_keys_are_refused():
    for fidelity in ({"two_qubit": [0.5]}, {"two": [0.9], "Measure": [0.9, 0.9]}):
        with pytest.raises(DeviceError, match="unknown fidelity key"):
            build_device(2, [(0, 1)], fidelity)
    with pytest.raises(DeviceError, match="two_qubit"):
        load_device('{"num_qubits": 2, "edges": [[0, 1]], "fidelity": {"two_qubit": [0.5]}}')
    # top-level keys other than the device's own stay allowed
    d = load_device('{"name": "pair", "num_qubits": 2, "edges": [[0, 1]], '
                    '"fidelity": {"two": [0.5]}}')
    assert d.f_two == (0.5,)


def test_serialize_roundtrip():
    d = load_device(bundled("qx2.json"))
    text = serialize_device(d)
    again = load_device(text)
    assert again == d
    assert serialize_device(again) == text


def test_load_rejects_malformed():
    with pytest.raises(DeviceError):
        load_device("not json")
    with pytest.raises(DeviceError):
        load_device("{}")
    with pytest.raises(DeviceError):
        load_device("[1, 2]")
    # numbers and shapes are read strictly: nothing is floored or skipped
    for doc in ['{"num_qubits": 2.7, "edges": [[0, 1]]}',
                '{"num_qubits": 2, "edges": [[0, 1.5]]}',
                '{"num_qubits": "x", "edges": []}',
                '{"num_qubits": 2, "edges": 5}',
                '{"num_qubits": 2, "edges": [[0, "a"]]}',
                '{"num_qubits": 2, "edges": [[0, 1]], "fidelity": "x"}',
                '{"num_qubits": 2, "edges": [[0, 1]], "fidelity": {"two": 0.9}}']:
        with pytest.raises(DeviceError):
            load_device(doc)
    assert load_device('{"num_qubits": 2.0, "edges": [[0, 1.0]]}').edges == ((0, 1),)


def test_load_rejects_json_booleans():
    # a JSON true is a Python bool, which is an int; it is still no number
    for doc in ['{"num_qubits": true, "edges": []}',
                '{"num_qubits": 2, "edges": [[0, true]]}',
                '{"num_qubits": 1, "edges": [], "fidelity": {"measure": [true]}}']:
        with pytest.raises(DeviceError):
            load_device(doc)


def test_scaled_log_fidelity_values():
    assert scaled_log_fidelity(1.0) == 0
    assert scaled_log_fidelity(0.99) == -10
    assert scaled_log_fidelity(0.97) == -30
    with pytest.raises(DeviceError):
        scaled_log_fidelity(0.0)
    with pytest.raises(DeviceError):
        scaled_log_fidelity(-0.5)


def test_scaled_log_rounds_half_away_from_zero():
    # straddle the -0.5 boundary; round-trip error through exp/log is ~1e-13
    assert scaled_log_fidelity(math.exp(-0.000500001)) == -1
    assert scaled_log_fidelity(math.exp(-0.000499999)) == 0


def test_swap_log_fidelity_triples():
    d = build_device(2, [(0, 1)], {"two": [0.97]})
    assert swap_log_fidelity(d, 0) == 3 * scaled_log_fidelity(0.97)


@given(st.floats(min_value=0.01, max_value=1.0))
def test_scaled_log_close_to_real(f):
    s = scaled_log_fidelity(f)
    assert abs(1000.0 * math.log(f) - s) <= 0.5


@st.composite
def profiled_devices(draw):
    """A device on 1 to 6 nodes with drawn edges and a drawn fidelity profile."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    f = st.floats(min_value=0.5, max_value=1.0)
    return build_device(n, edges, {
        "measure": draw(st.lists(f, min_size=n, max_size=n)),
        "single": draw(st.lists(f, min_size=n, max_size=n)),
        "two": draw(st.lists(f, min_size=len(edges), max_size=len(edges)))})


def _components(device):
    """Component sizes, largest first, by search from each unvisited node."""
    seen, sizes = set(), []
    for p in range(device.num_physical):
        if p not in seen:
            stack, size = [p], 0
            seen.add(p)
            while stack:
                size += 1
                for r in set(device.neighbours[stack.pop()]) - seen:
                    seen.add(r)
                    stack.append(r)
            sizes.append(size)
    return sorted(sizes, reverse=True)


def _assert_tables(device):
    assert device.scaled_profile == tuple(
        tuple(scaled_log_fidelity(f) for f in fs)
        for fs in (device.f_measure, device.f_single, device.f_two))
    assert list(device.components) == _components(device)
    n = device.num_physical
    for p in range(-1, n + 1):
        for q in range(-1, n + 1):
            key = (min(p, q), max(p, q))
            if key in device.edges:
                assert device.edge_index(p, q) == device.edges.index(key)
            else:
                with pytest.raises(DeviceError):
                    device.edge_index(p, q)


@settings(max_examples=100, deadline=None)
@given(profiled_devices(), profiled_devices())
def test_device_tables_equal_their_references(device, other):
    # the weights are scaled_log_fidelity of each entry, edge_index is
    # edges.index on the canonical pair, and a device rebuilt by replace
    # derives its own tables
    _assert_tables(device)
    rebuilt = replace(device, num_physical=other.num_physical, edges=other.edges,
                      incident=other.incident, neighbours=other.neighbours,
                      f_measure=other.f_measure, f_single=other.f_single,
                      f_two=other.f_two)
    _assert_tables(rebuilt)
