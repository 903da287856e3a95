"""Compiled models stay bit-identical: a digest of each `_compile()`.

A change to how the Model builds its rows (the call that states them, the
order of families, the lowering of a weighted row) must leave the search
core's input unchanged unless it means to change it. For each bundled
circuit on qx2, grid2x3 and grid4x4 under swap and depth, and on qx2 under
fidelity with its uniform profile and with a drawn non-uniform one, the
digest covers (ncols, rows, objective) of the coarse block model at T = 2
and T = 3 and of the exact model with its objective at the longest chain,
each with the symmetry pins the flows add.
"""

import hashlib
import random
from importlib import resources

import pytest

from qlayout.circuit import load_circuit
from qlayout.device import build_device, load_device
from qlayout.exact import EncodingConfig, apply_objective, encode
from qlayout.transition import encode_tb
from test_exact import flow_pins

# (circuit, device, objective) -> digests of the coarse models at T = 2 and
# T = 3 and of the exact model
DIGESTS = {
    ("4mod5-v1_22", "qx2", "swap"): ("45dd981a8fc80ed4", "ce7d9107a58431de", "940a1a555350c037"),
    ("4mod5-v1_22", "qx2", "depth"): ("66185d2400a174d1", "69bb127c33fcf37f", "63f63285aba0c7d0"),
    ("4mod5-v1_22", "grid2x3", "swap"): ("49b2d360a5ec53f9", "1b4788b50a28fcec", "6988fbff30da4f26"),
    ("4mod5-v1_22", "grid2x3", "depth"): ("e508fd2d2790ce88", "fa97f4f1ae0c2d36", "304b7bc814043d9f"),
    ("4mod5-v1_22", "grid4x4", "swap"): ("7b0408e1f3c78a38", "8387d2c14d0357c9", "d87018d8d16521a8"),
    ("4mod5-v1_22", "grid4x4", "depth"): ("2d2a49ebe64c09e9", "dae5f351cdcb5282", "2b0045d9c0d4ca81"),
    ("adder", "qx2", "swap"): ("f0fdbdda4212e4ce", "e4181e5e0a993956", "8172ad0e5bcaa415"),
    ("adder", "qx2", "depth"): ("d07328d2dfd3514c", "d05279d3f4f0a7a3", "60e3145c79667d7e"),
    ("adder", "grid2x3", "swap"): ("56926aa70aebe786", "3c12e03c8e1606a1", "7781140c5b6b9365"),
    ("adder", "grid2x3", "depth"): ("4ed2644823733675", "de0e18fd6679ebc1", "6341073cbce7a80c"),
    ("adder", "grid4x4", "swap"): ("fc451752a9df70b7", "a8168781564d459f", "40073c8e5cf06b49"),
    ("adder", "grid4x4", "depth"): ("c898ae6ebfe6f60d", "173eecade188d5bc", "a35a1ac2703da6c5"),
    ("or", "qx2", "swap"): ("3ccb4b010b86a736", "46e036d95de96fd6", "6d14e68f93b3b849"),
    ("or", "qx2", "depth"): ("93fdbc4daac425c3", "593e512efd5df571", "2d471ab6fe82ffe9"),
    ("or", "grid2x3", "swap"): ("090fb24232573c8c", "a029943efc1ecde6", "631c72c854d7bf97"),
    ("or", "grid2x3", "depth"): ("5663c3d159c6f3da", "fb0c067e42259ab1", "4b6fc8055bb7fdf6"),
    ("or", "grid4x4", "swap"): ("2c79db0105b7ce3d", "13d0894a1e1e30fe", "1701558c2f31ed52"),
    ("or", "grid4x4", "depth"): ("b59545b58f4a5a1e", "b9cd56d8cd8c6e84", "38fe5fc9c294ce17"),
    ("qaoa5", "qx2", "swap"): ("29d18c7fa1188e77", "b100a10ea30edb6d", "06659b44b3408356"),
    ("qaoa5", "qx2", "depth"): ("4bd421c82301e955", "72f09c8aefd73367", "7860ff8e18440b4c"),
    ("qaoa5", "grid2x3", "swap"): ("79c7712f4fcf026c", "7f7ae80dffb265e3", "3141328fbc4d3f25"),
    ("qaoa5", "grid2x3", "depth"): ("cf47f05e37959a22", "cde3adfc5af6b72f", "58cae96ed571a229"),
    ("qaoa5", "grid4x4", "swap"): ("01ae42a05d175808", "9bd8a23254486cca", "12c75268020c3270"),
    ("qaoa5", "grid4x4", "depth"): ("e81bc05725f03579", "a7cc80822017799a", "e544a35d2946e7b2"),
}

# (circuit, profile) -> the same three digests under fidelity on qx2, with
# its uniform profile or the one _drawn_qx2 draws
FIDELITY_DIGESTS = {
    ("4mod5-v1_22", "uniform"): ("c2b8de30f584b36a", "4f4831d617a0247c", "398aca610fa02cb5"),
    ("4mod5-v1_22", "drawn"): ("56fd64f7efcf24cd", "06a6223ae2a498aa", "a2003a712b125c9b"),
    ("adder", "uniform"): ("95773277457a4b54", "752ecc29c94d5a10", "08f07ad139b8972b"),
    ("adder", "drawn"): ("e4dfd521c863eecd", "300b66fd3cd8be34", "5968b21d2b1aa3cf"),
    ("or", "uniform"): ("1ba29a3eb13af8e8", "2211853130f1b7f6", "20c0d49d636888c5"),
    ("or", "drawn"): ("ef0105e8f3d0d6af", "6c56e3396bbbb8c2", "6aa85542f67b9d16"),
    ("qaoa5", "uniform"): ("362c08b8372d9b24", "e0ece509b8284074", "f3c492d7bb32df0f"),
    ("qaoa5", "drawn"): ("ad6af5ff61a75771", "20b3d29b426c6ffc", "a686ac0fdc75915b"),
}


def _bundled(name):
    return (resources.files("qlayout") / "data" / name).read_text()


def _digest(model) -> str:
    return hashlib.sha256(repr(model._compile()).encode()).hexdigest()[:16]


def _drawn_qx2():
    """qx2 with a synthetic calibration from random.Random(0): measurement
    0.93-0.98, one-qubit gates 0.998-0.9995, two-qubit gates 0.95-0.99."""
    rng = random.Random(0)
    base = load_device(_bundled("qx2.json"))
    return build_device(base.num_physical, base.edges, {
        "measure": [rng.uniform(0.93, 0.98) for _ in range(base.num_physical)],
        "single": [rng.uniform(0.998, 0.9995) for _ in range(base.num_physical)],
        "two": [rng.uniform(0.95, 0.99) for _ in range(base.num_edges)]})


def _digests(circuit_name, device_name, objective):
    device = load_device(_bundled(f"{device_name}.json"))
    return _model_digests(circuit_name, device, objective)


def _model_digests(circuit_name, device, objective):
    circuit = load_circuit(_bundled(f"{circuit_name}.gates"))
    pins = flow_pins(circuit, device, objective)
    coarse = [_digest(encode_tb(circuit, device, T, objective, pins=pins)[0]) for T in (2, 3)]
    model, vs = encode(circuit, device, EncodingConfig(T=circuit.longest_chain), pins=pins)
    apply_objective(model, vs, objective, device, circuit)
    return (*coarse, _digest(model))


@pytest.mark.parametrize("case", DIGESTS, ids="/".join)
def test_compiled_model_digests(case):
    assert _digests(*case) == DIGESTS[case]


@pytest.mark.parametrize("case", FIDELITY_DIGESTS, ids="/".join)
def test_fidelity_model_digests(case):
    circuit_name, profile = case
    device = load_device(_bundled("qx2.json")) if profile == "uniform" else _drawn_qx2()
    assert _model_digests(circuit_name, device, "fidelity") == FIDELITY_DIGESTS[case]
