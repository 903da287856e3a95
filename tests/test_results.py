"""Result serialization: exact round-trips, validation on parse."""

import json

import pytest

from qlayout.results import (
    GatePlacement,
    ResultError,
    SwapPlacement,
    SynthesisResult,
    result_from_json,
)

SAMPLE = SynthesisResult(
    solver_T=3,
    depth_slots=5,
    swap_count=1,
    fidelity_scaled=-123,
    initial_mapping=(0, 2),
    gates=(GatePlacement(0, 0, 1), GatePlacement(1, 4, 0)),
    swaps=(SwapPlacement(edge=1, finish_time=2),),
    mapping_trajectory=((0, 2), (0, 2), (0, 2), (0, 1), (0, 1)),
)


def test_roundtrip_identity():
    text = SAMPLE.to_json()
    again = result_from_json(text)
    assert again == SAMPLE
    assert again.to_json() == text


def test_blocks_field_optional():
    text = SAMPLE.to_json()
    assert "depth_blocks" not in text
    with_blocks = SynthesisResult(
        **{**SAMPLE.__dict__, "depth_blocks": 2})
    text2 = with_blocks.to_json()
    assert '"depth_blocks": 2' in text2
    assert result_from_json(text2) == with_blocks
    assert result_from_json(text2).to_json() == text2


def test_parse_rejects_malformed():
    with pytest.raises(ResultError):
        result_from_json("not json")
    with pytest.raises(ResultError):
        result_from_json("[]")
    with pytest.raises(ResultError):
        result_from_json("{}")
    # missing one required key
    obj = json.loads(SAMPLE.to_json())
    del obj["swap_count"]
    with pytest.raises(ResultError):
        result_from_json(json.dumps(obj))
    # a non-integral number or a string is refused, never floored
    for path, value in [(("gates", 0, "time"), 1.9), (("solver_T",), 2.5),
                        (("initial_mapping", 0), 4.4), (("swaps", 0, "edge"), "1"),
                        (("depth_blocks",), 1.5)]:
        obj = json.loads(SAMPLE.to_json())
        *head, last = path
        target = obj
        for key in head:
            target = target[key]
        target[last] = value
        with pytest.raises(ResultError):
            result_from_json(json.dumps(obj))


def test_parse_rejects_json_booleans():
    obj = json.loads(SAMPLE.to_json())
    obj["gates"][0]["time"] = True
    with pytest.raises(ResultError):
        result_from_json(json.dumps(obj))


def test_parse_errors_name_the_fault():
    with pytest.raises(ResultError, match="wrong type") as exc:
        result_from_json('{"gates": 5}')
    assert "missing" not in str(exc.value)
    obj = json.loads(SAMPLE.to_json())
    del obj["swap_count"]
    with pytest.raises(ResultError, match="missing field 'swap_count'"):
        result_from_json(json.dumps(obj))
