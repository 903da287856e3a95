"""Smoke test for the scripts in demos/: each main() finishes and prints."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    namespace = runpy.run_path(str(path), run_name="demo")
    namespace["main"]()
    assert capsys.readouterr().out.strip()
