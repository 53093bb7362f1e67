"""Demos 01-04 run to completion.

Each demo runs in-process from an empty working directory with its stdout
captured. Demo 05 (the full CLI pipeline, ~30 s) is left out: criterion 7
and tests/test_cli.py run the same commands.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    ["01_synthetic_events", "02_field_tokenizer", "03_dynamics_and_masks",
     "04_verification_metrics"],
)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.startswith("1. ")
