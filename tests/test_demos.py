from pathlib import Path

import pytest

from .child import run_child

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    "01_exact_allocation.py",
    "02_adjusted_allocation.py",
    "03_criteria_weights.py",
    "04_sampling.py",
    "05_scenarios_and_cli.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    run_child([str(ROOT / "demos" / name)], seconds=120, cwd=tmp_path)
