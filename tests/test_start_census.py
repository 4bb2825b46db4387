"""The restart census script runs against the shipped likelihood fit."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "start_census.py"


def test_census_run_continues_the_shipped_starts():
    spec = importlib.util.spec_from_file_location("start_census", SCRIPT)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    run = census.census_run("expt1", 0, 20_000, 8, 1e-6)
    assert run["shipped_starts"] == 7
    assert run["starts"] == 8
    assert run["k_needed"] <= 8
