"""The restart census script runs against the shipped likelihood fit."""

import importlib.util
from pathlib import Path

import numpy as np

from disttomo import experiments, pipeline
from disttomo.simulate import sample_paths

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "start_census.py"


def test_census_run_continues_the_shipped_starts():
    spec = importlib.util.spec_from_file_location("start_census", SCRIPT)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    run = census.census_run("expt1", 0, 20_000, 8, 1e-6)
    assert run["shipped_starts"] == 7
    assert run["starts"] == 8
    assert run["k_needed"] <= 8


def test_first_starts_of_a_longer_batch_are_the_shipped_fit():
    # the census reads the shipped fit off the first rows of its own batch
    setup = experiments.get_setup("expt1")
    a, rates = setup.matrix, setup.effective_rates
    n, d = a.n_links, len(rates) - 1
    samples = sample_paths(a, setup.mixes(), 20_000, seed=0).samples
    fits = pipeline._trust_newton(
        pipeline._likelihood_objective(a, rates, samples),
        pipeline._likelihood_starts(n, d, 0, 8),
    )
    free = fits.x[np.argmin(fits.fun[:pipeline._N_STARTS])].reshape(n, d)
    result, _ = pipeline.estimate_gh(
        a, rates, samples=samples, options=pipeline.EstimateOptions(solver_seed=0)
    )
    np.testing.assert_array_equal(np.column_stack([free, 1.0 - free.sum(axis=1)]),
                                  result.weights)
