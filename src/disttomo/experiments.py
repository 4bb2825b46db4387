"""Published experiment setups and their replication driver.

Three benchmark setups are bundled: two on a three-link tree probed by two
paths (one with well-separated rates, one with a near-degenerate rate pair
plus a negligible slow stage), and one on a four-link general topology
probed by three paths.  ``run_experiment`` simulates the setup, runs the
full estimation pipeline and reports the side-by-side comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GhMix, RoutingMatrix
from .pipeline import EstimateOptions, estimate_gh
from .simulate import sample_paths

__all__ = ["ExperimentSetup", "EXPERIMENTS", "get_setup", "run_experiment"]


@dataclass(frozen=True)
class ExperimentSetup:
    """One benchmark: topology, stage rates and ground-truth weights.

    ``dropped_stage`` marks a stage whose weights are negligible on every
    link; estimation then runs on the remaining rates and reports 0 for the
    dropped stage.  ``truth`` rows are normalized to sum to one.
    """

    name: str
    matrix: RoutingMatrix
    rates: tuple[float, ...]
    truth: np.ndarray
    dropped_stage: int | None = None

    @property
    def effective_rates(self) -> tuple[float, ...]:
        if self.dropped_stage is None:
            return self.rates
        return tuple(
            r for k, r in enumerate(self.rates) if k != self.dropped_stage
        )

    def mixes(self) -> list[GhMix]:
        return [GhMix(self.rates, tuple(w)) for w in self.truth]

    def expand(self, weights: np.ndarray) -> np.ndarray:
        """Insert the zero column for the dropped stage, if any."""
        if self.dropped_stage is None:
            return weights
        return np.insert(weights, self.dropped_stage, 0.0, axis=1)


def _normalized(rows) -> np.ndarray:
    t = np.array(rows, dtype=float)
    return t / t.sum(axis=1, keepdims=True)


_TREE = RoutingMatrix(((1, 1, 0), (1, 0, 1)))
_GENERAL = RoutingMatrix(((1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)))

EXPERIMENTS: dict[str, ExperimentSetup] = {
    "expt1": ExperimentSetup(
        name="expt1",
        matrix=_TREE,
        rates=(5.0, 3.0, 1.0),
        truth=_normalized(
            [[0.17, 0.80, 0.03], [0.13, 0.47, 0.40], [0.80, 0.15, 0.05]]
        ),
    ),
    "expt2": ExperimentSetup(
        name="expt2",
        matrix=_TREE,
        rates=(5.0, 4.0, 0.005, 1.0),
        truth=_normalized(
            [
                [0.71, 0.20, 0.0010, 0.08],
                [0.41, 0.17, 0.0015, 0.41],
                [0.15, 0.80, 0.0002, 0.04],
            ]
        ),
        dropped_stage=2,
    ),
    "expt3": ExperimentSetup(
        name="expt3",
        matrix=_GENERAL,
        rates=(5.0, 3.0, 1.0),
        truth=_normalized(
            [
                [0.34, 0.26, 0.40],
                [0.46, 0.49, 0.05],
                [0.12, 0.65, 0.23],
                [0.71, 0.19, 0.10],
            ]
        ),
    ),
}


def get_setup(name: str) -> ExperimentSetup:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(
    name: str,
    seed: int = 0,
    n_samples: int = 10**6,
    exact: bool = False,
) -> dict:
    """Simulate one benchmark setup and estimate its link weights.

    Returns a report dict with the actual and estimated weight tables (full
    stage count, dropped stage reported as 0) and the error norm.  ``exact``
    switches to the noise-free analytic-MGF mode.
    """
    setup = get_setup(name)
    if exact and setup.dropped_stage is not None:
        raise ValueError(f"{name} has a dropped stage; exact mode would not exercise it")
    samples = None if exact else sample_paths(
        setup.matrix, setup.mixes(), n_samples, seed=seed
    ).samples
    result, diags = estimate_gh(
        setup.matrix,
        setup.effective_rates,
        samples=samples,
        exact_mixes=setup.mixes() if exact else None,
        options=EstimateOptions(tau_seed=seed, solver_seed=seed),
    )
    estimated = setup.expand(result.weights)
    error_norm = float(np.linalg.norm((estimated - setup.truth).ravel()))
    return {
        "experiment": name,
        "seed": seed,
        "n_samples": None if exact else n_samples,
        "exact_mgf": exact,
        "rates": list(setup.rates),
        "effective_rates": list(setup.effective_rates),
        "dropped_stage": setup.dropped_stage,
        "actual": setup.truth.tolist(),
        "estimated": estimated.tolist(),
        "error_norm": error_norm,
        "delta": result.delta,
        "tau": {d.path_id: list(d.tau) for d in diags},
    }
