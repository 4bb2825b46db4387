"""Per-link delay distribution estimation from end-to-end path delay samples.

Links are modelled as generalized hyperexponential distributions over a
shared, known rate vector (or as plain exponentials); end-to-end delay
samples per path are turned into per-link weight vectors (or means) on
1-identifiable topologies, either by solving per-path polynomial systems and
matching the solutions across paths (``algebraic_gh``, ``estimate_exp``) or,
for GH weights on samples, by a binned likelihood fit (``estimate_gh``).
"""

from .experiments import EXPERIMENTS, ExperimentSetup, get_setup, run_experiment
from .model import (
    GhMix,
    RoutingMatrix,
    gh_cdf,
    gh_mean,
    gh_mgf,
    gh_pdf,
    hypoexp_cdf,
    incidence_sets,
    is_one_identifiable,
)
from .pipeline import (
    EstimateOptions, PathDiagnostics, algebraic_gh, estimate_exp, estimate_gh
)
from .simulate import SampleSet, sample_mix, sample_paths

__all__ = [
    "GhMix",
    "RoutingMatrix",
    "gh_mgf",
    "gh_cdf",
    "gh_pdf",
    "gh_mean",
    "hypoexp_cdf",
    "is_one_identifiable",
    "incidence_sets",
    "SampleSet",
    "sample_mix",
    "sample_paths",
    "EstimateOptions",
    "PathDiagnostics",
    "algebraic_gh",
    "estimate_gh",
    "estimate_exp",
    "ExperimentSetup",
    "EXPERIMENTS",
    "get_setup",
    "run_experiment",
]

__version__ = "0.1.0"
