import numpy as np
import pytest

from disttomo import match, pipeline
from disttomo.model import GhMix, RoutingMatrix
from disttomo.simulate import sample_paths

EXPT1 = RoutingMatrix(((1, 1, 0), (1, 0, 1)))
RATES = (5.0, 3.0, 1.0)
WEIGHTS = ((0.17, 0.80, 0.03), (0.13, 0.47, 0.40), (0.80, 0.15, 0.05))
TWIN_LINKS = RoutingMatrix(((1, 1), (1, 1)))


def _fail_matching(*args, **kwargs):
    raise match.AmbiguityError("no radius separates the clouds")


class TestMatchingFallback:
    def test_failure_warns_and_lands_in_provenance(self, monkeypatch):
        mixes = [GhMix(RATES, w) for w in WEIGHTS]
        samples = sample_paths(EXPT1, mixes, 20_000, seed=0).samples
        monkeypatch.setattr(match, "run_matching", _fail_matching)
        with pytest.warns(UserWarning, match="no radius separates the clouds"):
            result, _ = pipeline.estimate_gh(EXPT1, RATES, samples=samples)
        assert np.isnan(result.delta)
        assert np.allclose(result.weights.sum(axis=1), 1.0)
        for prov in result.provenance:
            assert prov["match_error"] == "no radius separates the clouds"

    def test_exact_mode_still_raises(self, monkeypatch):
        monkeypatch.setattr(match, "run_matching", _fail_matching)
        with pytest.raises(match.AmbiguityError):
            pipeline.estimate_gh(
                EXPT1, RATES, exact_mixes=[GhMix(RATES, w) for w in WEIGHTS]
            )


class TestIdentifiability:
    def test_estimate_gh_rejects_identical_columns(self):
        samples = [np.ones(10), np.ones(10)]
        with pytest.raises(ValueError, match="columns 1 and 2 are identical"):
            pipeline.estimate_gh(TWIN_LINKS, RATES, samples=samples)

    def test_estimate_exp_rejects_zero_column(self):
        a = RoutingMatrix(((1, 0), (1, 0)))
        with pytest.raises(ValueError, match="column 2 is all-zero"):
            pipeline.estimate_exp(a, exact_means=[1.0, 2.0])
