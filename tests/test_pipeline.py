import numpy as np
import pytest

from disttomo import match, mgfest, pipeline, polysolve
from disttomo.model import GhMix, RoutingMatrix
from disttomo.simulate import sample_paths

EXPT1 = RoutingMatrix(((1, 1, 0), (1, 0, 1)))
RATES = (5.0, 3.0, 1.0)
WEIGHTS = ((0.17, 0.80, 0.03), (0.13, 0.47, 0.40), (0.80, 0.15, 0.05))
TWIN_LINKS = RoutingMatrix(((1, 1), (1, 1)))
ONE_LINK = RoutingMatrix(((1,),))


def _fail_matching(*args, **kwargs):
    raise match.AmbiguityError("no radius separates the clouds")


def _forbidden(*args, **kwargs):
    raise AssertionError("the sampled likelihood fit ran an algebraic stage")


class TestSampledLikelihoodFit:
    def test_runs_no_algebraic_stage(self, monkeypatch):
        mixes = [GhMix(RATES, w) for w in WEIGHTS]
        samples = sample_paths(EXPT1, mixes, 20_000, seed=0).samples
        monkeypatch.setattr(polysolve, "solve_system", _forbidden)
        monkeypatch.setattr(match, "run_matching", _forbidden)
        monkeypatch.setattr(mgfest, "choose_tau", _forbidden)
        result, diagnostics = pipeline.estimate_gh(EXPT1, RATES, samples=samples)
        assert np.allclose(result.weights.sum(axis=1), 1.0)
        assert np.isnan(result.delta)
        assert result.provenance[0] == {"link": 0, "paths": [0, 1]}
        assert diagnostics == []


class TestMatchingFallback:
    """No estimator falls back when cross-path matching fails."""

    def test_algebraic_on_samples_raises(self, monkeypatch):
        samples = sample_paths(ONE_LINK, [GhMix(RATES, WEIGHTS[0])], 20_000, seed=0).samples
        monkeypatch.setattr(match, "run_matching", _fail_matching)
        with pytest.raises(match.AmbiguityError):
            pipeline.algebraic_gh(ONE_LINK, RATES, samples=samples)

    def test_exact_mode_still_raises(self, monkeypatch):
        monkeypatch.setattr(match, "run_matching", _fail_matching)
        with pytest.raises(match.AmbiguityError):
            pipeline.estimate_gh(
                EXPT1, RATES, exact_mixes=[GhMix(RATES, w) for w in WEIGHTS]
            )


class TestExactMode:
    def test_invalid_mixture_raises(self, monkeypatch):
        def invalid_row(*args, **kwargs):
            return match.MatchResult(
                weights=np.array([[3.83, -2.84, 0.01]]),
                provenance=({"link": 0, "paths": [0]},),
                delta=1e-3,
            )

        monkeypatch.setattr(match, "run_matching", invalid_row)
        with pytest.raises(RuntimeError, match="link 0 is not a valid mixture"):
            pipeline.estimate_gh(ONE_LINK, RATES, exact_mixes=[GhMix(RATES, WEIGHTS[0])])


class TestIdentifiability:
    def test_estimate_gh_rejects_identical_columns(self):
        samples = [np.ones(10), np.ones(10)]
        with pytest.raises(ValueError, match="columns 1 and 2 are identical"):
            pipeline.estimate_gh(TWIN_LINKS, RATES, samples=samples)

    def test_estimate_exp_rejects_zero_column(self):
        a = RoutingMatrix(((1, 0), (1, 0)))
        with pytest.raises(ValueError, match="column 2 is all-zero"):
            pipeline.estimate_exp(a, exact_means=[1.0, 2.0])


class TestSampleChecks:
    """Both sampled estimators reject bad samples before any work."""

    @staticmethod
    def _samples(case):
        mixes = [GhMix(RATES, w) for w in WEIGHTS]
        samples = list(sample_paths(EXPT1, mixes, 1000, seed=0).samples)
        if case == "short":
            return samples[:1], "path 1"
        y = samples[0].copy()
        if case == "empty":
            y = y[:0]
        else:
            y[3] = {"nan": np.nan, "inf": np.inf, "negative": -0.5}[case]
        samples[0] = y
        return samples, "path 0"

    @pytest.mark.parametrize("case", ["nan", "inf", "negative", "empty", "short"])
    def test_estimate_gh_rejects(self, case):
        samples, path = self._samples(case)
        with pytest.raises(ValueError, match=path):
            pipeline.estimate_gh(EXPT1, RATES, samples=samples)

    @pytest.mark.parametrize("case", ["nan", "inf", "negative", "empty", "short"])
    def test_estimate_exp_rejects(self, case):
        samples, path = self._samples(case)
        with pytest.raises(ValueError, match=path):
            pipeline.estimate_exp(EXPT1, samples=samples)
