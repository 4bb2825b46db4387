import math

import numpy as np
import pytest

from disttomo import pipeline
from disttomo.expmeans import (
    build_mean_system,
    match_means,
    solve_means,
)
from disttomo.model import GhMix, RoutingMatrix
from disttomo.polysolve import solve_system
from disttomo.simulate import sample_paths

EXPT1 = RoutingMatrix(((1, 1, 0), (1, 0, 1)))


def exact_mgf_for_means(means):
    return lambda t: math.prod(1.0 / (1.0 + t * m) for m in means)


class TestBuildMeanSystem:
    def test_two_link_worked_example(self):
        # Means (1, 2): 1/MGF = (1+t)(1+2t) = 1 + 3t + 2t^2, so the
        # elementary symmetric values are e = (3, 2).
        system = build_mean_system(
            (1.0, 2.0), 2, exact_mgf=exact_mgf_for_means([1.0, 2.0])
        )
        np.testing.assert_allclose(system.esp, (3.0, 2.0), atol=1e-12)

    def test_single_link(self):
        system = build_mean_system((0.7,), 1, exact_mgf=exact_mgf_for_means([1.0]))
        assert system.esp[0] == pytest.approx(1.0)

    def test_sampled_mode_close_to_exact(self):
        rng = np.random.default_rng(0)
        n = 10**6
        samples = rng.exponential(1.0, n) + rng.exponential(2.0, n)
        system = build_mean_system((0.3, 0.8), 2, samples=samples)
        np.testing.assert_allclose(system.esp, (3.0, 2.0), atol=0.05)

    def test_rejects_bad_tau_and_sources(self):
        with pytest.raises(ValueError, match="distinct"):
            build_mean_system((1.0, 1.0), 2, exact_mgf=exact_mgf_for_means([1, 2]))
        with pytest.raises(ValueError, match="exactly one"):
            build_mean_system((1.0, 2.0), 2)


class TestSolveMeans:
    def test_vieta_roundtrip(self):
        system = build_mean_system(
            (1.0, 2.0), 2, exact_mgf=exact_mgf_for_means([1.0, 2.0])
        )
        means, flagged = solve_means(system)
        np.testing.assert_allclose(means, [1.0, 2.0], atol=1e-10)
        assert not flagged

    def test_three_links_exact(self):
        truth = [0.5, 1.0, 4.0]
        system = build_mean_system(
            (0.2, 0.9, 2.5), 3, exact_mgf=exact_mgf_for_means(truth)
        )
        means, flagged = solve_means(system)
        np.testing.assert_allclose(means, sorted(truth), atol=1e-9)
        assert not flagged

    def test_duplicate_means_flagged_degenerate(self):
        system = build_mean_system(
            (0.5, 1.5), 2, exact_mgf=exact_mgf_for_means([1.0, 1.0])
        )
        with pytest.warns(UserWarning, match="coincident"):
            _, flagged = solve_means(system)
        assert flagged

    def test_random_roundtrip_to_1e9(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n_i = int(rng.integers(1, 5))
            truth = np.sort(rng.uniform(0.2, 5.0, n_i))
            while n_i > 1 and np.min(np.diff(truth)) < 0.05:
                truth = np.sort(rng.uniform(0.2, 5.0, n_i))
            tau = tuple(np.geomspace(0.1, 2.0, n_i) * rng.uniform(0.8, 1.2))
            system = build_mean_system(
                tau, n_i, exact_mgf=exact_mgf_for_means(truth)
            )
            means, flagged = solve_means(system)
            assert not flagged
            np.testing.assert_allclose(means, truth, atol=1e-9)


class TestMultivariateEquivalence:
    def test_vieta_matches_multivariate_solution_set(self):
        # The multivariate formulation's roots are exactly the permutations
        # of the mean vector recovered by the univariate reduction.
        rng = np.random.default_rng(11)
        for _ in range(20):
            n_i = int(rng.integers(2, 4))
            truth = np.sort(rng.uniform(0.3, 4.0, n_i))
            while np.min(np.diff(truth)) < 0.1:
                truth = np.sort(rng.uniform(0.3, 4.0, n_i))
            tau = tuple(np.geomspace(0.15, 1.5, n_i) * rng.uniform(0.9, 1.1))
            system = build_mean_system(
                tau, n_i, exact_mgf=exact_mgf_for_means(truth)
            )
            # a path of exponential links is a d = 1 path whose right-hand
            # side is the elementary symmetric values; d = 1 has no stage
            # relation, so the two rates do not enter
            sol = solve_system(system.esp, n_i, (2.0, 1.0))
            roots = sorted(tuple(np.round(r.real, 7)) for r in sol.roots)
            from itertools import permutations

            expected = sorted(
                set(tuple(np.round(p, 7)) for p in permutations(truth))
            )
            assert roots == expected


class TestMatchMeans:
    def test_expt1_matrix_exact(self):
        path_means = {0: np.array([1.0, 2.0]), 1: np.array([1.0, 3.0])}
        means, result = match_means(EXPT1, path_means)
        np.testing.assert_allclose(means, [1.0, 2.0, 3.0], atol=1e-12)

    def test_single_link_network(self):
        a = RoutingMatrix(((1,),))
        means, _ = match_means(a, {0: np.array([2.5])})
        assert means[0] == pytest.approx(2.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="means for"):
            match_means(EXPT1, {0: np.array([1.0]), 1: np.array([1.0, 3.0])})


class TestEstimateExpPipeline:
    def test_exact_mode(self):
        means, result, _ = pipeline.estimate_exp(
            EXPT1, exact_means=[1.0, 2.0, 3.0], ground_truth=[1.0, 2.0, 3.0]
        )
        np.testing.assert_allclose(means, [1.0, 2.0, 3.0], atol=1e-9)
        assert result.error_norm == pytest.approx(0.0, abs=1e-9)

    def test_sampled_mode_within_two_percent(self):
        truth = [1.0, 2.0, 3.0]
        mixes = [GhMix((1.0 / m,), (1.0,)) for m in truth]
        ss = sample_paths(EXPT1, mixes, 10**6, seed=0)
        means, _, _ = pipeline.estimate_exp(EXPT1, samples=ss.samples)
        np.testing.assert_allclose(means, truth, rtol=0.02)

    def test_default_delta_on_two_shared_links(self):
        a = RoutingMatrix(((1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)))
        truth = [0.4, 1.0, 2.5, 4.0]
        mixes = [GhMix((1.0 / m,), (1.0,)) for m in truth]
        ss = sample_paths(a, mixes, 200_000, seed=2)
        means, _, _ = pipeline.estimate_exp(a, samples=ss.samples)
        assert len(means) == 4
        assert np.linalg.norm(means - truth) < 0.1
