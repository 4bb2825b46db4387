import math
from itertools import permutations

import numpy as np
import pytest

from disttomo import expmeans, pipeline
from disttomo.expmeans import build_mean_system
from disttomo.match import AmbiguityError, PathSolutions, run_matching
from disttomo.model import GhMix, RoutingMatrix
from disttomo.polysolve import solve_system
from disttomo.simulate import sample_paths

EXPT1 = RoutingMatrix(((1, 1, 0), (1, 0, 1)))
EXPT3 = RoutingMatrix(((1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)))
EXPT3_MEANS = (0.4, 1.0, 2.5, 4.0)
# A path of exponential links is a d = 1 path whose right-hand side is the
# elementary symmetric values of its means; d = 1 has no stage relation, so
# the two rates do not enter.
EXP_RATES = (2.0, 1.0)


def exact_mgf_for_means(means):
    return lambda t: math.prod(1.0 / (1.0 + t * m) for m in means)


def _esp(means):
    """The elementary symmetric values of ``means``, read off their monic
    polynomial."""
    coeffs = np.poly(means)
    return (-1.0) ** np.arange(1, len(means) + 1) * coeffs[1:]


def _real_roots(esp, n_i):
    """The roots of the d = 1 system of a path of ``n_i`` links with
    right-hand side ``esp``, real within the exact-MGF bound."""
    return solve_system(esp, n_i, EXP_RATES).real_roots(1e-6)


def _matched_means(a, path_means):
    """Each link's mean matched from exact per-path means as ``estimate_exp``
    matches them: the d = 1 roots of every path, then ``run_matching``."""
    solutions = {}
    for i, means in path_means.items():
        links = tuple(sorted(a.path_links(i)))
        roots = _real_roots(_esp(means), len(links))
        solutions[i] = PathSolutions(i, links, tuple(tuple(r.reshape(-1, 1)) for r in roots))
    return run_matching(a, solutions, d=1).weights[:, 0]


def _vieta_permutation_means(a, samples, taus, delta=None):
    """Reference for ``estimate_exp`` by a separate route.

    Each path's means are the real parts of the roots of its monic Vieta
    polynomial, from ``np.roots``, and every ordering of them is one
    candidate root for ``run_matching``: the d = 1 system's roots are
    exactly those orderings.
    """
    solutions = {}
    for i, tau in taus.items():
        links = tuple(sorted(a.path_links(i)))
        esp = build_mean_system(tau, len(links), samples=samples[i])
        coeffs = np.concatenate([[1.0], (-1.0) ** np.arange(1, len(esp) + 1) * esp])
        means = np.sort(np.roots(coeffs).real)
        roots = tuple(
            tuple(np.array([m]) for m in perm) for perm in sorted(set(permutations(means)))
        )
        solutions[i] = PathSolutions(i, links, roots)
    return run_matching(a, solutions, d=1, delta=delta).weights[:, 0]


class TestBuildMeanSystem:
    def test_two_link_worked_example(self):
        # Means (1, 2): 1/MGF = (1+t)(1+2t) = 1 + 3t + 2t^2, so the
        # elementary symmetric values are e = (3, 2).
        esp = build_mean_system((1.0, 2.0), 2, exact_mgf=exact_mgf_for_means([1.0, 2.0]))
        np.testing.assert_allclose(esp, (3.0, 2.0), atol=1e-12)

    def test_single_link(self):
        esp = build_mean_system((0.7,), 1, exact_mgf=exact_mgf_for_means([1.0]))
        assert esp[0] == pytest.approx(1.0)

    def test_sampled_mode_close_to_exact(self):
        rng = np.random.default_rng(0)
        n = 10**6
        samples = rng.exponential(1.0, n) + rng.exponential(2.0, n)
        esp = build_mean_system((0.3, 0.8), 2, samples=samples)
        np.testing.assert_allclose(esp, (3.0, 2.0), atol=0.05)

    def test_rejects_bad_tau_and_sources(self):
        with pytest.raises(ValueError, match="distinct"):
            build_mean_system((1.0, 1.0), 2, exact_mgf=exact_mgf_for_means([1, 2]))
        with pytest.raises(ValueError, match="exactly one"):
            build_mean_system((1.0, 2.0), 2)


class TestSolveMeans:
    """A path's means from exact MGFs: its elementary symmetric values, then
    the d = 1 solve, whose real roots are every ordering of the means."""

    @staticmethod
    def _check_roundtrip(tau, truth, atol):
        esp = build_mean_system(tau, len(truth), exact_mgf=exact_mgf_for_means(truth))
        roots = _real_roots(esp, len(truth))
        assert len(roots) == math.factorial(len(truth))
        for root in roots:
            np.testing.assert_allclose(np.sort(root), np.sort(truth), atol=atol)

    def test_vieta_roundtrip(self):
        self._check_roundtrip((1.0, 2.0), [1.0, 2.0], atol=1e-10)

    def test_three_links_exact(self):
        self._check_roundtrip((0.2, 0.9, 2.5), [0.5, 1.0, 4.0], atol=1e-9)

    def test_duplicate_means_merge_to_one_root(self):
        # the two orderings of coincident means are one root
        esp = build_mean_system((0.5, 1.5), 2, exact_mgf=exact_mgf_for_means([1.0, 1.0]))
        sol = solve_system(esp, 2, EXP_RATES)
        assert sol.n_roots == 1
        np.testing.assert_allclose(sol.roots[0].real, [1.0, 1.0], atol=1e-6)

    def test_random_roundtrip_to_1e9(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n_i = int(rng.integers(1, 5))
            truth = np.sort(rng.uniform(0.2, 5.0, n_i))
            while n_i > 1 and np.min(np.diff(truth)) < 0.05:
                truth = np.sort(rng.uniform(0.2, 5.0, n_i))
            tau = tuple(np.geomspace(0.1, 2.0, n_i) * rng.uniform(0.8, 1.2))
            self._check_roundtrip(tau, truth, atol=1e-9)


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
            esp = build_mean_system(tau, n_i, exact_mgf=exact_mgf_for_means(truth))
            sol = solve_system(esp, n_i, EXP_RATES)
            roots = sorted(tuple(np.round(r.real, 7)) for r in sol.roots)
            expected = sorted(
                set(tuple(np.round(p, 7)) for p in permutations(truth))
            )
            assert roots == expected


class TestMatchMeans:
    def test_expt1_matrix_exact(self):
        means = _matched_means(EXPT1, {0: np.array([1.0, 2.0]), 1: np.array([1.0, 3.0])})
        np.testing.assert_allclose(means, [1.0, 2.0, 3.0], atol=1e-12)

    def test_single_link_network(self):
        means = _matched_means(RoutingMatrix(((1,),)), {0: np.array([2.5])})
        assert means[0] == pytest.approx(2.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="a path of 2 links"):
            _matched_means(EXPT1, {0: np.array([1.0]), 1: np.array([1.0, 3.0])})


class TestEstimateExpPipeline:
    def test_exact_mode(self):
        means, result, diagnostics = pipeline.estimate_exp(
            EXPT1, exact_means=[1.0, 2.0, 3.0], ground_truth=[1.0, 2.0, 3.0]
        )
        np.testing.assert_allclose(means, [1.0, 2.0, 3.0], atol=1e-9)
        assert result.error_norm == pytest.approx(0.0, abs=1e-9)
        # both orderings of each path's two means are roots
        assert [d.n_roots for d in diagnostics] == [2, 2]

    def test_sampled_mode_within_two_percent(self):
        truth = [1.0, 2.0, 3.0]
        mixes = [GhMix((1.0 / m,), (1.0,)) for m in truth]
        ss = sample_paths(EXPT1, mixes, 10**6, seed=0)
        means, _, _ = pipeline.estimate_exp(EXPT1, samples=ss.samples)
        np.testing.assert_allclose(means, truth, rtol=0.02)

    def test_default_delta_on_two_shared_links(self):
        mixes = [GhMix((1.0 / m,), (1.0,)) for m in EXPT3_MEANS]
        ss = sample_paths(EXPT3, mixes, 200_000, seed=2)
        means, _, _ = pipeline.estimate_exp(EXPT3, samples=ss.samples)
        assert len(means) == 4
        assert np.linalg.norm(means - EXPT3_MEANS) < 0.1

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_vieta_permutation_reference(self, seed):
        mixes = [GhMix((1.0 / m,), (1.0,)) for m in EXPT3_MEANS]
        samples = sample_paths(EXPT3, mixes, 200_000, seed=seed).samples
        options = pipeline.EstimateOptions(delta=0.05)
        means, _, diagnostics = pipeline.estimate_exp(EXPT3, samples=samples, options=options)
        taus = {d.path_id: d.tau for d in diagnostics}
        want = _vieta_permutation_means(EXPT3, samples, taus, delta=0.05)
        np.testing.assert_allclose(means, want, rtol=0, atol=1e-12)

    def test_complex_means_raise(self, monkeypatch):
        # e = (2, 2) is the monic s^2 - 2s + 2, whose roots 1 +- i lie
        # beyond the sampled bound of real roots
        monkeypatch.setattr(expmeans, "build_mean_system", lambda *args: np.array([2.0, 2.0]))
        mixes = [GhMix((1.0 / m,), (1.0,)) for m in (1.0, 2.0, 3.0)]
        samples = sample_paths(EXPT1, mixes, 1000, seed=0).samples
        with pytest.raises(AmbiguityError, match="path 0 has no real root"):
            pipeline.estimate_exp(EXPT1, samples=samples)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_exact_mean(self, bad):
        with pytest.raises(ValueError, match="exact_means: link 1 has mean"):
            pipeline.estimate_exp(EXPT1, exact_means=[1.0, bad, 3.0])
