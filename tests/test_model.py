import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc
from scipy.stats import expon, kstest

from disttomo.model import (
    GhMix,
    _erlang_cdfs,
    RoutingMatrix,
    gh_cdf,
    gh_mean,
    gh_mgf,
    gh_pdf,
    hypoexp_cdf,
    incidence_sets,
    is_one_identifiable,
)

TABLE1_RATES = (5.0, 3.0, 1.0)
TABLE1_WEIGHTS = [(0.17, 0.80, 0.03), (0.13, 0.47, 0.40), (0.80, 0.15, 0.05)]
EXPT1_MATRIX = ((1, 1, 0), (1, 0, 1))
EXPT3_MATRIX = ((1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1))


def random_proper_mix(rng, d_plus_1=3):
    rates = tuple(sorted(rng.uniform(0.2, 8.0, d_plus_1), reverse=True))
    w = rng.dirichlet(np.ones(d_plus_1))
    return GhMix(rates, tuple(w))


class TestGhMixValidation:
    def test_rejects_nonpositive_rate(self):
        for rates in [(1.0, -2.0), (math.nan, 1.0), (1.0, math.inf)]:
            with pytest.raises(ValueError, match="strictly positive"):
                GhMix(rates, (0.5, 0.5))

    def test_rejects_duplicate_rates(self):
        with pytest.raises(ValueError, match="distinct"):
            GhMix((2.0, 2.0), (0.5, 0.5))

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GhMix((2.0, 1.0), (0.5, 0.6))
        # a NaN sum compares false with any tolerance
        for weights in [(math.nan, math.nan), (math.nan, 1.0), (math.inf, -math.inf)]:
            with pytest.raises(ValueError, match="weights must be finite"):
                GhMix((2.0, 1.0), weights)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="differ in length"):
            GhMix((2.0, 1.0), (1.0,))

    def test_rejects_negative_density(self):
        # Density at 0 is sum of w_k * lambda_k = 2*(-0.5) + 1*1.5 = 0.5 > 0
        # but the tail is dominated by the negative smallest-rate weight.
        with pytest.raises(ValueError, match="tail"):
            GhMix((2.0, 1.0), (1.5, -0.5))

    def test_accepts_valid_signed_mixture(self):
        # Small negative fast-stage weight with a positive tail stays valid.
        mix = GhMix((5.0, 1.0), (-0.05, 1.05))
        grid = np.geomspace(1e-4, 30.0, 500)
        assert min(gh_pdf(mix, float(u)) for u in grid) >= -1e-9

    def test_proper_mixture_flag(self):
        assert GhMix(TABLE1_RATES, TABLE1_WEIGHTS[0]).is_proper_mixture()
        assert not GhMix((5.0, 1.0), (-0.05, 1.05)).is_proper_mixture()


class TestGhEvaluation:
    def test_mgf_single_stage(self):
        assert gh_mgf(GhMix((1.0,), (1.0,)), 1.0) == pytest.approx(0.5)

    def test_mgf_at_zero_is_one(self):
        for w in TABLE1_WEIGHTS:
            assert gh_mgf(GhMix(TABLE1_RATES, w), 0.0) == pytest.approx(1.0)

    def test_mgf_table1_link3(self):
        # 0.80*5/6 + 0.15*3/4 + 0.05*1/2 = 0.804166...
        mix = GhMix(TABLE1_RATES, TABLE1_WEIGHTS[2])
        assert gh_mgf(mix, 1.0) == pytest.approx(0.8042, abs=1e-4)

    def test_mgf_rejects_negative_t(self):
        with pytest.raises(ValueError):
            gh_mgf(GhMix((1.0,), (1.0,)), -0.1)

    def test_cdf_at_zero(self):
        assert gh_cdf(GhMix(TABLE1_RATES, TABLE1_WEIGHTS[0]), 0.0) == 0.0

    def test_cdf_single_stage_median(self):
        assert gh_cdf(GhMix((1.0,), (1.0,)), math.log(2)) == pytest.approx(0.5)

    def test_cdf_matches_quadrature_oracle(self):
        mix = GhMix(TABLE1_RATES, TABLE1_WEIGHTS[0])
        for u in (0.3, 1.0, 2.5):
            integral, err = quad(lambda x: gh_pdf(mix, x), 0.0, u)
            assert gh_cdf(mix, u) == pytest.approx(integral, abs=1e-9)

    def test_cdf_matches_quadrature_on_random_mixes(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mix = random_proper_mix(rng)
            u = float(rng.uniform(0.1, 5.0))
            integral, _ = quad(lambda x: gh_pdf(mix, x), 0.0, u, limit=200)
            assert gh_cdf(mix, u) == pytest.approx(integral, abs=1e-8)

    def test_mean(self):
        mix = GhMix(TABLE1_RATES, TABLE1_WEIGHTS[0])
        assert gh_mean(mix) == pytest.approx(0.17 / 5 + 0.80 / 3 + 0.03)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_mgf_strictly_decreasing(self, seed):
        rng = np.random.default_rng(seed)
        mix = random_proper_mix(rng)
        grid = np.sort(rng.uniform(0.0, 20.0, 8))
        vals = [gh_mgf(mix, float(t)) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]) if a != b)
        assert np.all(np.diff(vals) < 0)


class TestHypoexpCdf:
    def test_two_distinct_rates_closed_form(self):
        # P(X1+X2 <= y) = 1 - (r2 e^{-r1 y} - r1 e^{-r2 y})/(r2 - r1)
        r1, r2 = 3.0, 1.0
        y = np.array([0.2, 0.7, 1.5, 4.0])
        expected = 1.0 - (r2 * np.exp(-r1 * y) - r1 * np.exp(-r2 * y)) / (r2 - r1)
        np.testing.assert_allclose(hypoexp_cdf((r1, r2), y), expected, atol=1e-12)

    def test_erlang_block(self):
        # k equal rates: CDF is the regularized lower incomplete gamma.
        r, k = 2.5, 4
        y = np.array([0.1, 0.8, 2.0, 5.0])
        np.testing.assert_allclose(
            hypoexp_cdf((r,) * k, y), gammainc(k, r * y), atol=1e-12
        )

    def test_mixed_multiplicities_vs_monte_carlo(self):
        rates = (5.0, 5.0, 1.0)
        rng = np.random.default_rng(11)
        draws = sum(rng.exponential(1.0 / r, size=200_000) for r in rates)
        for y in (0.5, 1.5, 3.0):
            empirical = float(np.mean(draws <= y))
            assert hypoexp_cdf(rates, y) == pytest.approx(empirical, abs=5e-3)

    def test_limits(self):
        assert hypoexp_cdf((2.0, 1.0), 0.0) == pytest.approx(0.0, abs=1e-15)
        assert hypoexp_cdf((2.0, 1.0), 200.0) == pytest.approx(1.0, abs=1e-12)

    def test_single_rate_is_exponential(self):
        y = np.linspace(0.0, 5.0, 20)
        np.testing.assert_allclose(
            hypoexp_cdf((1.7,), y), 1.0 - np.exp(-1.7 * y), atol=1e-12
        )

    @pytest.mark.parametrize("rates", [(2.0, 1.0), (3.0, 3.0, 1.0), (1.5,) * 4])
    def test_scalar_is_zero_at_zero_and_tends_to_one(self, rates):
        at_zero = hypoexp_cdf(rates, 0.0)
        assert np.ndim(at_zero) == 0 and at_zero == 0.0
        far = [float(hypoexp_cdf(rates, y)) for y in (10.0, 50.0, 1e3)]
        assert far == sorted(far)
        assert abs(far[-1] - 1.0) <= 1e-12

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            hypoexp_cdf((), 1.0)
        with pytest.raises(ValueError):
            hypoexp_cdf((1.0, -2.0), 1.0)
        for rates in [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (0.0, 1.0), (-2.0, 1.0), ()]:
            with pytest.raises(ValueError, match="nonempty, finite and strictly positive"):
                hypoexp_cdf(rates, [1.0])


class TestErlangCdfs:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_regularized_incomplete_gamma(self, m):
        x = np.concatenate([[0.0], np.geomspace(1e-300, 1e3, 2000)])
        got = _erlang_cdfs(m, x)
        expected = gammainc(np.arange(1, m + 1)[:, None], x)
        assert got.shape == (m, x.size)
        err = np.abs(got - expected)
        assert err.max() <= 2e-15
        resolved = expected > 1e-290
        assert (err[resolved] / expected[resolved]).max() <= 1e-12
        assert np.all(got[:, 0] == 0.0)


class TestRoutingMatrix:
    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            RoutingMatrix(((1, 2),))

    @pytest.mark.parametrize("entries", [((1, 0.7),), ((1.9, 1),), ((1, 0), (1, -0.2))])
    def test_rejects_fractional_entries(self, entries):
        with pytest.raises(ValueError, match="0 or 1"):
            RoutingMatrix(entries)
        with pytest.raises(ValueError, match="0 or 1"):
            RoutingMatrix.from_array(entries)

    def test_whole_floats_become_ints(self):
        a = RoutingMatrix.from_array([[1.0, 0.0], [True, 1]])
        assert a.entries == ((1, 0), (1, 1))
        assert all(type(v) is int for row in a.entries for v in row)

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError, match="all-zero row"):
            RoutingMatrix(((1, 0), (0, 0)))

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="equal length"):
            RoutingMatrix(((1, 0), (1,)))

    def test_roundtrip(self):
        a = RoutingMatrix(EXPT1_MATRIX)
        assert RoutingMatrix.from_array(a.to_array()) == a


class TestIdentifiability:
    def test_expt1_matrix(self):
        assert is_one_identifiable(RoutingMatrix(EXPT1_MATRIX))

    def test_expt3_matrix(self):
        assert is_one_identifiable(RoutingMatrix(EXPT3_MATRIX))

    def test_duplicate_columns(self):
        assert not is_one_identifiable(np.array([[1, 1, 0], [1, 1, 1]]))

    def test_zero_column(self):
        assert not is_one_identifiable(np.array([[1, 0, 1], [1, 0, 0]]))

    def test_agrees_with_rank_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = rng.integers(2, 7)
            n = rng.integers(2, 9)
            a = rng.integers(0, 2, size=(m, n))
            if (a.sum(axis=1) == 0).any():
                a[a.sum(axis=1) == 0, 0] = 1
            expected = all(
                np.linalg.matrix_rank(a[:, [j1, j2]]) == 2
                for j1 in range(n)
                for j2 in range(j1 + 1, n)
            )
            assert is_one_identifiable(a) == expected


class TestIncidenceSets:
    def test_expt1_sets(self):
        sets = RoutingMatrix(EXPT1_MATRIX).sets
        assert sets.path_links == (frozenset({0, 1}), frozenset({0, 2}))
        assert sets.link_paths[0] == frozenset({0, 1})
        assert sets.shared == frozenset({0})
        assert sets.off_paths[1] == frozenset({1})

    def test_expt3_shared(self):
        assert RoutingMatrix(EXPT3_MATRIX).sets.shared == frozenset({0, 1})

    def test_identity_matrix(self):
        sets = incidence_sets(np.eye(4, dtype=int))
        assert sets.shared == frozenset()
        assert all(len(p) == 1 for p in sets.path_links)

    def test_unique_intersection_lemma(self):
        # On 1-identifiable matrices, intersecting the paths through j and
        # the complements of the paths avoiding j isolates exactly {j}.
        rng = np.random.default_rng(5)
        tried = 0
        while tried < 50:
            a = rng.integers(0, 2, size=(rng.integers(2, 6), rng.integers(2, 7)))
            if (a.sum(axis=1) == 0).any() or not is_one_identifiable(a):
                continue
            tried += 1
            sets = incidence_sets(a)
            all_links = frozenset(range(a.shape[1]))
            for j in range(a.shape[1]):
                acc = all_links
                for g in sets.link_paths[j]:
                    acc &= sets.path_links[g]
                for b in sets.off_paths[j]:
                    acc &= all_links - sets.path_links[b]
                assert acc == frozenset({j})
