import math
import re

import numpy as np
import pytest

from disttomo.epsbuild import build_t_tau
from disttomo.mgfest import (
    TauSelectionError,
    assemble_constants,
    choose_tau,
    empirical_mgf,
    per_point_tolerance,
    required_samples,
)
from disttomo.model import GhMix, gh_mgf

RATES = (5.0, 3.0, 1.0)
LINK1 = GhMix(RATES, (0.17, 0.80, 0.03))


class TestEmpiricalMgf:
    def test_exact_on_constant_samples(self):
        samples = np.full(100, 2.0)
        assert empirical_mgf(samples, 1.0) == pytest.approx(math.exp(-2.0))

    def test_monte_carlo_matches_analytic(self):
        rng = np.random.default_rng(0)
        n = 10**5
        stages = rng.choice(3, size=n, p=LINK1.weights)
        draws = rng.exponential(1.0 / np.asarray(RATES)[stages])
        for t in (0.5, 1.0, 3.0):
            assert empirical_mgf(draws, t) == pytest.approx(
                gh_mgf(LINK1, t), abs=4.0 / math.sqrt(n)
            )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            empirical_mgf(np.array([]), 1.0)
        with pytest.raises(ValueError):
            empirical_mgf(np.array([-1.0]), 1.0)
        with pytest.raises(ValueError):
            empirical_mgf(np.array([1.0]), 0.0)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="delay samples must be finite"):
            empirical_mgf(np.array([1.0, bad]), 1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_t(self, t):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            empirical_mgf(np.array([1.0]), t)


class TestChooseTau:
    def test_count_and_positivity(self):
        tau = choose_tau(2, 2, RATES, seed=0)
        assert len(tau) == 4
        assert len(set(tau)) == 4
        assert all(t > 0 for t in tau)

    def test_deterministic_per_seed(self):
        assert choose_tau(2, 2, RATES, seed=5) == choose_tau(2, 2, RATES, seed=5)

    def test_resulting_matrix_well_conditioned(self):
        for seed in range(5):
            tau = choose_tau(2, 2, RATES, seed=seed, cond_limit=1e8)
            t_mat = build_t_tau(tau, 2, 2, RATES, cond_limit=1e8)
            assert np.linalg.cond(t_mat) < 1e8

    def test_exhausted_retries_raise(self):
        with pytest.raises(TauSelectionError):
            choose_tau(2, 2, RATES, seed=0, cond_limit=1.0, max_retries=3)

    # rates per stage count d; with d = 3 and N_i = 3 these have no probe
    # set with condition number below 1e10 in 50 draws for seeds 0-9
    RATES_BY_D = {1: (3.0, 1.0), 2: RATES, 3: (6.0, 3.0, 2.0, 1.0)}

    @staticmethod
    def _reference(n_i, d, lambdas, seed, cond_limit=1e10, max_retries=50):
        """choose_tau draw by draw: the least-amplifying admissible draw."""
        rng = np.random.default_rng(seed)
        best_tau, best_amp, best_cond = None, math.inf, math.inf
        for _ in range(max_retries):
            tau = tuple(np.exp(rng.uniform(
                np.log(0.05 * min(lambdas)), np.log(5.0 * max(lambdas)), d * n_i
            )).tolist())
            if len(set(tau)) != len(tau):
                continue
            t_mat = build_t_tau(tau, n_i, d, lambdas, cond_limit=np.inf)
            cond = np.linalg.cond(t_mat)
            if not cond <= cond_limit:
                best_cond = min(best_cond, cond)
                continue
            amp = np.linalg.norm(np.linalg.inv(t_mat), 2) * max(
                (lambdas[-1] + t) ** n_i for t in tau
            )
            if amp < best_amp:
                best_tau, best_amp = tau, amp
        if best_tau is None:
            raise TauSelectionError(
                f"no probe set with condition number below {cond_limit:.3g} in "
                f"{max_retries} tries (best seen {best_cond:.3g})"
            )
        return best_tau

    @pytest.mark.parametrize("n_i", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_least_amplifying_admissible_draw(self, n_i, d):
        lambdas = self.RATES_BY_D[d]
        for seed in range(10):
            try:
                expected = self._reference(n_i, d, lambdas, seed)
            except TauSelectionError as exc:
                with pytest.raises(TauSelectionError, match=re.escape(str(exc))):
                    choose_tau(n_i, d, lambdas, seed=seed)
            else:
                assert choose_tau(n_i, d, lambdas, seed=seed) == expected


class TestAssembleConstants:
    def test_exact_mode_matches_direct_evaluation(self):
        tau = (1.9857, 2.3782, 0.3581, 8.8619)
        mixes = [LINK1, GhMix(RATES, (0.13, 0.47, 0.40))]

        def exact(t):
            return gh_mgf(mixes[0], t) * gh_mgf(mixes[1], t)

        c_hat = assemble_constants(exact, tau, 2, RATES)
        for t, c in zip(tau, c_hat):
            assert c == pytest.approx(exact(t) * (1.0 + t) ** 2 - 1.0, rel=1e-12)


class TestRequiredSamples:
    def test_brute_force_inversion(self):
        # Smallest L with points * exp(-2 eps^2 L) <= kappa, checked directly.
        for eps in (0.05, 0.1, 0.3):
            for kappa in (0.01, 0.1):
                for points in (1, 4, 10):
                    n = required_samples(eps, kappa, points)
                    assert points * math.exp(-2 * eps * eps * n) <= kappa
                    if n > 1:
                        assert points * math.exp(-2 * eps * eps * (n - 1)) > kappa

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            required_samples(0.0, 0.1)
        with pytest.raises(ValueError):
            required_samples(0.1, 1.5)
        with pytest.raises(ValueError):
            required_samples(0.1, 0.1, points=0)

    @pytest.mark.parametrize("points", [2.5, 1.0, "3", None])
    def test_rejects_points_that_are_not_integers(self, points):
        with pytest.raises(ValueError, match="points must be an integer >= 1"):
            required_samples(0.1, 0.05, points=points)

    def test_numpy_integer_points(self):
        assert required_samples(0.1, 0.05, points=np.int64(3)) == required_samples(0.1, 0.05, 3)


class TestPerPointTolerance:
    def test_propagation_guarantee(self):
        # Perturbing every MGF value by the returned tolerance moves the
        # solved right-hand side by at most the target.
        tau = (0.5, 1.3, 2.9, 4.2)
        n_i, d = 2, 2
        t_mat = build_t_tau(tau, n_i, d, RATES)
        target = 0.01
        tol = per_point_tolerance(target, t_mat, tau, n_i, RATES)
        rng = np.random.default_rng(3)
        mgf = np.array([0.8, 0.6, 0.3, 0.2])
        scale = np.array([(RATES[-1] + t) ** n_i for t in tau])
        base = np.linalg.solve(t_mat, mgf * scale - RATES[-1] ** n_i)
        for _ in range(20):
            noisy = mgf + rng.uniform(-tol, tol, 4)
            moved = np.linalg.solve(t_mat, noisy * scale - RATES[-1] ** n_i)
            assert np.linalg.norm(moved - base) <= target * (1 + 1e-12)
