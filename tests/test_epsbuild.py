import math
from fractions import Fraction

import numpy as np
import pytest

from disttomo.epsbuild import (
    CompositionL,
    SparsePoly,
    beta_coeff,
    build_eps,
    build_t_tau,
    canonical_poly_value,
    enumerate_compositions,
    expand_lambda_power,
    g_poly,
    gamma_coeff,
    lambda_basis,
    stage_relations,
    var_index,
)
from disttomo.model import GhMix, gh_mgf

RATES = (5.0, 3.0, 1.0)


def random_instance(rng, max_n=4, max_d=3):
    n_i = int(rng.integers(1, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    lambdas = np.sort(rng.uniform(0.3, 9.0, d + 1))[::-1]
    while np.min(np.abs(np.diff(lambdas))) < 1e-2:
        lambdas = np.sort(rng.uniform(0.3, 9.0, d + 1))[::-1]
    return n_i, d, tuple(float(v) for v in lambdas)


class TestCompositions:
    def test_count_is_binomial(self):
        for parts, total in [(2, 3), (3, 2), (4, 4)]:
            comps = enumerate_compositions(parts, total)
            assert len(comps) == math.comb(total + parts - 1, parts - 1)
            assert all(c.total == total for c in comps)
            assert len(set(c.parts for c in comps)) == len(comps)

    def test_support_excludes_last_part(self):
        comp = CompositionL((1, 0, 2))
        assert comp.support() == (1,)

    def test_rejects_negative_parts(self):
        with pytest.raises(ValueError):
            CompositionL((1, -1))


class TestGPoly:
    def test_monomial_count_is_multinomial(self):
        comp = CompositionL((1, 1, 1))
        poly = g_poly(comp, 3, 2)
        assert len(poly.terms) == math.factorial(3)  # 3!/(1!1!1!)

    def test_pure_last_stage_contributes_constant(self):
        comp = CompositionL((0, 0, 2))
        poly = g_poly(comp, 2, 2)
        assert poly.terms == {(0, 0, 0, 0): 1}

    def test_variable_mapping(self):
        # Composition (2, 0, 0) on a 2-link path: the single monomial is
        # x_{11} * x_{21}.
        poly = g_poly(CompositionL((2, 0, 0)), 2, 2)
        exps = [0, 0, 0, 0]
        exps[var_index(1, 1, 2)] = 1
        exps[var_index(2, 1, 2)] = 1
        assert poly.terms == {tuple(exps): 1}


class TestSparsePoly:
    def test_evaluation_and_derivative(self):
        p = SparsePoly(2, {(2, 0): 3, (0, 1): -1})
        x = np.array([2.0, 5.0])
        assert p(x) == pytest.approx(3 * 4 - 5)

    def test_zero_coefficients_dropped(self):
        p = SparsePoly(1)
        p.add_term((1,), 2)
        p.add_term((1,), -2)
        assert p.terms == {}


class TestCoefficients:
    def test_beta_diagonal_is_one(self):
        assert beta_coeff(1, 1, RATES) == 1.0
        assert beta_coeff(2, 2, RATES) == 1.0

    def test_beta_exact_value(self):
        lam = (Fraction(5), Fraction(3), Fraction(1))
        assert beta_coeff(1, 2, lam) == Fraction(5) * (3 - 1) / (5 - 3)

    def test_beta_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            beta_coeff(0, 1, RATES)
        with pytest.raises(ValueError):
            beta_coeff(1, 3, RATES)

    def test_gamma_rejects_bad_stage(self):
        comp = CompositionL((2, 0, 0))
        with pytest.raises(ValueError):
            gamma_coeff(2, 1, comp, RATES)
        with pytest.raises(ValueError):
            gamma_coeff(1, 3, comp, RATES)


class TestExpansionIdentity:
    def test_single_composition_identity(self):
        # The expansion of one basis product must reproduce it at every t.
        comp = CompositionL((1, 1, 0))
        n_i, d = 2, 2
        terms = expand_lambda_power(comp, n_i, RATES)
        last = RATES[-1]
        for t in (0.3, 1.0, 4.7):
            lhs = math.prod(
                lambda_basis(k, t, RATES) ** comp.parts[k - 1] for k in (1, 2)
            ) * last ** comp.parts[-1]
            rhs = sum(
                c * lambda_basis(k, t, RATES) ** q * last ** (n_i - q)
                for k, q, c in terms
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_random_composition_identities(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n_i, d, lambdas = random_instance(rng)
            comps = [c for c in enumerate_compositions(d + 1, n_i) if c.support()]
            comp = comps[rng.integers(len(comps))]
            terms = expand_lambda_power(comp, n_i, lambdas)
            last = lambdas[-1]
            for t in rng.uniform(0.05, 10.0, 20):
                lhs = math.prod(
                    lambda_basis(k, t, lambdas) ** comp.parts[k - 1]
                    for k in range(1, d + 1)
                ) * last ** comp.parts[-1]
                rhs = sum(
                    c * lambda_basis(k, t, lambdas) ** q * last ** (n_i - q)
                    for k, q, c in terms
                )
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_pure_constant_composition_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            expand_lambda_power(CompositionL((0, 0, 2)), 2, RATES)


class TestBuildEps:
    def test_system_shape_and_degrees(self):
        polys = build_eps(2, 2, RATES)
        assert len(polys) == 4
        assert all(p.nvars == 4 for p in polys)
        # h_k1 rows are degree <= 2 (products over two links), h_k2 degree 2.
        assert all(p.degree() <= 2 for p in polys)

    def test_representation_equivalence(self):
        # T_tau @ E(x) + last^{N_i} equals the direct product-form polynomial
        # at each probe point, for random x and tau.
        rng = np.random.default_rng(23)
        for _ in range(25):
            n_i, d, lambdas = random_instance(rng, max_n=3, max_d=2)
            polys = build_eps(n_i, d, lambdas)
            tau = tuple(np.exp(rng.uniform(np.log(0.05), np.log(8.0), d * n_i)))
            try:
                t_mat = build_t_tau(tau, n_i, d, lambdas, cond_limit=1e14)
            except np.linalg.LinAlgError:
                continue
            x = rng.normal(0.0, 1.0, d * n_i)
            e_val = np.array([p(x).real for p in polys])
            lifted = t_mat @ e_val + lambdas[-1] ** n_i
            for row, t in enumerate(tau):
                direct = canonical_poly_value(x, t, n_i, d, lambdas, 0.0).real
                assert lifted[row] == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_block_permutation_symmetry(self):
        # Swapping the per-link variable blocks leaves every polynomial value
        # unchanged.
        rng = np.random.default_rng(29)
        polys = build_eps(3, 2, RATES)
        for _ in range(10):
            x = rng.normal(size=6)
            perm = rng.permutation(3)
            x_sigma = np.concatenate([x[2 * j: 2 * j + 2] for j in perm])
            for p in polys:
                assert abs(p(x) - p(x_sigma)) < 1e-12

    def test_exact_fraction_mode(self):
        lam = (Fraction(5), Fraction(3), Fraction(1))
        polys = build_eps(2, 2, lam)
        assert all(
            isinstance(c, (Fraction, int)) for p in polys for c in p.terms.values()
        )


class TestBuildTTau:
    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError, match="probe points"):
            build_t_tau((1.0, 2.0), 2, 2, RATES)

    def test_rejects_duplicates_and_nonpositive(self):
        with pytest.raises(ValueError):
            build_t_tau((1.0, 1.0, 2.0, 3.0), 2, 2, RATES)
        with pytest.raises(ValueError):
            build_t_tau((1.0, -1.0, 2.0, 3.0), 2, 2, RATES)

    def test_random_distinct_taus_invertible(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            tau = tuple(np.exp(rng.uniform(np.log(0.1), np.log(5.0), 4)))
            t_mat = build_t_tau(tau, 2, 2, RATES, cond_limit=np.inf)
            assert np.isfinite(np.linalg.cond(t_mat))

    def test_entries_are_scaled_basis_powers(self):
        # column (b-1)*N_i + q - 1 holds Lambda_b(t)^q * last^(N_i - q), built
        # here entry by entry; the matrix takes its powers in one array pass,
        # which may round them differently in the last bit
        rng = np.random.default_rng(37)
        for _ in range(20):
            n_i, d, lambdas = random_instance(rng, max_n=3, max_d=3)
            tau = tuple(np.exp(rng.uniform(np.log(0.05), np.log(8.0), d * n_i)))
            t_mat = build_t_tau(tau, n_i, d, lambdas, cond_limit=np.inf)
            expected = [
                [lambda_basis(b, t, lambdas) ** q * lambdas[-1] ** (n_i - q)
                 for b in range(1, d + 1) for q in range(1, n_i + 1)]
                for t in tau
            ]
            np.testing.assert_allclose(t_mat, expected, rtol=1e-15, atol=0)

    def test_condition_limit_enforced(self):
        with pytest.raises(np.linalg.LinAlgError, match="condition"):
            build_t_tau((1.0, 1.0 + 1e-9, 2.0, 3.0), 2, 2, RATES, cond_limit=1e6)


class TestAssembleSystem:
    """The run-time inputs of the factored solve: the right-hand side u from
    T_tau u = c, and the stage relations of the rates."""

    def exact_probe(self, mixes, tau, n_i):
        last = RATES[-1]
        mgf = [math.prod(gh_mgf(m, t) for m in mixes) for t in tau]
        return [v * (last + t) ** n_i - last ** n_i for v, t in zip(mgf, tau)]

    def test_rhs_is_tau_independent_in_exact_mode(self):
        mixes = [
            GhMix(RATES, (0.17, 0.80, 0.03)),
            GhMix(RATES, (0.13, 0.47, 0.40)),
        ]
        rhs = []
        for tau in [(1.9857, 2.3782, 0.3581, 8.8619), (0.5, 1.1, 2.3, 4.9)]:
            t_mat = build_t_tau(tau, 2, 2, RATES)
            rhs.append(np.linalg.solve(t_mat, self.exact_probe(mixes, tau, 2)))
        np.testing.assert_allclose(rhs[0], rhs[1], rtol=1e-9, atol=1e-11)

    def test_true_weights_solve_the_system(self):
        mixes = [
            GhMix(RATES, (0.17, 0.80, 0.03)),
            GhMix(RATES, (0.13, 0.47, 0.40)),
        ]
        polys = build_eps(2, 2, RATES)
        tau = (1.9857, 2.3782, 0.3581, 8.8619)
        t_mat = build_t_tau(tau, 2, 2, RATES)
        rhs = np.linalg.solve(t_mat, self.exact_probe(mixes, tau, 2))
        x_true = np.array([0.17, 0.80, 0.13, 0.47])
        assert np.abs(np.array([p(x_true) for p in polys]) - rhs).max() < 1e-10

    def test_stage_relations_are_coefficients_of_the_expanded_system(self):
        # b[k, r] is the coefficient of x_1k...x_{N-1,k} x_Nr in h_{k,N-1}
        # of the paper's system, bit for bit, on paths of 2 to 4 links.
        rng = np.random.default_rng(13)
        for n_i in range(2, 5):
            for d in range(1, 4):
                lambdas = tuple(np.sort(rng.uniform(0.3, 9.0, d + 1))[::-1].tolist())
                polys = build_eps(n_i, d, lambdas)
                b = stage_relations(lambdas)
                assert b.shape == (d, d)
                for k in range(1, d + 1):
                    h = polys[(k - 1) * n_i + n_i - 2]
                    for r in range(1, d + 1):
                        if r == k:
                            continue
                        exps = [0] * (n_i * d)
                        for j in range(1, n_i):
                            exps[var_index(j, k, d)] = 1
                        exps[var_index(n_i, r, d)] = 1
                        assert b[k - 1, r - 1] == h.terms[tuple(exps)]

    def test_stage_relations_hold_at_every_probe_value(self):
        # z_k z_r = b[k, r] z_k + b[r, k] z_r with z_k = Lambda_k(t) / last.
        rng = np.random.default_rng(11)
        for _ in range(10):
            _, d, lambdas = random_instance(rng)
            b = stage_relations(lambdas)
            for t in rng.uniform(0.05, 10.0, 5):
                z = [lambda_basis(k, t, lambdas) / lambdas[-1] for k in range(1, d + 1)]
                for k in range(d):
                    for r in range(k + 1, d):
                        assert z[k] * z[r] == pytest.approx(
                            b[k, r] * z[k] + b[r, k] * z[r], rel=1e-9, abs=1e-12
                        )
