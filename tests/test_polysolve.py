import math

import numpy as np
import pytest

from disttomo import mgfest
from disttomo.epsbuild import build_eps, build_t_tau
from disttomo.model import GhMix, gh_mgf
from disttomo.polysolve import (
    reduce_first_components,
    solve_system,
    solve_univariate,
)

RATES = (5.0, 3.0, 1.0)
TAU = (1.9857, 2.3782, 0.3581, 8.8619)


def exact_rhs(weights_per_link, tau=TAU, rates=RATES):
    """Exact right-hand side u, from T_tau u = c, of one path crossing the
    given links."""
    n_i = len(weights_per_link)
    d = len(rates) - 1
    mixes = [GhMix(rates, w) for w in weights_per_link]
    last = rates[-1]
    c = [
        math.prod(gh_mgf(m, t) for m in mixes) * (last + t) ** n_i - last ** n_i
        for t in tau
    ]
    return np.linalg.solve(build_t_tau(tau, n_i, d, rates), c)


def residual(x, rhs, n_i, rates=RATES):
    """E(x) - u, with E the paper's expanded system from ``build_eps``."""
    return np.array([p(x) for p in build_eps(n_i, len(rates) - 1, rates)]) - rhs


PATH1 = exact_rhs([(0.17, 0.80, 0.03), (0.13, 0.47, 0.40)])


class TestSolveUnivariate:
    def test_matches_numpy_roots(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            coeffs = rng.normal(size=rng.integers(2, 7))
            coeffs[0] = coeffs[0] or 1.0
            got = solve_univariate(coeffs)
            want = np.roots(coeffs)
            for r in want:
                assert np.abs(got - r).min() < 1e-6

    def test_refines_clustered_roots(self):
        # (x - 1)^3 expanded: the companion eigenvalues lie about 1e-5 from
        # the triple root, yet their residual is about 1e-15.
        coeffs = np.array([1.0, -3.0, 3.0, -1.0])
        roots = solve_univariate(coeffs)
        assert np.abs(np.polyval(coeffs, roots)).max() < 1e-10

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            solve_univariate([1.0])
        with pytest.raises(ValueError):
            solve_univariate([0.0, 1.0, 2.0])


class TestSolveSystem:
    def test_true_weights_among_roots(self):
        sol = solve_system(PATH1, 2, RATES)
        x_true = np.array([0.17, 0.80, 0.13, 0.47])
        dists = [np.linalg.norm(r - x_true) for r in sol.roots]
        assert min(dists) < 1e-8

    def test_root_count_multiple_of_block_factorial(self):
        sol = solve_system(PATH1, 2, RATES)
        assert sol.n_roots % math.factorial(2) == 0

    def test_block_swapped_roots_present(self):
        # Symmetry: if (a, b) is a root so is (b, a).
        sol = solve_system(PATH1, 2, RATES)
        d = 2
        for r in sol.roots:
            swapped = np.concatenate([r[d:], r[:d]])
            assert min(np.linalg.norm(swapped - q) for q in sol.roots) < 1e-6

    def test_residuals_small(self):
        sol = solve_system(PATH1, 2, RATES)
        assert max(np.abs(residual(r, PATH1, 2)).max() for r in sol.roots) < 1e-8

    def test_rejects_wrong_length_right_hand_side(self):
        with pytest.raises(ValueError, match="has 3 values.*needs 4"):
            solve_system(PATH1[:3], 2, RATES)

    def test_univariate_agreement_single_link(self):
        # One link, d=1: the system is a single polynomial in one variable.
        rates = (2.0, 1.0)
        rhs = exact_rhs([(0.3, 0.7)], tau=(0.7,), rates=rates)
        sol = solve_system(rhs, 1, rates)
        coeffs = np.zeros(2, dtype=complex)
        # E(x) - u as univariate coefficients: linear system here.
        p = build_eps(1, 1, rates)[0]
        coeffs[0] = p.terms.get((1,), 0.0)
        coeffs[1] = p.terms.get((0,), 0.0) - rhs[0]
        want = np.sort_complex(solve_univariate(coeffs))
        got = np.sort_complex(np.array([r[0] for r in sol.roots]))
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_near_end_step_collapse_keeps_finite_roots(self):
        # Probe points on which a total-degree homotopy once lost 4 of the
        # 6 roots to tracks whose step collapsed just short of the end; the
        # factored solve finds all 6.
        tau = mgfest.choose_tau(2, 2, RATES, seed=1004)
        rhs = exact_rhs([(0.17, 0.80, 0.03), (0.13, 0.47, 0.40)], tau=tau)
        assert solve_system(rhs, 2, RATES).n_roots == 6

    def test_three_link_path_has_every_split(self):
        # N = 3, d = 2: the roots are the 6!/(2!)^3 = 90 ordered splits of
        # Q's six roots into three pairs.
        weights = [(0.17, 0.80, 0.03), (0.13, 0.47, 0.40), (0.80, 0.15, 0.05)]
        tau = mgfest.choose_tau(3, 2, RATES, seed=0)
        sol = solve_system(exact_rhs(weights, tau=tau), 3, RATES)
        assert sol.n_roots == 90
        assert sol.n_paths == 90
        assert sol.n_path_failures == 0
        x_true = np.concatenate([w[:2] for w in weights])
        assert min(np.linalg.norm(r - x_true) for r in sol.roots) < 1e-6

    def test_repeated_root_appears_once(self):
        # Two equal links make every root of Q double: the true root comes
        # from 4 of the 6 splits and must be kept once, beside the 2 others.
        rhs = exact_rhs([(0.17, 0.80, 0.03), (0.17, 0.80, 0.03)])
        sol = solve_system(rhs, 2, RATES)
        assert sol.n_roots == 3
        x_true = np.array([0.17, 0.80, 0.17, 0.80])
        assert min(np.linalg.norm(r - x_true) for r in sol.roots) < 1e-6

    @pytest.mark.parametrize("n_i, scale, count", [(2, 1e6, 6), (3, 1e5, 90)])
    def test_large_right_hand_side_keeps_every_root(self, n_i, scale, count):
        # Every split of Q's roots is a root whose residual is small next to
        # max|u|, though far above any fixed absolute tolerance.
        rhs = np.random.default_rng(0).uniform(-1, 1, 2 * n_i) * scale
        sol = solve_system(rhs, n_i, RATES)
        assert sol.n_roots == count
        assert all(np.abs(residual(r, rhs, n_i)).max() < 1e-10 * scale for r in sol.roots)


class TestRealRoots:
    def test_real_rows_as_one_real_array(self):
        sol = solve_system(PATH1, 2, RATES)
        real = sol.real_roots(1e-6)
        assert real.dtype == float and real.shape[1:] == (4,)
        keep = [r.real for r in sol.roots if np.abs(r.imag).max() < 1e-6]
        assert len(real) == len(keep) >= 2
        np.testing.assert_array_equal(real, np.array(keep))

    def test_no_real_root_gives_an_empty_array(self):
        # one link: the system is x = u, here not real
        real = solve_system(np.array([0.3 + 1j, 0.2]), 1, RATES).real_roots(1e-6)
        assert real.dtype == float and real.shape == (0, 2)


class TestReduceFirstComponents:
    def test_dedup_and_projection(self):
        roots = [
            np.array([0.17 + 0j, 0.80, 0.13, 0.47]),
            np.array([0.17 + 1e-9j, 0.80, 0.99, 0.01]),
            np.array([0.13, 0.47, 0.17, 0.80]),
        ]
        reduced = reduce_first_components(roots, d=2)
        assert len(reduced) == 2
        assert all(r.dtype.kind == "f" for r in reduced)

    def test_near_real_filter(self):
        roots = [np.array([0.5 + 0.3j, 0.1, 0.0, 0.0])]
        assert reduce_first_components(roots, d=2, near_real_tol=0.05) == []
        kept = reduce_first_components(roots, d=2, near_real_tol=0.5)
        assert len(kept) == 1
        np.testing.assert_allclose(kept[0], [0.5, 0.1])
