import numpy as np
import pytest

from disttomo import experiments, match, mgfest, pipeline, polysolve
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


class _Captured(Exception):
    pass


def _objective(monkeypatch, a, rates, samples):
    """The likelihood fit's objective and Hessian, taken from its first
    ``minimize`` call."""
    captured = []

    def capture(fun, x0, **kwargs):
        captured.append((fun, kwargs["hess"]))
        raise _Captured

    monkeypatch.setattr(pipeline, "minimize", capture)
    with pytest.raises(_Captured):
        pipeline._likelihood_polish(a, rates, samples, seed=0)
    return captured[0]


class TestLikelihoodObjective:
    # paths of three and two links, so the objective stacks two groups; the
    # last path's delays are rounded, and the ties leave it 269 distinct bin
    # edges against 1000 on the other paths, so its bins are padded
    MIXED = RoutingMatrix(((1, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)))
    TRUTH = ((0.34, 0.26, 0.40), (0.46, 0.49, 0.05), (0.12, 0.65, 0.23), (0.71, 0.19, 0.10))

    def _samples(self):
        mixes = [GhMix(RATES, w) for w in self.TRUTH]
        samples = list(sample_paths(self.MIXED, mixes, 20_000, seed=0).samples)
        samples[3] = np.round(samples[3], 2)
        return samples

    def test_gradient_matches_central_differences(self, monkeypatch):
        a = self.MIXED
        fun, _ = _objective(monkeypatch, a, RATES, self._samples())
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(5):
            x = rng.dirichlet(np.ones(3), size=a.n_links)[:, :2].ravel()
            _, grad = fun(x)
            steps = h * np.eye(x.size)
            numeric = np.array(
                [(fun(x + e)[0] - fun(x - e)[0]) / (2 * h) for e in steps]
            )
            assert np.linalg.norm(grad - numeric) <= 1e-6 * np.linalg.norm(grad)

    def test_hessian_matches_central_differences(self, monkeypatch):
        a = self.MIXED
        fun, hess = _objective(monkeypatch, a, RATES, self._samples())
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(5):
            x = rng.dirichlet(np.ones(3), size=a.n_links)[:, :2].ravel()
            analytic = hess(x)
            steps = h * np.eye(x.size)
            numeric = np.array(
                [(fun(x + e)[1] - fun(x - e)[1]) / (2 * h) for e in steps]
            )
            assert np.linalg.norm(analytic - numeric) <= 1e-6 * np.linalg.norm(analytic)

    def test_stacked_paths_add_up_to_single_paths(self, monkeypatch):
        a, samples = self.MIXED, self._samples()
        fun, _ = _objective(monkeypatch, a, RATES, samples)
        x = np.random.default_rng(4).dirichlet(np.ones(3), size=a.n_links)[:, :2]
        value, grad = fun(x.ravel())
        total, total_grad = 0.0, np.zeros_like(x)
        for i in range(a.n_paths):
            links = sorted(a.path_links(i))
            one_path = RoutingMatrix(((1,) * len(links),))
            v, g = _objective(monkeypatch, one_path, RATES, [samples[i]])[0](x[links].ravel())
            total += v
            total_grad[links] += g.reshape(len(links), 2)
        assert value == pytest.approx(total, rel=1e-12)
        np.testing.assert_allclose(grad, total_grad.ravel(), rtol=1e-9)


class TestLikelihoodStartsAndEdges:
    def test_seven_starts_uniform_then_seeded_dirichlet(self, monkeypatch):
        mixes = [GhMix(RATES, w) for w in WEIGHTS]
        samples = sample_paths(EXPT1, mixes, 20_000, seed=0).samples
        real_minimize = pipeline.minimize
        x0s = []

        def record(fun, x0, **kwargs):
            x0s.append(np.array(x0))
            return real_minimize(fun, x0, **kwargs)

        monkeypatch.setattr(pipeline, "minimize", record)
        seed, n, d = 7, EXPT1.n_links, len(RATES) - 1
        pipeline._likelihood_polish(EXPT1, RATES, samples, seed=seed)
        assert len(x0s) == 7
        assert np.array_equal(x0s[0], np.full(n * d, 1.0 / (d + 1)))
        rng = np.random.default_rng(seed)
        for x0 in x0s[1:]:
            assert np.array_equal(x0, rng.dirichlet(np.ones(d + 1), size=n)[:, :d].ravel())

    @pytest.mark.parametrize("size", [1, 2, 1001, 100_000])
    def test_edges_equal_numpy_quantile(self, size):
        # rounding leaves runs of tied values
        y = np.sort(np.round(np.random.default_rng(size).exponential(size=size), 2))
        expected = np.quantile(y, np.linspace(0.0, 1.0, 1001))
        assert np.array_equal(pipeline._quantile_edges(y, 1000), expected)


class TestTrustNewton:
    """``_trust_newton`` as a ``minimize`` method on small known functions."""

    @staticmethod
    def _run(fun, hess, x0):
        """Minimise, recording every point ``fun`` and ``hess`` are called at."""
        points, hessians = [], []

        def value_and_grad(x):
            points.append(np.array(x))
            return fun(x)

        def hessian(x):
            hessians.append(np.array(x))
            return hess(x)

        fit = pipeline.minimize(
            value_and_grad, np.asarray(x0, dtype=float), jac=True, hess=hessian,
            method=pipeline._trust_newton,
        )
        return fit, points, hessians

    def test_convex_quadratic_in_one_step(self):
        a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        c = np.array([0.3, -0.2, 0.4])

        def fun(x):
            return 0.5 * (x - c) @ a @ (x - c), a @ (x - c)

        fit, points, _ = self._run(fun, lambda x: a, np.zeros(3))
        assert fit.success
        # the first step lands on the minimum; the second, closing Newton
        # step is empty
        np.testing.assert_allclose(points[1], c, atol=1e-14)
        np.testing.assert_allclose(fit.x, c, atol=1e-14)
        assert fit.nit == 2

    # x^2 - y^2 + y^4 / 4: a saddle at the origin, minima at (0, +-sqrt 2)
    @staticmethod
    def _saddle(x):
        return (
            x[0] ** 2 - x[1] ** 2 + x[1] ** 4 / 4,
            np.array([2 * x[0], -2 * x[1] + x[1] ** 3]),
        )

    @staticmethod
    def _saddle_hess(x):
        return np.diag([2.0, -2.0 + 3 * x[1] ** 2])

    @pytest.mark.parametrize("x0", [(0.0, 0.0), (0.5, 0.0), (0.3, 0.1), (-0.2, -0.05)])
    def test_leaves_saddles_and_negative_curvature(self, x0):
        fit, _, _ = self._run(self._saddle, self._saddle_hess, x0)
        assert fit.success
        assert np.linalg.eigvalsh(self._saddle_hess(fit.x)).min() > 0
        assert np.linalg.norm(self._saddle(fit.x)[1]) < 1e-8
        np.testing.assert_allclose(np.abs(fit.x), [0.0, np.sqrt(2.0)], atol=1e-8)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_trial_values(self, bad):
        # sqrt(1 + (x - 1)^2) + y^2 / 2, undefined beyond |(x, y)| = 1.05: the
        # curvature is low at the start, so the first step, of the initial
        # radius 1, leaves the domain
        def fun(x):
            if np.linalg.norm(x) > 1.05:
                return bad, np.full(2, bad)
            u = x[0] - 1.0
            root = np.sqrt(1.0 + u * u)
            return root + x[1] ** 2 / 2, np.array([u / root, x[1]])

        def hess(x):
            return np.diag([(1.0 + (x[0] - 1.0) ** 2) ** -1.5, 1.0])

        fit, points, _ = self._run(fun, hess, (0.1, 0.0))
        values = np.array([fun(x)[0] for x in points])
        assert not np.isfinite(values[1])
        assert fit.success and np.isfinite(fit.fun)
        np.testing.assert_allclose(fit.x, [1.0, 0.0], atol=1e-6)

    def test_counts_what_was_done(self):
        from scipy.optimize import rosen, rosen_der, rosen_hess

        fit, points, hessians = self._run(
            lambda x: (rosen(x), rosen_der(x)), rosen_hess, (-1.2, 1.0)
        )
        assert fit.success
        np.testing.assert_allclose(fit.x, np.ones(2), atol=1e-6)
        assert fit.nfev == len(points)
        assert fit.nhev == len(hessians)
        assert fit.nit == len(points) - 1  # each step evaluates one point
        assert fit.fun == rosen(fit.x)


class TestPinnedOutput:
    # sampled estimate_gh on expt1, seed 0, L = 2e5, recorded before the
    # objective was rewritten in stacked form; guards refactors of the fit
    PINNED = (
        (0.16517344667017905, 0.816139825131062, 0.01868672819875894),
        (0.1512248174040464, 0.4346540731130769, 0.4141211094828767),
        (0.7956994505958839, 0.1422073098499789, 0.06209323955413726),
    )

    def test_expt1_seed_0(self):
        setup = experiments.get_setup("expt1")
        samples = sample_paths(setup.matrix, setup.mixes(), 200_000, seed=0).samples
        result, _ = pipeline.estimate_gh(setup.matrix, setup.effective_rates, samples=samples)
        assert np.abs(result.weights - np.array(self.PINNED)).max() <= 1e-5

    # sampled estimate_gh on expt3, seed 2, L = 1e6, as acceptance 4 runs it,
    # recorded with the fit's former 17 starts.  Starts 1-4 end 8.48 nats
    # worse than the uniform start here, so this guards the start count
    # against landing in a spurious basin; at L = 2e5 every start reaches
    # the same optimum and would guard nothing.
    PINNED_EXPT3 = (
        (0.38249515699030523, 0.2285790913890494, 0.38892575162064535),
        (0.3919817537633792, 0.5522875018903846, 0.05573074434623626),
        (0.08379773696846751, 0.6742651459075969, 0.24193711712393562),
        (0.7870243037409753, 0.11779142174106859, 0.09518427451795608),
    )

    def test_expt3_seed_2_spurious_basin(self):
        setup = experiments.get_setup("expt3")
        samples = sample_paths(setup.matrix, setup.mixes(), 10**6, seed=2).samples
        result, _ = pipeline.estimate_gh(
            setup.matrix, setup.effective_rates, samples=samples,
            options=pipeline.EstimateOptions(solver_seed=2),
        )
        assert np.abs(result.weights - np.array(self.PINNED_EXPT3)).max() <= 1e-5


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

    def test_three_link_path_recovers_truth(self):
        a = RoutingMatrix(((1, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)))
        truth = experiments.get_setup("expt3").truth
        result, diags = pipeline.algebraic_gh(
            a, RATES, exact_mixes=[GhMix(RATES, tuple(w)) for w in truth]
        )
        assert diags[0].n_roots == 90
        np.testing.assert_allclose(result.weights, truth, atol=1e-6)


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
