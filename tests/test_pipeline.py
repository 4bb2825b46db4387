import re
import zlib
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from disttomo import epsbuild, experiments, expmeans, match, mgfest, pipeline, polysolve
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
        assert result.delta is None
        assert result.provenance[0] == {"link": 0, "paths": [0, 1]}
        assert diagnostics == []


def _objective(monkeypatch, a, rates, samples):
    """The likelihood fit's batched objective (``_likelihood_objective``) as
    two callables: values and gradients, and Hessians.  ``monkeypatch`` is
    not used."""
    fun = pipeline._likelihood_objective(a, rates, samples)
    return (lambda x: fun(x)[:2], lambda x: fun(x)[2])


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
            _, grad = fun(x[None])
            steps = h * np.eye(x.size)
            numeric = (fun(x + steps)[0] - fun(x - steps)[0]) / (2 * h)
            assert np.linalg.norm(grad[0] - numeric) <= 1e-6 * np.linalg.norm(grad[0])

    def test_hessian_matches_central_differences(self, monkeypatch):
        a = self.MIXED
        fun, hess = _objective(monkeypatch, a, RATES, self._samples())
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(5):
            x = rng.dirichlet(np.ones(3), size=a.n_links)[:, :2].ravel()
            analytic = hess(x[None])[0]
            steps = h * np.eye(x.size)
            numeric = (fun(x + steps)[1] - fun(x - steps)[1]) / (2 * h)
            assert np.linalg.norm(analytic - numeric) <= 1e-6 * np.linalg.norm(analytic)

    def test_batch_rows_equal_lone_rows_with_the_penalty_active(self, monkeypatch):
        a = self.MIXED
        fun, hess = _objective(monkeypatch, a, RATES, self._samples())
        x = np.random.default_rng(6).dirichlet(np.ones(3), size=(2, a.n_links))[..., :2]
        # link 0 of the first row puts weight -0.1 on the slowest stage, so
        # its density is negative in the tail and the penalty is active
        x[0, 0] = (0.5, 0.6)
        x = x.reshape(2, -1)
        values, grads = fun(x)
        hessians = hess(x)
        # each row is evaluated exactly as it would be alone, so a start's
        # fit does not depend on the other starts of its batch
        for row in range(2):
            (v,), (g,) = fun(x[row:row + 1])
            assert v == values[row]
            np.testing.assert_array_equal(grads[row], g)
            np.testing.assert_array_equal(hessians[row], hess(x[row:row + 1])[0])
        h = 1e-6
        steps = h * np.eye(x.shape[1])
        numeric = (fun(x[0] + steps)[1] - fun(x[0] - steps)[1]) / (2 * h)
        assert np.linalg.norm(hessians[0] - numeric) <= 1e-6 * np.linalg.norm(hessians[0])

    def test_stacked_paths_add_up_to_single_paths(self, monkeypatch):
        a, samples = self.MIXED, self._samples()
        fun, _ = _objective(monkeypatch, a, RATES, samples)
        x = np.random.default_rng(4).dirichlet(np.ones(3), size=a.n_links)[:, :2]
        (value,), (grad,) = fun(x.reshape(1, -1))
        total, total_grad = 0.0, np.zeros_like(x)
        for i in range(a.n_paths):
            links = sorted(a.path_links(i))
            one_path = RoutingMatrix(((1,) * len(links),))
            path_fun = _objective(monkeypatch, one_path, RATES, [samples[i]])[0]
            (v,), (g,) = path_fun(x[links].reshape(1, -1))
            total += v
            total_grad[links] += g.reshape(len(links), 2)
        assert value == pytest.approx(total, rel=1e-12)
        np.testing.assert_allclose(grad, total_grad.ravel(), rtol=1e-9)


class TestPathModel:
    """``_path_probs`` and ``_path_curvature`` on the stacked tables of
    ``TestLikelihoodObjective.MIXED``, at signed weight rows that sum to 1."""

    @staticmethod
    def _stacks():
        samples = TestLikelihoodObjective()._samples()
        a = TestLikelihoodObjective.MIXED
        rng = np.random.default_rng(8)
        free = rng.normal(size=(3, a.n_links, 2))
        w_full = np.concatenate([free, 1.0 - free.sum(axis=2, keepdims=True)], axis=2)
        by_length = pipeline._bin_tables(a, np.array(RATES), samples, 1000)
        assert sorted(by_length) == [2, 3]
        for members in by_length.values():
            width = max(c.size for _, c, _ in members)
            tables = np.array([np.pad(t, ((0, 0), (0, width - t.shape[1])))
                               for _, _, t in members])
            yield w_full[:, np.array([links for links, _, _ in members])], tables, rng

    def test_bins_sum_to_one(self):
        for w, tables, _ in self._stacks():
            probs, _ = pipeline._path_probs(w, tables)
            assert np.abs(probs.sum(axis=2) - 1.0).max() <= 1e-12

    def test_probs_are_each_position_times_its_derivative(self):
        for w, tables, _ in self._stacks():
            probs, dprobs = pipeline._path_probs(w, tables)
            n_s, n_p, n_i, d1 = w.shape
            by_position = np.einsum("spnk,spnkb->spnb", w, dprobs.reshape(n_s, n_p, n_i, d1, -1))
            # relative to each path's largest bin: signed weights make single
            # bins cancel to near zero
            scale = np.abs(probs).max(axis=2)[:, :, None]
            assert (np.abs(by_position - probs[:, :, None]).max(axis=3) <= 1e-12 * scale).all()

    def test_curvature_matches_central_differences(self):
        h = 1e-3
        for w, tables, rng in self._stacks():
            n_s, n_p, n_i, d1 = w.shape
            v = rng.normal(size=pipeline._path_probs(w, tables)[0].shape)
            analytic = pipeline._path_curvature(w, tables, v)
            numeric = np.zeros_like(analytic)
            for q in range(n_i * d1):
                step = (h * np.eye(n_i * d1)[q]).reshape(n_i, d1)
                up, down = (pipeline._path_probs(w + sign * step, tables)[1] @ v[..., None]
                            for sign in (1.0, -1.0))
                numeric[..., q] = (up - down)[..., 0] / (2 * h)
            assert np.linalg.norm(analytic - numeric) <= 1e-10 * np.linalg.norm(analytic)


class TestBinTables:
    def test_tables_are_symmetric_in_their_links(self):
        # the fit reads every position's derivative off one view of a path's
        # table, which holds only if permuting the link axes leaves it unchanged
        a = TestLikelihoodObjective.MIXED
        samples = TestLikelihoodObjective()._samples()
        by_length = pipeline._bin_tables(a, np.array(RATES), samples, 1000)
        paths = [path for members in by_length.values() for path in members]
        assert sorted(len(links) for links, _, _ in paths) == [2, 2, 2, 3]
        for links, _, table in paths:
            n_i = len(links)
            cube = table.reshape((len(RATES),) * n_i + (-1,))
            for perm in permutations(range(n_i)):
                np.testing.assert_array_equal(cube.transpose(perm + (n_i,)), cube)


class TestLikelihoodStartsAndEdges:
    def test_seven_starts_uniform_then_seeded_dirichlet(self, monkeypatch):
        mixes = [GhMix(RATES, w) for w in WEIGHTS]
        samples = sample_paths(EXPT1, mixes, 20_000, seed=0).samples
        real_trust_newton = pipeline._trust_newton
        batches = []

        def record(fun, x0):
            batches.append(np.array(x0))
            return real_trust_newton(fun, x0)

        monkeypatch.setattr(pipeline, "_trust_newton", record)
        seed, n, d = 7, EXPT1.n_links, len(RATES) - 1
        pipeline._likelihood_polish(EXPT1, RATES, samples, seed=seed)
        assert len(batches) == 1  # one batch holds every start
        x0s = batches[0]
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


class TestTrustStep:
    """``_trust_step`` on seeded random batches of subproblems."""

    KINDS = ("definite", "indefinite", "repeated", "singular", "flat")

    @classmethod
    def _batch(cls, seed, rows=240, k=4):
        """Subproblems of every kind in ``KINDS``, a third of them without
        gradient, at radii of 1e-82, 1e3 and in between.  A few rows have a
        gradient so small that ``|gq| / radius`` is below the rounding of
        ``lam``, and a few at the radius 1e-82 one so large that it
        overflows."""
        rng = np.random.default_rng(seed)
        kind = rng.integers(len(cls.KINDS), size=rows)
        lam = np.sort(np.abs(rng.normal(size=(rows, k))), axis=1)
        lam *= 10.0 ** rng.uniform(-2, 3, size=(rows, 1))
        lam[kind == 1, 0] *= -1.0
        lam[kind == 2, :2] = -lam[kind == 2, 1:2]
        lam[kind == 3, 0] = 0.0
        lam[kind == 4] = 0.0
        gq = rng.normal(size=(rows, k)) * 10.0 ** rng.uniform(-2, 2, size=(rows, 1))
        gq[rng.random(rows) < 1 / 3] = 0.0
        gq[rng.random((rows, k)) < 0.1] = 0.0
        radius = 10.0 ** rng.uniform(-4, 2, size=rows)
        radius[rng.random(rows) < 0.2] = 1e-82
        radius[rng.random(rows) < 0.2] = 1e3
        gq[rng.random(rows) < 0.05] *= 1e-20
        huge = (rng.random(rows) < 0.05) & (gq != 0).any(axis=1)
        gq[huge] *= 1e250
        radius[huge] = 1e-82
        return kind, gq, lam, radius

    @pytest.mark.parametrize("seed", range(5))
    def test_properties(self, seed):
        kind, gq, lam, radius = self._batch(seed)
        definite = kind == 0
        with np.errstate(all="raise"):
            p, not_newton = pipeline._trust_step(gq, lam, radius)
            assert np.all(np.linalg.norm(p, axis=1) <= radius * (1 + 1e-12))
            newton = -gq[definite] / lam[definite]
            fits = np.zeros(len(kind), dtype=bool)
            fits[definite] = np.hypot.reduce(newton, axis=1) <= radius[definite]
            assert np.array_equal(not_newton, ~fits)
            assert np.array_equal(p[fits], newton[fits[definite]])
            down = lam[:, 0] < 0
            np.testing.assert_allclose(np.linalg.norm(p[down], axis=1), radius[down],
                                       rtol=1e-12)
            decrease = -((gq * p).sum(axis=1) + 0.5 * (lam * p * p).sum(axis=1))
            assert np.all(decrease >= 0.0)
            for i in range(len(kind)):
                alone = pipeline._trust_step(gq[i:i + 1], lam[i:i + 1], radius[i:i + 1])
                assert np.array_equal(alone[0][0], p[i]) and alone[1][0] == not_newton[i]
        # every kind of row is there, with and without gradient, and so are
        # Newton steps that fit and that do not, and overflowing shifts
        zero = ~gq.any(axis=1)
        assert set(zip(kind.tolist(), zero.tolist())) == {
            (c, z) for c in range(len(self.KINDS)) for z in (False, True)
        }
        assert fits.any() and (definite & ~fits).any()
        assert (np.abs(gq) > 1e200).any() and (np.abs(gq[gq != 0]) < 1e-18).any()


class TestTrustNewton:
    """``_trust_newton`` on small known functions, one start per row."""

    @staticmethod
    def _run(fun, hess, x0s):
        """Minimise from every start of ``x0s`` in one batch, with an
        objective that calls ``fun`` and ``hess`` on each row, recording
        each point it is called at."""
        points = []

        def objective(x):
            points.extend(np.array(x))
            values, grads = zip(*(fun(row) for row in x))
            return np.array(values), np.array(grads), np.array([hess(row) for row in x])

        fit = pipeline._trust_newton(objective, np.asarray(x0s, dtype=float))
        return fit, points

    def test_convex_quadratic_in_one_step(self):
        a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        c = np.array([0.3, -0.2, 0.4])

        def fun(x):
            return 0.5 * (x - c) @ a @ (x - c), a @ (x - c)

        fit, points = self._run(fun, lambda x: a, [np.zeros(3)])
        assert fit.success[0]
        # the first step lands on the minimum; the second, closing Newton
        # step is empty
        np.testing.assert_allclose(points[1], c, atol=1e-14)
        np.testing.assert_allclose(fit.x[0], c, atol=1e-14)
        assert fit.nit[0] == 2

    # x^2 - y^2 + y^4 / 4: a saddle at the origin, minima at (0, +-sqrt 2)
    SADDLE_STARTS = [(0.0, 0.0), (0.5, 0.0), (0.3, 0.1), (-0.2, -0.05)]

    @staticmethod
    def _saddle(x):
        return (
            x[0] ** 2 - x[1] ** 2 + x[1] ** 4 / 4,
            np.array([2 * x[0], -2 * x[1] + x[1] ** 3]),
        )

    @staticmethod
    def _saddle_hess(x):
        return np.diag([2.0, -2.0 + 3 * x[1] ** 2])

    @pytest.mark.parametrize("x0", SADDLE_STARTS)
    def test_leaves_saddles_and_negative_curvature(self, x0):
        fit, _ = self._run(self._saddle, self._saddle_hess, [x0])
        assert fit.success[0]
        assert np.linalg.eigvalsh(self._saddle_hess(fit.x[0])).min() > 0
        assert np.linalg.norm(self._saddle(fit.x[0])[1]) < 1e-8
        np.testing.assert_allclose(np.abs(fit.x[0]), [0.0, np.sqrt(2.0)], atol=1e-8)

    # sqrt(1 + (x - 1)^2) + y^2 / 2, undefined beyond |(x, y)| = 1.05: the
    # curvature is low at (0.1, 0), so the first step from there, of the
    # initial radius 1, leaves the domain.  With ``nan_hessian`` the Hessian
    # is NaN there too, and any use of a rejected point's Hessian shows.
    @staticmethod
    def _fenced(bad, nan_hessian=False):
        def fun(x):
            if np.linalg.norm(x) > 1.05:
                return bad, np.full(2, bad)
            u = x[0] - 1.0
            root = np.sqrt(1.0 + u * u)
            return root + x[1] ** 2 / 2, np.array([u / root, x[1]])

        def hess(x):
            if nan_hessian and np.linalg.norm(x) > 1.05:
                return np.full((2, 2), np.nan)
            return np.diag([(1.0 + (x[0] - 1.0) ** 2) ** -1.5, 1.0])

        return fun, hess

    @pytest.mark.parametrize("bad, nan_hessian", [
        pytest.param(np.inf, False, id="inf"),
        pytest.param(np.nan, False, id="nan"),
        pytest.param(np.inf, True, id="inf-nan_hessian"),
    ])
    def test_rejects_non_finite_trial_values(self, bad, nan_hessian):
        fun, hess = self._fenced(bad, nan_hessian)
        fit, points = self._run(fun, hess, [(0.1, 0.0)])
        values = np.array([fun(x)[0] for x in points])
        assert not np.isfinite(values[1])
        assert fit.success[0] and np.isfinite(fit.fun[0])
        np.testing.assert_allclose(fit.x[0], [1.0, 0.0], atol=1e-6)

    def test_counts_what_was_done(self):
        from scipy.optimize import rosen, rosen_der, rosen_hess

        fit, points = self._run(
            lambda x: (rosen(x), rosen_der(x)), rosen_hess, [(-1.2, 1.0)]
        )
        assert fit.success[0]
        np.testing.assert_allclose(fit.x[0], np.ones(2), atol=1e-6)
        assert fit.nfev[0] == len(points)
        assert fit.nit[0] == len(points) - 1  # each step evaluates one point
        assert fit.fun[0] == rosen(fit.x[0])

    def test_flat_function_stops_every_start_unmoved(self):
        # no gradient and no curvature: the model predicts no decrease, so
        # every start stops before evaluating a trial point
        x0s = [(0.3, -1.0), (2.0, 0.5)]
        fit, points = self._run(lambda x: (1.0, np.zeros(2)), lambda x: np.zeros((2, 2)), x0s)
        np.testing.assert_array_equal(fit.x, x0s)
        assert not fit.success.any()
        assert list(fit.nit) == [0, 0] and list(fit.nfev) == [1, 1] and len(points) == 2
        assert fit.message == ["the quadratic model predicts no decrease"] * 2

    def test_stops_at_the_rounding_floor(self):
        # A quadratic offset by 1.4e7, about the size of a sampled fit's
        # likelihood, with a few ulps of deterministic noise in its value.
        # The gradient's error of fixed size keeps the Newton decrement
        # above 1e-8 everywhere, as the rounding of a large likelihood's
        # gradient can, so near the minimum the steps' actual reductions
        # are rounding and every start must end on the predicted decrease.
        offset, curv, centre, beta = 1.4e7, np.array([2.0, 0.5]), np.array([0.3, -0.2]), 2e-4

        def fun(x):
            u = x - centre
            noise = (zlib.crc32(x.tobytes()) % 7 - 3) * np.spacing(offset)
            return offset + 0.5 * (curv * u) @ u + noise, curv * u + beta * np.sign(u)

        x0s = [(0.0, 0.0), (1.0, 1.0), (-2.0, 0.5), (0.3001, -0.2001)]
        fit, _ = self._run(fun, lambda x: np.diag(curv), x0s)
        assert fit.success.all()
        assert fit.nit.max() < 30
        assert fit.message == ["predicted decrease under 4 ulps of the value"] * 4
        np.testing.assert_allclose(fit.x, [centre] * 4, atol=1e-3)

    def _assert_rows_are_lone_runs(self, fun, hess, x0s):
        fit, _ = self._run(fun, hess, x0s)
        for row, x0 in enumerate(x0s):
            lone, _ = self._run(fun, hess, [x0])
            np.testing.assert_allclose(fit.x[row], lone.x[0], rtol=0, atol=1e-12)
            assert abs(fit.fun[row] - lone.fun[0]) <= 1e-12
            for count in ("nit", "nfev"):
                assert getattr(fit, count)[row] == getattr(lone, count)[0], count
            assert fit.success[row] == lone.success[0]
        return fit

    def test_batch_rows_equal_lone_runs(self):
        from scipy.optimize import rosen, rosen_der, rosen_hess

        # A third coordinate tags each row with its function: 0 for the
        # saddle, 1 for Rosenbrock.  The tag's gradient is 0 and its
        # curvature 1, so no step moves it.
        def fun(x):
            if x[2] < 0.5:
                value, grad = self._saddle(x[:2])
            else:
                value, grad = rosen(x[:2]), rosen_der(x[:2])
            return value, np.append(grad, 0.0)

        def hess(x):
            inner = self._saddle_hess(x[:2]) if x[2] < 0.5 else rosen_hess(x[:2])
            return np.block([[inner, np.zeros((2, 1))], [np.zeros((1, 2)), np.ones((1, 1))]])

        x0s = [(*x0, 0.0) for x0 in self.SADDLE_STARTS] + [(-1.2, 1.0, 1.0)]
        fit = self._assert_rows_are_lone_runs(fun, hess, x0s)
        # the rows stop after different numbers of steps
        assert len(set(fit.nit)) > 1
        assert fit.success.all()

    def test_batch_with_a_start_at_the_optimum_and_a_non_finite_trial(self):
        fun, hess = self._fenced(np.inf)
        fit = self._assert_rows_are_lone_runs(fun, hess, [(1.0, 0.0), (0.1, 0.0)])
        # at the optimum the gradient is 0: one empty closing Newton step
        assert fit.success[0] and fit.nit[0] == 1
        np.testing.assert_array_equal(fit.x[0], [1.0, 0.0])
        assert fit.success[1] and fit.nit[1] > 1
        np.testing.assert_allclose(fit.x[1], [1.0, 0.0], atol=1e-6)


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

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 1004])
    def test_expt3_recovers_truth(self, seed):
        # three paths of two links: 6**3 = 216 root combinations to match
        setup = experiments.get_setup("expt3")
        result, _ = pipeline.estimate_gh(
            setup.matrix, setup.effective_rates, exact_mixes=setup.mixes(),
            options=pipeline.EstimateOptions(tau_seed=seed, solver_seed=seed),
        )
        np.testing.assert_allclose(result.weights, setup.truth, atol=1e-6)


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
    """Both sampled estimators reject bad samples, naming the first bad path."""

    CASES = ["nan", "inf", "-inf", "negative", "empty", "short", "long", "first_bad", "zeros"]

    @staticmethod
    def _samples(case):
        mixes = [GhMix(RATES, w) for w in WEIGHTS]
        samples = list(sample_paths(EXPT1, mixes, 1000, seed=0).samples)
        if case == "short":
            return samples[:1], "path 1 has no samples"
        if case == "long":
            return samples * 2, "samples given for 4 paths; the routing matrix has 2"
        y = samples[0].copy()
        if case == "empty":
            y = y[:0]
        elif case == "zeros":
            y = np.zeros_like(y)
        elif case == "first_bad":
            y[3] = -0.5
            samples[1] = samples[1].copy()
            samples[1][5] = np.nan
        else:
            y[3] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "negative": -0.5}[case]
        samples[0] = y
        message = {
            "empty": "no samples", "negative": "negative delays", "first_bad": "negative delays",
            "zeros": "only zero delays",
        }.get(case, "non-finite values")
        return samples, f"path 0 has {message}"

    @pytest.mark.parametrize("case", CASES)
    def test_estimate_gh_rejects(self, case):
        samples, message = self._samples(case)
        with pytest.raises(ValueError, match=message):
            pipeline.estimate_gh(EXPT1, RATES, samples=samples)

    @pytest.mark.parametrize("case", CASES)
    def test_algebraic_gh_rejects(self, case):
        samples, message = self._samples(case)
        with pytest.raises(ValueError, match=message):
            pipeline.algebraic_gh(EXPT1, RATES, samples=samples)

    @pytest.mark.parametrize("case", CASES)
    def test_estimate_exp_rejects(self, case):
        samples, message = self._samples(case)
        with pytest.raises(ValueError, match=message):
            pipeline.estimate_exp(EXPT1, samples=samples)


class TestEstimatedMeans:
    def test_mean_that_is_not_positive_raises_naming_the_link(self):
        # one delay of 1e10 on each path dominates the sample means that
        # scale the probe points, and link 0's mean comes out -472782.6
        mixes = [GhMix(RATES, w) for w in WEIGHTS]
        samples = [np.append(y, 1e10) for y in sample_paths(EXPT1, mixes, 1000, seed=0).samples]
        with pytest.raises(RuntimeError, match=r"estimated mean of link 0 is -472782\.5"):
            pipeline.estimate_exp(EXPT1, samples=samples)


class TestRateChecks:
    """Both weight estimators reject rates that are not finite, > 0 and
    pairwise distinct, or fewer than two, before any other work."""

    @pytest.mark.parametrize("rates, message", [
        pytest.param((5.0, 5.0, 1.0), "pairwise distinct", id="repeated"),
        pytest.param((5.0, np.nan, 1.0), "finite and strictly positive", id="nan"),
        pytest.param((5.0, np.inf, 1.0), "finite and strictly positive", id="inf"),
        pytest.param((5.0, 0.0, 1.0), "finite and strictly positive", id="zero"),
        pytest.param((5.0,), "need at least 2 rates", id="one"),
    ])
    @pytest.mark.parametrize("estimator", ["estimate_gh", "algebraic_gh"])
    def test_rejects(self, monkeypatch, estimator, rates, message):
        samples = sample_paths(EXPT1, [GhMix(RATES, w) for w in WEIGHTS], 1000, seed=0).samples

        def read_samples(*args, **kwargs):
            raise AssertionError("the samples were read before the rates were checked")

        monkeypatch.setattr(pipeline, "_checked_paths", read_samples)
        with pytest.raises(ValueError, match=message):
            getattr(pipeline, estimator)(EXPT1, rates, samples=samples)


class TestGroundTruth:
    """Every estimator compares its estimate with a ground truth of the
    estimate's own shape."""

    MEANS = [1.0, 2.0, 3.0]
    TRUTH = {"algebraic_gh": WEIGHTS, "estimate_gh": WEIGHTS, "estimate_exp": MEANS}

    def _run(self, estimator, ground_truth=None):
        """(estimate, MatchResult) of one estimator on expt1."""
        mixes = [GhMix(RATES, w) for w in WEIGHTS]
        if estimator == "algebraic_gh":
            result, _ = pipeline.algebraic_gh(
                EXPT1, RATES, exact_mixes=mixes, ground_truth=ground_truth
            )
            return result.weights, result
        if estimator == "estimate_gh":
            samples = sample_paths(EXPT1, mixes, 20_000, seed=0).samples
            result, _ = pipeline.estimate_gh(
                EXPT1, RATES, samples=samples, ground_truth=ground_truth
            )
            return result.weights, result
        means, result, _ = pipeline.estimate_exp(
            EXPT1, exact_means=self.MEANS, ground_truth=ground_truth
        )
        return means, result

    @pytest.mark.parametrize("estimator", sorted(TRUTH))
    def test_error_norm_against_truth(self, estimator):
        truth = np.array(self.TRUTH[estimator])
        estimate, result = self._run(estimator, truth)
        assert result.error_norm == float(np.linalg.norm((estimate - truth).ravel()))
        if estimator != "estimate_gh":  # the exact modes recover the truth
            assert result.error_norm < 1e-8
        assert self._run(estimator)[1].error_norm is None

    @pytest.mark.parametrize("estimator, truth", [
        pytest.param("algebraic_gh", WEIGHTS[0], id="algebraic_gh-row"),
        pytest.param("algebraic_gh", np.zeros((2, 3)), id="algebraic_gh-rows"),
        pytest.param("estimate_gh", WEIGHTS[0], id="estimate_gh-row"),
        pytest.param("estimate_gh", np.zeros((2, 3)), id="estimate_gh-rows"),
        pytest.param("estimate_exp", [2.0], id="estimate_exp-short"),
        pytest.param("estimate_exp", np.zeros((3, 1)), id="estimate_exp-column"),
    ])
    def test_ground_truth_shape_mismatch_rejected(self, estimator, truth):
        shape = (3,) if estimator == "estimate_exp" else (3, 3)
        message = f"ground truth shape {np.shape(truth)} != estimate shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            self._run(estimator, truth)


class TestExactValueCount:
    """Exact mode takes one exact mixture or mean per link."""

    @pytest.mark.parametrize("count", [2, 4])
    def test_estimate_gh_rejects(self, count):
        mixes = [GhMix(RATES, WEIGHTS[k % 3]) for k in range(count)]
        with pytest.raises(ValueError, match=f"exact_mixes lists {count} values for 3 links"):
            pipeline.estimate_gh(EXPT1, RATES, exact_mixes=mixes)

    @pytest.mark.parametrize("count", [2, 4])
    def test_estimate_exp_rejects(self, count):
        means = [1.0, 2.0, 3.0, 4.0][:count]
        with pytest.raises(ValueError, match=f"exact_means lists {count} values for 3 links"):
            pipeline.estimate_exp(EXPT1, exact_means=means)


class TestExactMixRates:
    """Each exact mixture must be over the estimator's rates."""

    @pytest.mark.parametrize("rates", [(6.0, 3.0, 1.0), (5.0, 3.0, 1.0, 0.5)])
    def test_algebraic_gh_rejects(self, rates):
        mixes = [GhMix(RATES, WEIGHTS[0]), GhMix(rates, np.full(len(rates), 1.0 / len(rates))),
                 GhMix(RATES, WEIGHTS[2])]
        message = f"exact_mixes: link 1 has rates {rates}, not lambdas {RATES}"
        with pytest.raises(ValueError, match=re.escape(message)):
            pipeline.algebraic_gh(EXPT1, RATES, exact_mixes=mixes)


class TestStagesCalledThroughTheirModules:
    """The estimators reach each stage through its module's attribute, so a
    tracer that rebinds the attribute sees every call."""

    @staticmethod
    def _record(monkeypatch, stages):
        calls = Counter()
        for module, name in stages:
            original = getattr(module, name)

            def recorder(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, recorder)
        return calls

    def test_estimate_exp(self, monkeypatch):
        calls = self._record(monkeypatch, [
            (expmeans, "build_mean_system"), (polysolve, "solve_system"),
            (match, "run_matching"),
        ])
        pipeline.estimate_exp(EXPT1, exact_means=[1.0, 2.0, 3.0])
        assert calls == {"build_mean_system": 2, "solve_system": 2, "run_matching": 1}

    # one empirical_mgf call per probe point: 2 paths of 2 links, with d = 2
    # probe points per link for gh and 1 for exp
    @pytest.mark.parametrize(
        "estimator, rates, n_calls",
        [("algebraic_gh", (RATES,), 8), ("estimate_exp", (), 4)],
        ids=["algebraic_gh", "estimate_exp"],
    )
    def test_sampled_mgf(self, monkeypatch, estimator, rates, n_calls):
        calls = self._record(monkeypatch, [(mgfest, "empirical_mgf")])
        mixes = [GhMix(RATES, w) for w in WEIGHTS]
        samples = sample_paths(EXPT1, mixes, 20_000, seed=0).samples
        getattr(pipeline, estimator)(EXPT1, *rates, samples=samples)
        assert calls == {"empirical_mgf": n_calls}

    def test_algebraic_gh(self, monkeypatch):
        calls = self._record(monkeypatch, [
            (mgfest, "choose_tau"), (mgfest, "assemble_constants"),
            (epsbuild, "build_t_tau"), (polysolve, "solve_system"),
            (match, "run_matching"),
        ])
        pipeline.algebraic_gh(EXPT1, RATES, exact_mixes=[GhMix(RATES, w) for w in WEIGHTS])
        assert calls == {
            "choose_tau": 2, "assemble_constants": 2, "build_t_tau": 2,
            "solve_system": 2, "run_matching": 1,
        }


class TestOneInputSource:
    """Samples and exact values given together raise, instead of one of them
    being dropped."""

    @pytest.mark.parametrize("estimator", ["estimate_gh", "algebraic_gh", "estimate_exp"])
    def test_samples_and_exact_values_raise(self, estimator):
        # samples that would fail every sample check, beside exact values
        # that alone give an answer
        if estimator == "estimate_exp":
            args, exact = (EXPT1,), {"exact_means": [1.0, 2.0, 3.0]}
        else:
            args, exact = (EXPT1, RATES), {"exact_mixes": [GhMix(RATES, w) for w in WEIGHTS]}
        (name,) = exact
        with pytest.raises(ValueError, match=f"give exactly one of samples or {name}"):
            getattr(pipeline, estimator)(*args, samples=[[np.nan]] * 2, **exact)


class TestDeltaOption:
    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_delta_raises(self, delta):
        with pytest.raises(ValueError, match="delta"):
            pipeline.EstimateOptions(delta=delta)


class TestTauKeys:
    """A ``tau`` key that names no path raises instead of being ignored."""

    @pytest.mark.parametrize("keys, unknown", [((7,), "[7]"), ((0, -1, 2), "[-1, 2]")])
    def test_algebraic_gh_rejects(self, keys, unknown):
        mixes = [GhMix(RATES, w) for w in WEIGHTS]
        opts = pipeline.EstimateOptions(tau={k: (0.5, 1.0, 1.5, 2.0) for k in keys})
        message = f"tau names path(s) {unknown} outside 0..1"
        with pytest.raises(ValueError, match=re.escape(message)):
            pipeline.algebraic_gh(EXPT1, RATES, exact_mixes=mixes, options=opts)

    def test_estimate_exp_rejects(self):
        opts = pipeline.EstimateOptions(tau={0: (0.2, 0.4), 7: (0.2, 0.4)})
        with pytest.raises(ValueError, match=re.escape("tau names path(s) [7] outside 0..1")):
            pipeline.estimate_exp(EXPT1, exact_means=[1.0, 2.0, 3.0], options=opts)
