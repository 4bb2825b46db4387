from itertools import product

import numpy as np
import pytest

from disttomo import pipeline
from disttomo.match import AmbiguityError, MatchResult, run_matching
from disttomo.model import GhMix, RoutingMatrix, is_one_identifiable

EXPT1 = RoutingMatrix(((1, 1, 0), (1, 0, 1)))


class TestRunMatching:
    def build_solutions(self):
        # Full root blocks: genuine roots are the two orderings of the pair
        # of link vectors; append one spurious root per path.
        w = {
            0: np.array([0.17, 0.80]),
            1: np.array([0.13, 0.47]),
            2: np.array([0.80, 0.15]),
        }
        spurious = {0: np.array([3.85, -2.86]), 1: np.array([5.56, -4.56])}

        def sols(pid, links):
            a, b = (w[links[0]], w[links[1]])
            s = spurious[pid]
            return np.array(((a, b), (b, a), (s, s)))

        return [sols(0, (0, 1)), sols(1, (0, 2))]

    def test_exact_assignment(self):
        result = run_matching(EXPT1, self.build_solutions())
        expected = np.array(
            [[0.17, 0.80, 0.03], [0.13, 0.47, 0.40], [0.80, 0.15, 0.05]]
        )
        np.testing.assert_allclose(result.weights, expected, atol=1e-12)

    def test_provenance_never_uses_forbidden_paths(self):
        result = run_matching(EXPT1, self.build_solutions())
        sets = EXPT1.sets
        for j, entry in enumerate(result.provenance):
            assert not (
                set(entry["paths"]) & {b for b in sets.off_paths[j]}
            )


class TestLeastDisagreement:
    def test_symmetric_paths_are_ambiguous(self):
        # Both link orders of both paths agree perfectly: two combinations
        # cost 0 and swap the weights of every link.
        zero, one = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        roots = np.array(((zero, one), (one, zero)))
        sols = [roots, roots]
        with pytest.raises(AmbiguityError, match="tie"):
            run_matching(EXPT1, sols)

    def noisy_solutions(self):
        # The shared link's blocks sit 0.04 apart, 0.02 from their mean.
        return [
            np.array(((np.array([0.17, 0.80]), np.array([0.13, 0.47])),)),
            np.array(((np.array([0.21, 0.80]), np.array([0.80, 0.15])),)),
        ]

    def test_spread_reported_without_delta(self):
        result = run_matching(EXPT1, self.noisy_solutions())
        assert result.delta == pytest.approx(0.02)
        np.testing.assert_allclose(result.weights[0], [0.19, 0.80, 0.01])
        assert result.provenance[0]["blocks"] == [[0.17, 0.80], [0.21, 0.80]]

    def test_path_without_root_raises(self):
        sols = self.noisy_solutions()
        sols[1] = np.empty((0, 2, 2))
        with pytest.raises(AmbiguityError, match="path 1 has no real root"):
            run_matching(EXPT1, sols)

    def test_wrong_number_of_paths_raises(self):
        sols = self.noisy_solutions()
        for roots in (sols[:1], sols + sols[:1]):
            with pytest.raises(ValueError, match=f"roots of {len(roots)} paths.* has 2"):
                run_matching(EXPT1, roots)

    def test_wrong_block_shape_raises(self):
        sols = self.noisy_solutions()
        for bad in (sols[1][:, :1], sols[1][:, :, :1], sols[1][0]):
            with pytest.raises(ValueError, match="path 1's roots have shape"):
                run_matching(EXPT1, [sols[0], bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_root_raises(self, bad):
        sols = self.noisy_solutions()
        sols[1] = np.full((1, 2, 2), bad)
        with pytest.raises(ValueError, match="path 1 has a root that is not finite"):
            run_matching(EXPT1, sols)

    def test_too_many_combinations_raise(self):
        # two paths sharing one link, with 1001 x 1000 one-block roots
        shared = RoutingMatrix(((1,), (1,)))
        sols = [
            np.array(tuple((np.array([0.001 * k, 0.5]),) for k in range(n)))
            for n in (1001, 1000)
        ]
        with pytest.raises(
            AmbiguityError, match=r"1001000 root combinations \(path 0: 1001, path 1: 1000\)"
        ):
            run_matching(shared, sols)


class TestAgainstCombinationLoop:
    """The array search picks what scoring each combination in turn picks."""

    EXPT3 = RoutingMatrix(((1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)))

    @staticmethod
    def _first_least(a, sols):
        links = [sorted(a.path_links(i)) for i in range(a.n_paths)]
        best_cost, best_blocks = np.inf, None
        for combo in product(*sols):
            blocks = [
                np.array([combo[i][path.index(j)] for i, path in enumerate(links) if j in path])
                for j in range(a.n_links)
            ]
            cost = sum(((b - b.mean(axis=0)) ** 2).sum() for b in blocks)
            if cost < best_cost:
                best_cost, best_blocks = cost, blocks
        return best_blocks

    @staticmethod
    def _random_roots(seed):
        """Six roots of two blocks per path, as nested tuples."""
        rng = np.random.default_rng(seed)
        return [
            tuple(tuple(rng.uniform(-1.0, 2.0, 2) for _ in range(2)) for _ in range(6))
            for _ in range(3)
        ]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_roots(self, seed):
        sols = self._random_roots(seed)
        result = run_matching(self.EXPT3, sols)
        blocks = self._first_least(self.EXPT3, sols)
        assert [p["blocks"] for p in result.provenance] == [b.tolist() for b in blocks]
        means = np.array([b.mean(axis=0) for b in blocks])
        np.testing.assert_allclose(result.weights[:, :2], means, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_arrays_and_nested_tuples_agree(self, seed):
        sols = self._random_roots(seed)
        from_tuples = run_matching(self.EXPT3, sols)
        from_arrays = run_matching(self.EXPT3, [np.array(r) for r in sols])
        assert isinstance(from_arrays, MatchResult)
        assert from_arrays.weights.tobytes() == from_tuples.weights.tobytes()
        assert from_arrays.provenance == from_tuples.provenance
        assert from_arrays.delta == from_tuples.delta


class TestIdealCaseProperty:
    def test_exact_recovery_on_random_topologies(self):
        # Full pipeline in the analytic-MGF mode recovers every link's
        # weights on random identifiable topologies with distinct vectors.
        rng = np.random.default_rng(99)
        rates = (5.0, 3.0, 1.0)
        done = 0
        attempts = 0
        while done < 4 and attempts < 300:
            attempts += 1
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 5))
            a = rng.integers(0, 2, size=(m, n))
            if (
                (a.sum(axis=1) == 0).any()
                or (a.sum(axis=1) > 2).any()  # keep Bezout counts small
                or (a.sum(axis=0) == 0).any()
                or not is_one_identifiable(a)
            ):
                continue
            weights = rng.dirichlet(np.ones(3), size=n)
            if np.min(
                [
                    np.linalg.norm(weights[i] - weights[j])
                    for i in range(n)
                    for j in range(i + 1, n)
                ]
            ) < 0.15:
                continue
            mixes = [GhMix(rates, tuple(w)) for w in weights]
            try:
                result, _ = pipeline.estimate_gh(
                    RoutingMatrix.from_array(a), rates, exact_mixes=mixes
                )
            except AmbiguityError:
                continue  # solution-cloud collision; regenerate the instance
            assert np.abs(result.weights - weights).max() < 1e-8
            done += 1
        assert done == 4
