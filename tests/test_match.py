import numpy as np
import pytest

from disttomo import pipeline
from disttomo.match import (
    AmbiguityError,
    PathSolutions,
    auto_delta,
    cluster,
    finalize,
    psi_stage1,
    run_matching,
)
from disttomo.model import GhMix, RoutingMatrix, is_one_identifiable

EXPT1 = RoutingMatrix(((1, 1, 0), (1, 0, 1)))

# Estimated per-path solution clouds of the two-path tree benchmark
# (first-block vectors), used as a realistic clustering fixture.
M1_HAT = [
    (0.1542, 0.4558),
    (0.1292, 0.8356),
    (3.8525, -2.8646),
    (0.2260, 0.7394),
    (0.0882, 0.5152),
    (0.0052, -0.1330),
]
M2_HAT = [
    (0.7933, 0.1459),
    (0.1720, 0.8095),
    (5.5573, -4.5584),
    (0.1645, 0.7669),
    (0.8296, 0.1540),
    (0.0246, -0.0259),
]


def labeled_points():
    pts = [(np.array(v), 0) for v in M1_HAT]
    pts += [(np.array(v), 1) for v in M2_HAT]
    return pts


class TestCluster:
    def test_far_points_stay_separate(self):
        delta = 0.1
        pts = [(np.array([0.0, 0.0]), 0), (np.array([3 * delta, 0.0]), 1)]
        classes = cluster(pts, delta)
        assert len(classes) == 2

    def test_benchmark_pair_lands_in_one_class(self):
        # The two shared-link estimates are 0.0502 apart, below 2*0.03.
        classes = cluster(labeled_points(), 0.03)
        shared = [c for c in classes if c.paths == frozenset({0, 1})]
        assert len(shared) == 1
        members = {tuple(np.round(m, 4)) for m in shared[0].members}
        # The cross-path pair at distance 0.0502 < 2*0.03 is joined (one
        # same-path neighbor chains in as well under component clustering).
        assert {(0.1292, 0.8356), (0.1720, 0.8095)} <= members
        # All other classes stay path-pure.
        assert all(len(c.paths) == 1 for c in classes if c is not shared[0])

    def test_order_invariance(self):
        classes_a = cluster(labeled_points(), 0.03)
        classes_b = cluster(list(reversed(labeled_points())), 0.03)
        vals_a = [tuple(np.round(c.value, 10)) for c in classes_a]
        vals_b = [tuple(np.round(c.value, 10)) for c in classes_b]
        assert vals_a == vals_b

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            cluster(labeled_points(), 0.0)


class TestPsiStage1:
    def test_benchmark_shared_link(self):
        classes = cluster(labeled_points(), 0.03)
        assignment = psi_stage1(classes, EXPT1)
        assert set(assignment) == {0}
        value = classes[assignment[0]].value
        # Mean of the three clustered members (the cross-path pair plus one
        # chained neighbor); stays within the coarse-delta noise band of the
        # underlying vector (0.17, 0.80).
        np.testing.assert_allclose(value, [0.15523, 0.804], atol=1e-4)

    def test_ambiguity_raises(self):
        # Two classes both span the two paths: no unique candidate.
        pts = [
            (np.array([0.0, 0.0]), 0),
            (np.array([0.001, 0.0]), 1),
            (np.array([1.0, 1.0]), 0),
            (np.array([1.001, 1.0]), 1),
        ]
        classes = cluster(pts, 0.01)
        with pytest.raises(AmbiguityError, match="link 0"):
            psi_stage1(classes, EXPT1)


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
            return PathSolutions(
                path_id=pid,
                links=links,
                reduced=(a, b, s),
                root_blocks=((a, b), (b, a), (s, s)),
            )

        return {0: sols(0, (0, 1)), 1: sols(1, (0, 2))}

    def test_exact_assignment(self):
        result = run_matching(EXPT1, self.build_solutions(), d=2)
        expected = np.array(
            [[0.17, 0.80, 0.03], [0.13, 0.47, 0.40], [0.80, 0.15, 0.05]]
        )
        np.testing.assert_allclose(result.weights, expected, atol=1e-12)

    def test_provenance_never_uses_forbidden_paths(self):
        result = run_matching(EXPT1, self.build_solutions(), d=2)
        sets = EXPT1.sets
        for j, entry in enumerate(result.provenance):
            assert not (
                set(entry["paths"]) & {b for b in sets.off_paths[j]}
            )

    def test_error_norm_against_truth(self):
        truth = np.array(
            [[0.17, 0.80, 0.03], [0.13, 0.47, 0.40], [0.80, 0.15, 0.05]]
        )
        result = run_matching(
            EXPT1, self.build_solutions(), d=2, ground_truth=truth
        )
        assert result.error_norm == pytest.approx(0.0, abs=1e-12)

    def test_explicit_delta_respected(self):
        result = run_matching(
            EXPT1, self.build_solutions(), d=2, delta=0.03
        )
        assert result.delta == pytest.approx(0.03)


class TestFinalize:
    def test_reconstitutes_last_weight(self):
        classes = cluster(
            [(np.array([0.2, 0.3]), 0), (np.array([0.5, 0.1]), 1)], 0.01
        )
        assignment = {0: 0, 1: 1}
        result = finalize(assignment, classes, d=2, delta=0.01)
        np.testing.assert_allclose(result.weights[:, 2], [0.5, 0.4])

    def test_shape_mismatch_rejected(self):
        classes = cluster([(np.array([0.2, 0.3]), 0)], 0.01)
        with pytest.raises(ValueError, match="shape"):
            finalize({0: 0}, classes, d=2, delta=0.01, ground_truth=np.zeros((2, 3)))


def test_auto_delta_is_min_cross_path_distance():
    sols = {
        0: PathSolutions(0, (0,), (np.array([0.0]), np.array([5.0])), ()),
        1: PathSolutions(1, (0,), (np.array([0.4]),), ()),
    }
    assert auto_delta(sols) == pytest.approx(0.4)


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
