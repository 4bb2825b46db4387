"""Cross-path matching of solved weight vectors to links.

The per-path solvers each return a cloud of candidate weight vectors.
Estimates of the same link's vector, obtained from different paths, differ
by noise, so the union of all clouds is first clustered with a threshold
radius; each link crossed by two or more paths is then assigned the unique
cluster present in the solution cloud of every path through it and absent
from every other path's cloud.  Links crossed by a single path are resolved
in a second stage by completing the already-assigned vectors of that path
against its full root list.

``run_matching`` takes the radius as a plain ``delta``: a given radius is
halved on failure, and ``None`` tries multiples of the smallest cross-path
distance between solution vectors (``auto_delta``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .model import RoutingMatrix

__all__ = [
    "MatchResult",
    "EquivClass",
    "PathSolutions",
    "AmbiguityError",
    "MatchingError",
    "cluster",
    "psi_stage1",
    "psi_stage2",
    "finalize",
    "run_matching",
    "auto_delta",
]


class AmbiguityError(RuntimeError):
    """Zero or multiple candidate clusters for some link."""


class MatchingError(RuntimeError):
    """No root of the single covering path is compatible with the assignment."""


# An explicit radius is shrunk by _SHRINK up to _MAX_RETRIES times; an
# automatic one tries these multiples of the cross-path noise scale in turn.
_SHRINK = 0.5
_MAX_RETRIES = 40
_AUTO_MULTIPLIERS = (0.55, 0.75, 1.0, 0.45, 0.35, 0.25, 0.15)


@dataclass(frozen=True)
class EquivClass:
    """One cluster of near-coincident solution vectors.

    ``paths`` records which paths' solution clouds contributed members;
    ``value`` is the plain average of the members.
    """

    members: tuple[np.ndarray, ...]
    paths: frozenset[int]
    value: np.ndarray


@dataclass(frozen=True)
class PathSolutions:
    """Solver output of one path, reduced to real vectors.

    ``reduced`` is the deduplicated first-block cloud; ``root_blocks`` lists
    every (near-)real root as its sequence of per-link-slot blocks, in the
    order of ``links`` (the sorted link indices of the path).
    """

    path_id: int
    links: tuple[int, ...]
    reduced: tuple[np.ndarray, ...]
    root_blocks: tuple[tuple[np.ndarray, ...], ...]


@dataclass(frozen=True)
class MatchResult:
    """Per-link assigned weight vectors with provenance."""

    weights: np.ndarray  # (N, d+1), last entry reconstituted
    provenance: tuple[dict, ...]
    delta: float
    error_norm: float | None = None


def cluster(
    points: list[tuple[np.ndarray, int]], delta: float
) -> list[EquivClass]:
    """Partition labeled vectors into connected components of the 2*delta graph.

    Components are taken as they are, without the pairwise condition (all
    members within 2*delta of each other), which tolerates estimate chains
    whose end-to-end spread exceeds 2*delta.  Returns the classes in a
    canonical order independent of input order.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    order = sorted(range(len(points)), key=lambda i: tuple(points[i][0]))
    vecs = [np.asarray(points[i][0], dtype=float) for i in order]
    labels = [points[i][1] for i in order]
    n = len(vecs)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(vecs[i] - vecs[j]) < 2 * delta:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    classes = []
    for comp in comps.values():
        members = tuple(vecs[i] for i in comp)
        classes.append(
            EquivClass(
                members=members,
                paths=frozenset(labels[i] for i in comp),
                value=np.mean(members, axis=0),
            )
        )
    classes.sort(key=lambda c: tuple(c.value))
    return classes


def psi_stage1(
    classes: list[EquivClass], a: RoutingMatrix
) -> dict[int, int]:
    """Assign to every multiply-covered link its unique admissible cluster.

    A cluster is admissible for link j when it has members from every path
    through j and from no path avoiding j.  Returns link -> class index.
    """
    sets = a.sets
    assignment: dict[int, int] = {}
    for j in sorted(sets.shared):
        g_j = sets.link_paths[j]
        b_j = sets.off_paths[j]
        candidates = [
            idx
            for idx, c in enumerate(classes)
            if g_j <= c.paths and not (b_j & c.paths)
        ]
        if len(candidates) != 1:
            raise AmbiguityError(
                f"link {j}: {len(candidates)} candidate clusters (expected 1); "
                "solution clouds of distinct paths collide or fail to overlap"
            )
        assignment[j] = candidates[0]
    return assignment


def _block_class(block: np.ndarray, classes: list[EquivClass], delta: float):
    """Index of the cluster containing this root block, or None."""
    best, best_dist = None, delta
    for idx, c in enumerate(classes):
        dist = min(np.linalg.norm(block - m) for m in c.members)
        if dist < best_dist:
            best, best_dist = idx, dist
    return best


def psi_stage2(
    assignment: dict[int, int],
    classes: list[EquivClass],
    path_solutions: dict[int, PathSolutions],
    a: RoutingMatrix,
    delta: float,
) -> dict[int, int]:
    """Extend the assignment to links covered by a single path.

    For such a link, every other link of its covering path already has an
    assigned cluster; among the path's roots, the one whose blocks realize
    exactly that multiset of clusters pins down the remaining block's
    cluster.  Paths of length one assign their single solution directly.
    """
    sets = a.sets
    full = dict(assignment)
    for j in range(a.n_links):
        if j in full:
            continue
        g_j = sets.link_paths[j]
        if len(g_j) != 1:
            raise AmbiguityError(f"link {j} has no unique covering path: {sorted(g_j)}")
        i_star = next(iter(g_j))
        sol = path_solutions[i_star]
        if len(sol.links) == 1:
            if len(sol.reduced) != 1:
                raise MatchingError(
                    f"single-link path {i_star} produced {len(sol.reduced)} "
                    "solutions instead of 1"
                )
            cls = _block_class(sol.reduced[0], classes, delta)
            if cls is None:
                raise MatchingError(
                    f"solution of single-link path {i_star} matches no cluster"
                )
            full[j] = cls
            continue
        try:
            v_sub = Counter(full[k] for k in sol.links if k != j)
        except KeyError as exc:
            raise MatchingError(
                f"link {j}: covering path {i_star} contains link {exc.args[0]} "
                "with no stage-1 assignment"
            ) from exc
        candidates = set()
        for blocks in sol.root_blocks:
            block_classes = [_block_class(b, classes, delta) for b in blocks]
            if any(c is None for c in block_classes):
                continue
            counts = Counter(block_classes)
            leftover = counts - v_sub
            if sum(leftover.values()) == 1 and not (v_sub - counts):
                candidates.add(next(iter(leftover)))
        if len(candidates) != 1:
            raise MatchingError(
                f"link {j}: {len(candidates)} compatible completions in the "
                f"roots of path {i_star} (expected 1)"
            )
        full[j] = candidates.pop()
    return full


def finalize(
    assignment: dict[int, int],
    classes: list[EquivClass],
    d: int,
    delta: float,
    ground_truth: np.ndarray | None = None,
) -> MatchResult:
    """Reconstitute full weight vectors and, optionally, the error norm.

    The error norm concatenates the elementwise differences across all
    links and all d+1 weights.
    """
    n = max(assignment) + 1 if assignment else 0
    weights = np.full((n, d + 1), np.nan)
    provenance = []
    for j in range(n):
        cls = classes[assignment[j]]
        weights[j, :d] = cls.value
        weights[j, d] = 1.0 - cls.value.sum()
        provenance.append(
            {
                "link": j,
                "paths": sorted(cls.paths),
                "class_members": [m.tolist() for m in cls.members],
            }
        )
    error_norm = None
    if ground_truth is not None:
        truth = np.asarray(ground_truth, dtype=float)
        if truth.shape != weights.shape:
            raise ValueError(
                f"ground truth shape {truth.shape} != estimate shape {weights.shape}"
            )
        error_norm = float(np.linalg.norm((weights - truth).ravel()))
    return MatchResult(
        weights=weights,
        provenance=tuple(provenance),
        delta=delta,
        error_norm=error_norm,
    )


def auto_delta(path_solutions: dict[int, PathSolutions]) -> float:
    """Smallest distance between solution vectors of different paths.

    This is the natural noise scale: the closest cross-path pair is a pair
    of estimates of the same underlying vector.
    """
    best = np.inf
    items = sorted(path_solutions)
    for a_idx in range(len(items)):
        for b_idx in range(a_idx + 1, len(items)):
            for u in path_solutions[items[a_idx]].reduced:
                for v in path_solutions[items[b_idx]].reduced:
                    best = min(best, float(np.linalg.norm(u - v)))
    return best


def run_matching(
    a: RoutingMatrix,
    path_solutions: dict[int, PathSolutions],
    d: int,
    delta: float | None = None,
    ground_truth: np.ndarray | None = None,
) -> MatchResult:
    """Cluster all paths' solutions and assign one weight vector per link.

    ``delta`` of None selects the radius automatically: a ladder of
    multiples of the cross-path noise scale (``auto_delta``) is tried until
    both assignment stages succeed.  An explicit radius is shrunk
    geometrically on failure instead.
    """
    points = [
        (vec, pid)
        for pid, sol in sorted(path_solutions.items())
        for vec in sol.reduced
    ]
    if delta is not None:
        deltas = [delta * _SHRINK**k for k in range(_MAX_RETRIES + 1)]
    else:
        base = auto_delta(path_solutions)
        if not np.isfinite(base):
            base = 1e-8  # single-path setups have no cross-path scale
        deltas = [max(m * base, 1e-9) for m in _AUTO_MULTIPLIERS]
    last_error: Exception | None = None
    for radius in deltas:
        try:
            classes = cluster(points, radius)
            stage1 = psi_stage1(classes, a)
            full = psi_stage2(stage1, classes, path_solutions, a, radius)
            return finalize(full, classes, d, radius, ground_truth=ground_truth)
        except (AmbiguityError, MatchingError) as exc:
            last_error = exc
    raise AmbiguityError(
        f"matching failed for every clustering radius tried: {last_error}"
    ) from last_error
