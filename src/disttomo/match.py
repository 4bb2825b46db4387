"""Cross-path matching of solved weight vectors to links.

Each path's solver returns its real roots, and every root lists one weight
vector (block) per link of the path.  The true vector of a link shows up
in the root set of every path that crosses it, so matching picks one root
per path: the combination whose blocks agree best on every shared link,
measured as the summed squared distance of each link's blocks from their
mean.  Each link's estimate is the mean of its blocks.  On noise-free data
the true combination costs about 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import RoutingMatrix

__all__ = ["MatchResult", "PathSolutions", "AmbiguityError", "run_matching"]

# Two combinations whose costs agree within this rounding tie; tied ones
# whose link estimates differ by more than _SAME_TOL are ambiguous.
_TIE_RTOL = 1e-9
_TIE_ATOL = 1e-12
_SAME_TOL = 1e-6
# The search allocates a few arrays of this many combinations per link.
_MAX_COMBINATIONS = 10**6


class AmbiguityError(RuntimeError):
    """No root, no unique best combination of roots, or too many to search."""


@dataclass(frozen=True)
class PathSolutions:
    """Solver output of one path, reduced to real roots.

    ``root_blocks`` lists every (near-)real root as its sequence of
    per-link-slot blocks, in the order of ``links`` (the sorted link
    indices of the path).
    """

    path_id: int
    links: tuple[int, ...]
    root_blocks: tuple[tuple[np.ndarray, ...], ...]


@dataclass(frozen=True)
class MatchResult:
    """Per-link assigned weight vectors with provenance.

    ``delta`` is None for the likelihood fit, which matches no roots.
    ``error_norm`` is the estimate's distance from a ground truth: the
    estimators in ``pipeline`` fill it when given one.
    """

    weights: np.ndarray  # (N, d+1), last entry reconstituted
    provenance: tuple[dict, ...]
    delta: float | None
    error_norm: float | None = None


def run_matching(
    a: RoutingMatrix,
    path_solutions: dict[int, PathSolutions],
    d: int,
    delta: float | None = None,
) -> MatchResult:
    """Pick one root per path so that shared links' blocks disagree least.

    The search is exhaustive over the product of the paths' root lists: on
    the bundled experiments that is at most 6**3 = 216 combinations.  It
    runs as array operations over all combinations at once: each link's
    blocks are stacked into a (combinations, blocks, d) array, which gives
    one cost per combination; the first least cost wins, and one mask
    finds the combinations tied with it.
    Raises ``AmbiguityError`` when a path has no real root, when the root
    counts multiply to more than ``_MAX_COMBINATIONS`` (before allocating),
    when two combinations tie at the least cost and give different link
    weights, or when ``delta`` is given and some block lies more than
    ``delta`` from its link's estimate.  ``MatchResult.delta`` is the given
    ``delta`` or, when none is given, the largest block-to-estimate distance.
    """
    pids = sorted(path_solutions)
    for pid in pids:
        if not path_solutions[pid].root_blocks:
            raise AmbiguityError(f"path {pid} has no real root")
    counts = [len(path_solutions[pid].root_blocks) for pid in pids]
    n_combos = math.prod(counts)
    if n_combos > _MAX_COMBINATIONS:
        per_path = ", ".join(f"path {pid}: {n}" for pid, n in zip(pids, counts))
        raise AmbiguityError(
            f"{n_combos} root combinations ({per_path}) exceed the "
            f"{_MAX_COMBINATIONS} the exhaustive search allows"
        )
    # (position in pids, slot in that path's root) of every block of a link
    slots = [
        [
            (k, path_solutions[pid].links.index(j))
            for k, pid in enumerate(pids)
            if j in path_solutions[pid].links
        ]
        for j in range(a.n_links)
    ]
    roots = [np.array(path_solutions[pid].root_blocks) for pid in pids]  # (roots, N_i, d)
    # every combination of one root per path, in ``itertools.product`` order:
    # combos[k] holds path k's root index in each
    combos = np.indices(counts).reshape(len(pids), -1)
    # per link, its blocks under every combination: (combinations, blocks, d)
    stacks = [
        np.stack([roots[k][combos[k], s] for k, s in link_slots], axis=1)
        for link_slots in slots
    ]
    means = np.stack([b.mean(axis=1) for b in stacks], axis=1)  # (combinations, N, d)
    cost = sum(((b - means[:, j, None]) ** 2).sum(axis=(1, 2)) for j, b in enumerate(stacks))
    best = int(np.argmin(cost))
    tied = np.isclose(cost, cost[best], rtol=_TIE_RTOL, atol=_TIE_ATOL)
    if (np.abs(means[tied] - means[best]).max(axis=(1, 2)) > _SAME_TOL).any():
        raise AmbiguityError(
            f"two root combinations tie at the least disagreement {cost[best]:.3g} "
            "and give different link weights"
        )
    blocks = [b[best] for b in stacks]
    means = means[best]
    spread = max(
        (float(np.linalg.norm(b - m, axis=1).max()) for b, m in zip(blocks, means)),
        default=0.0,
    )
    if delta is not None and spread > delta:
        raise AmbiguityError(
            f"a block lies {spread:.3g} from its link's estimate, beyond delta={delta}"
        )
    weights = np.column_stack([means, 1.0 - means.sum(axis=1)])
    provenance = tuple(
        {
            "link": j,
            "paths": [pids[k] for k, _ in slots[j]],
            "blocks": blocks[j].tolist(),
        }
        for j in range(a.n_links)
    )
    return MatchResult(
        weights=weights, provenance=provenance, delta=spread if delta is None else delta
    )
