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

__all__ = ["MatchResult", "AmbiguityError", "run_matching"]

# Two combinations whose costs agree within this rounding tie; tied ones
# whose link estimates differ by more than _SAME_TOL are ambiguous.
_TIE_RTOL = 1e-9
_TIE_ATOL = 1e-12
_SAME_TOL = 1e-6
# The search allocates a few arrays of this many combinations per link.
_MAX_COMBINATIONS = 10**6


class AmbiguityError(RuntimeError):
    """A path has no real root, the roots have too many combinations to
    search, or two combinations tie at the least disagreement with different
    link weights."""


@dataclass(frozen=True)
class MatchResult:
    """Per-link assigned weight vectors with provenance.

    ``delta`` is the matched roots' spread: the largest distance of a block
    from its link's estimate.  It is None for the likelihood fit, which
    matches no roots.
    ``error_norm`` is the estimate's distance from a ground truth: the
    estimators in ``pipeline`` fill it when given one.
    """

    weights: np.ndarray  # (N, d+1), last entry reconstituted
    provenance: tuple[dict, ...]
    delta: float | None
    error_norm: float | None = None


def run_matching(a: RoutingMatrix, roots) -> MatchResult:
    """Pick one root per path so that shared links' blocks disagree least.

    ``roots[i]`` is path i's real roots, an (R_i, N_i, d) array (or nested
    sequences) of finite blocks in increasing link order.  Another length or
    shape, or a value that is not finite, raises ``ValueError``.
    The search is exhaustive over the product of the paths' root lists: on
    the bundled experiments that is at most 6**3 = 216 combinations.  It
    runs as array operations over all combinations at once: each link's
    blocks are stacked into a (combinations, blocks, d) array, which gives
    one cost per combination; the first least cost wins, and one mask
    finds the combinations tied with it.
    Raises ``AmbiguityError`` when a path has no real root, when the root
    counts multiply to more than ``_MAX_COMBINATIONS`` (before allocating),
    or when two combinations tie at the least cost and give different link
    weights.  ``MatchResult.delta`` is the largest block-to-estimate distance.
    """
    if len(roots) != a.n_paths:
        raise ValueError(f"got roots of {len(roots)} paths; the routing matrix has {a.n_paths}")
    links = [sorted(a.path_links(i)) for i in range(a.n_paths)]
    roots = [np.asarray(r, dtype=float) for r in roots]
    for i, r in enumerate(roots):
        if not len(r):
            raise AmbiguityError(f"path {i} has no real root")
        if r.shape[1:] != (len(links[i]), roots[0].shape[-1]):
            raise ValueError(f"path {i}'s roots have shape {r.shape}, not (R, N_i, d)")
        if not np.isfinite(r).all():
            raise ValueError(f"path {i} has a root that is not finite")
    counts = [len(r) for r in roots]
    n_combos = math.prod(counts)
    if n_combos > _MAX_COMBINATIONS:
        per_path = ", ".join(f"path {i}: {n}" for i, n in enumerate(counts))
        raise AmbiguityError(
            f"{n_combos} root combinations ({per_path}) exceed the "
            f"{_MAX_COMBINATIONS} the exhaustive search allows"
        )
    # (path, slot in that path's root) of every block of a link
    slots = [
        [(i, path.index(j)) for i, path in enumerate(links) if j in path]
        for j in range(a.n_links)
    ]
    # every combination of one root per path, in ``itertools.product`` order:
    # combos[i] holds path i's root index in each
    combos = np.indices(counts).reshape(len(roots), -1)
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
    weights = np.column_stack([means, 1.0 - means.sum(axis=1)])
    provenance = tuple(
        {
            "link": j,
            "paths": [i for i, _ in slots[j]],
            "blocks": blocks[j].tolist(),
        }
        for j in range(a.n_links)
    )
    return MatchResult(weights=weights, provenance=provenance, delta=spread)
