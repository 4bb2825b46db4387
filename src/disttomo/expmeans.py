"""Per-link exponential-mean estimation from path delay samples.

When every link delay is exponential, the reciprocal of a path's MGF is a
polynomial whose coefficients are the elementary symmetric polynomials of
the link means.  Solving a Vandermonde system for those coefficients and
rooting the corresponding monic polynomial (Vieta) recovers the means of
the links on the path; cross-path matching then pins each mean to its
link.  The multivariate formulation has exactly the permutations of the
mean vector as its solution set, so the univariate reduction is lossless.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .match import PathSolutions, run_matching
from .mgfest import empirical_mgf
from .model import RoutingMatrix

__all__ = [
    "MeanSystem",
    "build_mean_system",
    "solve_means",
    "match_means",
]

_IMAG_TOL = 1e-8


@dataclass(frozen=True)
class MeanSystem:
    """Vandermonde-solved elementary symmetric values of one path's means,
    from the MGF at the probe points ``tau``."""

    tau: tuple[float, ...]
    esp: tuple[float, ...]

    @property
    def n_links(self) -> int:
        return len(self.esp)


def build_mean_system(
    tau,
    n_i: int,
    samples=None,
    exact_mgf=None,
) -> MeanSystem:
    """Invert the path MGF at the probe points and solve for the symmetric
    functions of the link means.

    Exactly one of ``samples`` or ``exact_mgf`` must be given.  Raises when
    an MGF value is zero (reciprocal blow-up; choose a smaller probe point).
    """
    tau = tuple(float(t) for t in tau)
    if len(tau) != n_i or len(set(tau)) != n_i or any(t <= 0 for t in tau):
        raise ValueError(f"need {n_i} distinct strictly positive probe points")
    if (samples is None) == (exact_mgf is None):
        raise ValueError("give exactly one of samples, exact_mgf")
    if samples is not None:
        mgf = [empirical_mgf(samples, t) for t in tau]
    else:
        mgf = [float(exact_mgf(t)) for t in tau]
    if any(not (0.0 < v <= 1.0 + 1e-12) for v in mgf):
        raise ValueError(
            "MGF estimate outside (0, 1]; reciprocal undefined, use smaller probe points"
        )
    c = [1.0 / v for v in mgf]
    vand = np.array([[t ** k for k in range(1, n_i + 1)] for t in tau])
    esp = np.linalg.solve(vand, np.asarray(c) - 1.0)
    return MeanSystem(tau=tau, esp=tuple(float(e) for e in esp))


def solve_means(system: MeanSystem):
    """Recover the path's link means as roots of the monic Vieta polynomial.

    Returns (means, degenerate_flag); complex root pairs beyond the
    imaginary tolerance flag noisy data and only real parts are returned.
    Near-coincident means are flagged degenerate (the model assumes all
    link means distinct).
    """
    n = system.n_links
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    for k in range(1, n + 1):
        coeffs[k] = (-1.0) ** k * system.esp[k - 1]
    roots = np.roots(coeffs)
    flagged = bool(np.abs(roots.imag).max(initial=0.0) > _IMAG_TOL)
    if flagged:
        warnings.warn(
            "complex mean estimates truncated to real parts; data too noisy "
            "or probe points ill-chosen",
            stacklevel=2,
        )
    means = np.sort(roots.real)
    # A coincident pair splits by ~sqrt(machine eps) under rounding of the
    # polynomial coefficients, so the gap test must be looser than that.
    if n > 1 and np.min(np.diff(means)) < 1e-6 * max(1.0, np.abs(means).max()):
        flagged = True
        warnings.warn(
            "nearly coincident link means on one path; the model assumes "
            "distinct means and the solve is degenerate here",
            stacklevel=2,
        )
    return means, flagged


def match_means(
    a: RoutingMatrix,
    path_means: dict[int, np.ndarray],
    delta: float | None = None,
):
    """Assign one mean per link by the same least-disagreement search as
    the weight-vector case, over every ordering of each path's means.

    ``path_means`` maps path index to the solved means of that path;
    ``delta``, when given, bounds how far any path's mean may lie from its
    link's estimate.  Returns (means array of length N, MatchResult).
    """
    path_solutions = {}
    for i, means in path_means.items():
        links = tuple(sorted(a.path_links(i)))
        if len(means) != len(links):
            raise ValueError(
                f"path {i}: {len(means)} means for {len(links)} links"
            )
        # The multivariate solution set is exactly the permutation orbit of
        # the mean vector, so the full root list can be reconstituted.
        roots = tuple(
            tuple(np.array([m], dtype=float) for m in perm)
            for perm in sorted(set(permutations(means)))
        )
        path_solutions[i] = PathSolutions(path_id=i, links=links, root_blocks=roots)
    result = run_matching(a, path_solutions, d=1, delta=delta)
    return result.weights[:, 0].copy(), result
