"""Right-hand side of the exponential-means variant.

When every link delay is exponential, the reciprocal of a path's MGF is
prod_j (1 + m_j t) = 1 + sum_k e_k t^k, whose coefficients e_k are the
elementary symmetric polynomials of the path's link means m_j.
``build_mean_system`` solves a Vandermonde system for them from the MGF at
the path's probe points.  Those values are the right-hand side u of a d = 1
path system E(x) = u, whose roots are exactly the permutations of the mean
vector, so ``pipeline.estimate_exp`` solves and matches them with the
stages of ``algebraic_gh``: ``polysolve.solve_system`` and
``match.run_matching``.
"""

from __future__ import annotations

import numpy as np

from .mgfest import empirical_mgf

__all__ = ["build_mean_system"]


def build_mean_system(
    tau,
    n_i: int,
    samples=None,
    exact_mgf=None,
) -> np.ndarray:
    """Invert the path MGF at the probe points and solve for the elementary
    symmetric values e_1, ..., e_{n_i} of the link means.

    Exactly one of ``samples`` or ``exact_mgf`` must be given.  Raises when
    an MGF value lies outside (0, 1] (reciprocal blow-up; choose a smaller
    probe point).
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
    return np.linalg.solve(vand, np.asarray(c) - 1.0)
