"""Right-hand side of the exponential-means variant.

When every link delay is exponential, the reciprocal of a path's MGF is
prod_j (1 + m_j t) = 1 + sum_k e_k t^k, whose coefficients e_k are the
elementary symmetric polynomials of the path's link means m_j.
``build_mean_system`` solves a Vandermonde system for them from the path's
MGF, a callable t -> MGF, at its probe points.  Those values are the
right-hand side u of a d = 1 path system E(x) = u, whose roots are exactly
the permutations of the mean vector, so ``pipeline.estimate_exp`` solves and
matches them with the stages of ``algebraic_gh``:
``polysolve.solve_system`` and ``match.run_matching``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["build_mean_system"]


def build_mean_system(tau, n_i: int, mgf) -> np.ndarray:
    """Invert the path MGF ``mgf`` at the probe points and solve for the
    elementary symmetric values e_1, ..., e_{n_i} of the link means.

    Raises when an MGF value lies outside (0, 1] (reciprocal blow-up; choose
    a smaller probe point), and when a probe point's powers overflow, as
    ``estimate_exp``'s reciprocal of a mean delay near 1e-300 makes them.
    """
    tau = tuple(float(t) for t in tau)
    if len(tau) != n_i or len(set(tau)) != n_i or not all(0 < t < math.inf for t in tau):
        raise ValueError(f"need {n_i} distinct, finite, strictly positive probe points")
    values = [float(mgf(t)) for t in tau]
    if any(not (0.0 < v <= 1.0 + 1e-12) for v in values):
        raise ValueError(
            "MGF estimate outside (0, 1]; reciprocal undefined, use smaller probe points"
        )
    c = [1.0 / v for v in values]
    try:
        vand = np.array([[t ** k for k in range(1, n_i + 1)] for t in tau])
    except OverflowError as exc:
        raise ValueError(
            f"probe point {max(tau):.3g} overflows its power t**{n_i}: use smaller "
            "probe points, or rescale delays this small"
        ) from exc
    return np.linalg.solve(vand, np.asarray(c) - 1.0)
