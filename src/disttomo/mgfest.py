"""Empirical MGF estimation, probe-point selection and sample-size bounds.

The algebraic estimators see a path's data only through its MGF, a
callable t -> E[exp(-t*Y)]: ``empirical_mgf`` on samples, or an analytic
product of the link MGFs.  ``assemble_constants`` turns its values at the
probe points into the constant vector c of T_tau u = c.  The empirical MGF is a
plain sample average of exp(-t*Y); since every summand lies in [0, 1], the
Hoeffding inequality gives a distribution-free sample size guarantee per
probe point, and a union bound extends it across the probe set.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .epsbuild import DEFAULT_COND_LIMIT, _t_tau_stack

__all__ = [
    "empirical_mgf",
    "choose_tau",
    "assemble_constants",
    "required_samples",
    "per_point_tolerance",
    "TauSelectionError",
]


class TauSelectionError(RuntimeError):
    """No acceptably conditioned probe set found within the retry budget."""


def empirical_mgf(samples, t: float) -> float:
    """Sample average of exp(-t * Y) over the observed delays, which must
    be finite and nonnegative, or ``ValueError``."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    lo, hi = samples.min(), samples.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("delay samples must be finite")
    if lo < 0:
        raise ValueError("delay samples must be nonnegative")
    if not 0 < t < math.inf:
        raise ValueError(f"t must be finite and strictly positive, got {t}")
    return float(np.mean(np.exp(-t * samples)))


def choose_tau(
    n_i: int,
    d: int,
    lambdas,
    seed: int = 0,
    cond_limit: float = DEFAULT_COND_LIMIT,
    max_retries: int = 50,
) -> tuple[float, ...]:
    """Draw d*N_i distinct positive probe points with a well-conditioned
    evaluation matrix.

    All ``max_retries`` probe sets are drawn at once, log-uniformly from
    [0.05 * min rate, 5 * max rate], which spreads the basis values.  One
    batched SVD of their evaluation matrices gives each draw's condition
    number s_max / s_min; a draw is admissible when its points are distinct
    and that is at most ``cond_limit``.  Of the admissible draws the first
    that amplifies MGF noise least is returned: the linear solve scales
    errors by 1 / s_min, the inverse's operator norm, and by the largest
    (lambda_{d+1} + t)^{N_i} factor.
    """
    taus = np.exp(np.random.default_rng(seed).uniform(
        np.log(0.05 * min(lambdas)), np.log(5.0 * max(lambdas)), (max_retries, d * n_i)
    ))
    s = np.linalg.svd(_t_tau_stack(taus, n_i, lambdas), compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(s[:, -1] > 0, s[:, 0] / s[:, -1], np.inf)
    distinct = (np.diff(np.sort(taus, axis=1), axis=1) > 0).all(axis=1)
    admissible = np.flatnonzero(distinct & np.isfinite(cond) & (cond <= cond_limit))
    if not admissible.size:
        raise TauSelectionError(
            f"no probe set with condition number below {cond_limit:.3g} in "
            f"{max_retries} tries (best seen {cond[distinct].min(initial=np.inf):.3g})"
        )
    amp = (float(lambdas[-1]) + taus[admissible].max(axis=1)) ** n_i / s[admissible, -1]
    return tuple(taus[admissible[np.argmin(amp)]].tolist())


def assemble_constants(mgf, tau, n_i: int, lambdas) -> np.ndarray:
    """The constant vector c of T_tau u = c from a path's MGF at its probe points.

    ``mgf`` maps t to the path's MGF at t.  Entry j scales it by
    (lambda_{d+1} + tau_j)^{N_i} and subtracts the constant lambda_{d+1}^{N_i}.
    """
    last = float(lambdas[-1])
    return np.array([
        float(mgf(t)) * (last + t) ** n_i - last ** n_i for t in map(float, tau)
    ])


def required_samples(eps: float, kappa: float, points: int = 1) -> int:
    """Smallest L with points * exp(-2 * eps^2 * L) <= kappa.

    Per-point Hoeffding bound exp(-2 eps^2 L) on the MGF estimate error,
    union-bounded over the probe points, an integer >= 1.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not (0.0 < kappa < 1.0):
        raise ValueError(f"kappa must be in (0, 1), got {kappa}")
    if not isinstance(points, numbers.Integral) or points < 1:
        raise ValueError(f"points must be an integer >= 1, got {points}")
    raw = math.log(points / kappa) / (2.0 * eps * eps)
    return max(1, math.ceil(raw))


def per_point_tolerance(
    target_eps: float, t_tau: np.ndarray, tau, n_i: int, lambdas
) -> float:
    """Per-probe MGF tolerance guaranteeing a target right-hand-side error.

    If every MGF estimate is within the returned tolerance, the solved
    right-hand side is within ``target_eps`` of the exact constant vector:
    the linear solve amplifies errors by at most the operator norm of the
    matrix inverse, the probe count by sqrt, and the scaling by the largest
    (lambda_{d+1} + t)^{N_i} factor.
    """
    last = float(lambdas[-1])
    inv_norm = float(np.linalg.norm(np.linalg.inv(t_tau), 2))
    n_points = len(tau)
    max_scale = max((last + t) ** n_i for t in tau)
    return target_eps / (inv_norm * math.sqrt(n_points) * max_scale)
