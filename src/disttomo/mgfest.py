"""Empirical MGF estimation, probe-point selection and sample-size bounds.

The estimator is a plain sample average of exp(-t*Y); since every summand
lies in [0, 1], the Hoeffding inequality gives a distribution-free sample
size guarantee per probe point, and a union bound extends it across the
probe set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .epsbuild import DEFAULT_COND_LIMIT, _t_tau_stack

__all__ = [
    "MgfProbe",
    "empirical_mgf",
    "choose_tau",
    "assemble_constants",
    "required_samples",
    "per_point_tolerance",
    "TauSelectionError",
]


class TauSelectionError(RuntimeError):
    """No acceptably conditioned probe set found within the retry budget."""


@dataclass(frozen=True)
class MgfProbe:
    """MGF estimates at the probe points plus the derived constant vector.

    mu_hat scales the MGF by (lambda_{d+1} + t)^{N_i}; c_hat subtracts the
    constant lambda_{d+1}^{N_i} so the polynomial system's right-hand side
    can be assembled by a linear solve.
    """

    tau: tuple[float, ...]
    mgf_hat: tuple[float, ...]
    mu_hat: tuple[float, ...]
    c_hat: tuple[float, ...]
    n_samples: int | None

    def __post_init__(self):
        if len(set(self.tau)) != len(self.tau) or any(t <= 0 for t in self.tau):
            raise ValueError("probe points must be distinct and strictly positive")
        if any(not (0.0 <= m <= 1.0 + 1e-12) for m in self.mgf_hat):
            raise ValueError("MGF estimates must lie in [0, 1]")


def empirical_mgf(samples, t: float) -> float:
    """Sample average of exp(-t * Y) over the observed delays."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    if samples.min() < 0:
        raise ValueError("delay samples must be nonnegative")
    if t <= 0:
        raise ValueError(f"t must be strictly positive, got {t}")
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


def assemble_constants(
    samples,
    tau,
    n_i: int,
    lambdas,
    *,
    exact_mgf=None,
) -> MgfProbe:
    """Estimate the MGF at each probe point and derive the constant vector.

    ``exact_mgf``, when given, is a callable t -> MGF used instead of the
    sample average (the ideal, noise-free mode).
    """
    tau = tuple(float(t) for t in tau)
    last = float(lambdas[-1])
    if exact_mgf is not None:
        mgf = [float(exact_mgf(t)) for t in tau]
        count = None
    else:
        samples = np.asarray(samples, dtype=float)
        mgf = [empirical_mgf(samples, t) for t in tau]
        count = int(samples.size)
    mu = [m * (last + t) ** n_i for m, t in zip(mgf, tau)]
    c = [u - last ** n_i for u in mu]
    return MgfProbe(
        tau=tau,
        mgf_hat=tuple(mgf),
        mu_hat=tuple(mu),
        c_hat=tuple(c),
        n_samples=count,
    )


def required_samples(eps: float, kappa: float, points: int = 1) -> int:
    """Smallest L with points * exp(-2 * eps^2 * L) <= kappa.

    Per-point Hoeffding bound exp(-2 eps^2 L) on the MGF estimate error,
    union-bounded over the probe points.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not (0.0 < kappa < 1.0):
        raise ValueError(f"kappa must be in (0, 1), got {kappa}")
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
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
