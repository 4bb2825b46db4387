"""End-to-end estimators.

``algebraic_gh`` is the paper's method: each path is processed
independently (probe selection, MGF at the probe points, right-hand side,
all-roots solve) and the per-path real roots are then matched across
paths to produce one estimate per link.  ``estimate_exp`` is the same
chain at d = 1 with its own probe points and right-hand side, the
elementary symmetric values of the path's link means.  ``_per_path`` runs
the chain for both and hands each path to it as one MGF, a callable
t -> MGF.  ``estimate_gh`` runs ``algebraic_gh`` on exact MGFs
and a binned maximum-likelihood fit over all paths on samples.
Topologies that are not 1-identifiable are rejected up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement, product

import numpy as np

from . import epsbuild, expmeans, match, mgfest, model, polysolve

__all__ = [
    "EstimateOptions", "algebraic_gh", "estimate_gh", "estimate_exp", "PathDiagnostics"
]

# Roots whose imaginary parts stay below this count as real.  Sampled data
# gets a loose bound: sampling noise can collide a close pair of real roots
# into a complex conjugate pair whose real part still estimates the pair well.
_NEAR_REAL_TOL_EXACT = 1e-6
_NEAR_REAL_TOL_SAMPLED = 0.35
# The rates of ``estimate_exp``'s d = 1 path systems.  A d = 1 system has
# no stage relation, so its roots do not depend on them.
_EXP_RATES = (2.0, 1.0)


@dataclass(frozen=True)
class EstimateOptions:
    """Knobs of one estimation run."""

    tau: dict[int, tuple[float, ...]] | None = None  # per-path probe points
    tau_seed: int = 0
    solver_seed: int = 0  # seeds the likelihood fit's random starts
    delta: float | None = None  # bound on cross-path disagreement; None -> unbounded


@dataclass(frozen=True)
class PathDiagnostics:
    path_id: int
    tau: tuple[float, ...]
    n_roots: int


def _check_identifiable(a: model.RoutingMatrix) -> None:
    reasons = model.identifiability_defects(a)
    if reasons:
        raise ValueError(f"routing matrix is not 1-identifiable: {'; '.join(reasons)}")


def _checked_paths(a: model.RoutingMatrix, samples, *, sort: bool = False):
    """Yield each path's samples, rejecting any that are not finite and
    nonnegative, and naming the first bad path.

    The checks read each path's smallest and largest value: its ``min`` and
    ``max``, or with ``sort`` the ends of the sorted copy, where -inf sorts
    first and inf and NaN last.  With ``sort`` each path is yielded sorted,
    read once, by its copy into a sort buffer allocated once for all
    paths, so each yielded array is overwritten by the next.
    """
    if len(samples) > a.n_paths:
        raise ValueError(
            f"samples given for {len(samples)} paths; the routing matrix has {a.n_paths}"
        )
    paths = [
        np.asarray(samples[i], dtype=float) if i < len(samples) else np.empty(0)
        for i in range(a.n_paths)
    ]
    buffer = np.empty(max(y.size for y in paths)) if sort else None
    for i, y in enumerate(paths):
        if y.size == 0:
            raise ValueError(f"path {i} has no samples")
        if sort:
            y = buffer[:y.size]
            np.copyto(y, paths[i])
            y.sort()
            lo, hi = y[0], y[-1]
        else:
            lo, hi = y.min(), y.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"path {i} has non-finite values")
        if lo < 0:
            raise ValueError(f"path {i} has negative delays")
        yield y


def _check_samples(a: model.RoutingMatrix, samples) -> None:
    """Reject samples that do not give every path finite, nonnegative delays."""
    for _ in _checked_paths(a, samples):
        pass


def _quantile_edges(y: np.ndarray, n_bins: int) -> np.ndarray:
    """``np.quantile(y, np.linspace(0, 1, n_bins + 1))`` of an already sorted ``y``.

    Indexes and interpolates as numpy's default ``linear`` method does,
    bit for bit, without the partition of a copy of ``y`` that
    ``np.quantile`` makes.
    """
    pos = (y.size - 1) * np.linspace(0.0, 1.0, n_bins + 1)
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, y.size - 1)
    gamma = pos - lo
    below, above = y[lo], y[hi]
    step = above - below
    return np.where(gamma >= 0.5, above - step * (1 - gamma), below + step * gamma)


def _trust_step(gq, lam, radius):
    """Minimise ``gq @ p + lam @ p**2 / 2`` over ``|p| <= radius`` exactly,
    for a batch of subproblems, one per row.

    This is the trust-region subproblem in the eigenbasis of the Hessian:
    ``lam`` holds its eigenvalues in ascending order and ``gq`` the gradient's
    components along their eigenvectors.  The minimiser is
    ``p(s) = -gq / (lam + s)`` for the least shift ``s >= max(0, -lam[0])``
    that puts it inside the ball (Moré & Sorensen, 1983); on the boundary,
    ``s`` solves the secular equation ``1/|p(s)| = 1/radius`` by Newton
    steps.  Returns the steps, in the eigenbasis, and whether each lies on
    the boundary.
    """
    r2 = radius * radius
    lo = np.maximum(0.0, -lam[:, 0])
    shifted = lam + lo[:, None]
    indefinite = lam[:, 0] <= 0
    tiny = 1e-12 * np.maximum(lo, lam[:, -1])
    pole = (shifted <= tiny[:, None]) & indefinite[:, None]
    p = -gq / np.where(pole, 1.0, shifted)
    p[pole] = 0.0
    slack = r2 - (p * p).sum(axis=1)
    boundary = indefinite | (slack < 0)
    # The hard case: the gradient has (next to) no part along the lowest
    # curvature, so the shift sits at the pole; move along its eigenvector
    # to reach the boundary.
    hard = indefinite & (slack > 0)
    hard[hard] = (
        np.linalg.norm(np.where(pole[hard], gq[hard], 0.0), axis=1)
        <= tiny[hard] * np.sqrt(slack[hard])
    )
    p[hard, 0] = -np.copysign(np.sqrt(slack[hard]), gq[hard, 0])
    rows = np.flatnonzero(boundary & ~hard)
    if rows.size:
        # Start at a shift no larger than the root, where one component alone
        # reaches the radius: 1/|p(s)| is concave in s, so Newton steps from
        # there rise monotonically to the root.
        g, r = gq[rows], radius[rows]
        g2 = g * g
        # an infinite eigenvalue zeroes the terms of components without gradient
        l = np.where(g != 0.0, lam[rows], np.inf)
        s = np.maximum(lo[rows], (np.sqrt(g2) / r[:, None] - l).max(axis=1))
        # Each row's shift stops where its own norm reaches the radius.  A
        # radius so small that radius * slope underflows gives an infinite
        # shift and so a zero step, for which the model predicts no decrease.
        for _ in range(50):
            inv = 1.0 / (l + s[:, None])
            terms = g2 * inv * inv
            norm2 = terms.sum(axis=1)
            norm = np.sqrt(norm2)
            more = ~(norm - r <= 1e-9 * r)
            if not more.any():
                break
            slope = (terms * inv).sum(axis=1)
            with np.errstate(divide="ignore"):
                s = s + np.divide(norm2 * (norm - r), r * slope, out=np.zeros_like(s),
                                  where=more)
        p[rows] = np.divide(-g, lam[rows] + s[:, None], out=np.zeros_like(g), where=g != 0.0)
    return p, boundary


class _Fit(dict):
    """``_trust_newton``'s result: a dict whose keys also read as attributes."""

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


def _trust_newton(fun, x0, hess):
    """Trust-region Newton minimisation from a batch of starts, with exact
    subproblem solves.

    ``x0`` holds one start per row.  ``fun`` maps an (S, k) batch of points
    to their values (S,) and gradients (S, k), and ``hess`` to their
    Hessians (S, k, k).  All starts advance together: each iteration takes
    one batched ``eigh`` of the active starts' Hessians, solves their
    trust-region subproblems (``_trust_step``), evaluates every trial point
    in one ``fun`` call and the Hessians of the accepted ones in one
    ``hess`` call.  A start stops on its own and is masked out of later
    calls.  The optimizer's arithmetic on a row does not depend on the other
    rows, so when ``fun`` and ``hess`` evaluate each row as they would alone,
    as the likelihood fit's objective does, a start's result is the one it
    gets alone.

    Per start, each iteration takes the exact minimiser of the local
    quadratic model within the trust radius.  The radius follows scipy's
    trust-region rule: it starts at 1, shrinks by 4 when the actual
    reduction is under a quarter of the predicted one, and doubles, up to
    1000, when it is over three quarters with the step on the boundary.
    The step is taken when that ratio exceeds 0.15; a non-finite value at
    the trial point rejects it.  When the Hessian is positive definite and
    the Newton decrement ``grad @ H^-1 @ grad / 2`` is under 1e-8, the full
    Newton step is the last one.  So is any step whose predicted decrease
    is positive but under four ulps of ``|f|``: the actual reduction of so
    small a step is rounding, and ratios of rounding would reject every step
    and shrink the radius until the step limit.  A start also stops,
    unsuccessfully, when the model predicts no decrease or after 200 steps.

    Returns a dict whose keys also read as attributes.  Each holds one
    entry per start: ``x``, ``fun``, ``jac``, ``success``, ``message``, and
    the counts ``nit`` (steps tried), ``nfev`` (points ``fun`` was evaluated
    at) and ``nhev`` (Hessians).
    """
    x = np.array(x0, dtype=float)
    n_s = x.shape[0]
    f, g = (np.array(v, dtype=float) for v in fun(x))
    h = np.array(hess(x), dtype=float)
    radius = np.ones(n_s)
    nit = np.zeros(n_s, dtype=int)
    nfev, nhev = np.ones(n_s, dtype=int), np.ones(n_s, dtype=int)
    success = np.zeros(n_s, dtype=bool)
    message = ["iteration limit reached"] * n_s
    active = np.arange(n_s)
    while active.size:
        lam, vec = np.linalg.eigh(h[active])
        gq = np.matmul(g[active, None, :], vec)[:, 0]
        newton = gq / np.where(lam[:, :1] > 0, lam, 1.0)
        final = (lam[:, 0] > 0) & ((gq * newton).sum(axis=1) < 2e-8)
        p, on_boundary = -newton, np.zeros(active.size, dtype=bool)
        rest = ~final
        p[rest], on_boundary[rest] = _trust_step(gq[rest], lam[rest], radius[active[rest]])
        predicted = -((gq * p).sum(axis=1) + 0.5 * (lam * p * p).sum(axis=1))
        at_floor = ~final & (predicted < 4.0 * np.spacing(np.abs(f[active])))
        tried = final | (predicted > 0)
        for i in active[~tried]:
            message[i] = "the quadratic model predicts no decrease"
        rows, ended = active[tried], (final | at_floor)[tried]
        if not rows.size:
            break
        nit[rows] += 1
        nfev[rows] += 1
        x_try = x[rows] + np.matmul(vec[tried], p[tried, :, None])[:, :, 0]
        f_try, g_try = fun(x_try)
        finite = np.isfinite(f_try)
        rho = np.full(rows.size, -np.inf)
        scored = finite & ~ended
        rho[scored] = (f[rows[scored]] - f_try[scored]) / predicted[tried][scored]
        radius[rows[~ended & (rho < 0.25)]] *= 0.25
        grow = rows[~ended & (rho > 0.75) & on_boundary[tried]]
        radius[grow] = np.minimum(2.0 * radius[grow], 1000.0)
        # Compared with f, a change as small as a final step's is rounding:
        # take it unless it left the domain.
        take = np.where(ended, finite, rho > 0.15)
        x[rows[take]], f[rows[take]], g[rows[take]] = x_try[take], f_try[take], g_try[take]
        taken = take & ~ended
        if taken.any():
            h[rows[taken]] = hess(x_try[taken])
            nhev[rows[taken]] += 1
        success[rows[ended]] = True
        for i, floor_stop in zip(rows[ended], at_floor[tried][ended]):
            message[i] = ("predicted decrease under 4 ulps of the value" if floor_stop
                          else "Newton decrement below 1e-8")
        active = rows[~ended & (nit[rows] < 200)]
    return _Fit(
        x=x, fun=f, jac=g, nit=nit, nfev=nfev, nhev=nhev, success=success, message=message
    )


def _likelihood_polish(a: model.RoutingMatrix, lambdas, samples, seed: int) -> np.ndarray:
    """Binned maximum-likelihood fit of the (N, d) free-weight matrix.

    Each path's delay is a mixture over stage assignments of hypoexponential
    distributions, so the probability of every one of its 1000 quantile
    bins is a multilinear form in the link weight vectors; the bin-count log
    likelihood is then maximized jointly over all links and the
    best-likelihood fit is returned.  This squeezes the full per-sample
    information out of the data, unlike the handful of MGF evaluations the
    polynomial stage consumes.  The bin edges are the samples' quantiles,
    read off each path's sorted samples by ``_quantile_edges``; the samples
    are checked and sorted by ``_checked_paths``.  A bin's probability under
    a stage assignment depends only on the multiset of its rates, so each
    path's hypoexponential CDF is computed once per multiset.

    The fit runs from seven starts, the uniform weights and the first six
    Dirichlet draws seeded by ``seed``, and keeps the best.  Restarts
    matter: a single start can settle in a spurious basin that the
    likelihood ranks below the genuine one.  Seven suffice: on 440 sampled
    runs of expt1-3 at L = 1e6 (seeds 0-19 of each; expt3 seeds 1000-1039,
    1100-1159, 1200-1259 and 1300-1399; expt1 and expt2 seeds 1000-1019,
    1100-1119 and 1200-1219), the best of the first seven was within 1e-6
    nats of the best of seventeen every time, and two runs needed the sixth
    start.  ``scripts/start_census.py`` repeats that census.

    The seven starts advance together as one batch of trust-region Newton
    fits (``_trust_newton``) on the exact Hessian: with n*d free weights, at
    most a dozen on the bundled topologies, the Hessian costs about one
    more batched matmul than the gradient, and a start converges in 10-20
    steps.  Each iteration makes one objective call for all active starts
    and one Hessian call for those whose step was taken.

    The objective is evaluated in stacked form, so its numpy call count does
    not grow with the number of paths or starts; the starts stay a batch
    axis of every product, so each start's values are computed exactly as
    they would be alone.  Paths are grouped by link
    count N, and each group's hypoexponential tables are stacked once into a
    (P, (d+1)^N, bins) array, shorter paths padded with zero-count bins.
    Each position's derivative dp/dw_k of a path's bin probabilities is the
    Kronecker product of the other positions' weight vectors times its
    table, with k's axis moved next to the bins: one batched ``matmul``
    gives all of them, for every start.  The probabilities are position 0's
    derivative times its weights, and the gradient is the derivatives times
    the count/probability ratio, carried to the free weights by one matmul
    with the group's constant Jacobian (+1 on a free weight, -1 on the last
    stage's, which is one minus the others).  The Hessian reuses those
    arrays: the derivatives weighted by count/p^2 give its Gauss-Newton
    part in one ``matmul``, and since p is multilinear the only second
    derivatives pair two positions, the tables times the ratio contracted
    against the remaining positions' weights; the Jacobian carries it to
    the free weights on both sides.

    Bin probabilities are floored at 1e-12 (with the derivatives masked there)
    so a handful of tail outliers the rate model cannot explain contribute
    a flat penalty instead of dragging the whole fit; the floor never
    activates when the model matches the data.  A quadratic penalty keeps
    every link's density nonnegative on a grid: signed weight vectors that
    are not valid distributions can otherwise chase model mismatch to
    arbitrarily wild fits.
    """
    n_bins, n_starts = 1000, 6
    lam = np.asarray(lambdas, dtype=float)
    d = lam.size - 1
    n = a.n_links
    u_grid = np.geomspace(1e-3 / lam.max(), 20.0 / lam.min(), 60)
    dens_basis = lam[:, None] * np.exp(-np.outer(lam, u_grid))  # (d+1, grid)
    penalty_coeff = 1e8
    floor = 1e-12
    # a link's full weights as a function of its free ones: d(w)/d(w_free)
    lift = np.vstack([np.eye(d), -np.ones((1, d))])  # (d+1, d)
    by_length: dict[int, list] = {}
    for i, y in enumerate(_checked_paths(a, samples, sort=True)):
        links = sorted(a.path_links(i))
        edges = np.unique(_quantile_edges(y, n_bins)[:-1])
        edges[0] = 0.0
        counts = np.diff(np.append(np.searchsorted(y, edges), y.size))
        rows = {
            stages: np.diff(np.append(model.hypoexp_cdf(lam[list(stages)], edges), 1.0))
            for stages in combinations_with_replacement(range(d + 1), len(links))
        }
        table = np.array([
            rows[tuple(sorted(assign))] for assign in product(range(d + 1), repeat=len(links))
        ])
        by_length.setdefault(len(links), []).append((links, counts, table))
    del y  # the sort buffer need not live through the fit

    # Stack the paths of each link count N; zero-count padding bins add
    # nothing to the likelihood or its derivatives.
    groups = []
    for n_i, members in by_length.items():
        n_p = len(members)
        width = max(c.size for _, c, _ in members)
        counts = np.zeros((n_p, width))
        tables = np.zeros((n_p, (d + 1) ** n_i, width))
        for p, (_, c, t) in enumerate(members):
            counts[p, :c.size] = c
            tables[p, :, :c.size] = t
        cube = tables.reshape((n_p,) + (d + 1,) * n_i + (width,))
        # per position k, the table with k's axis moved next to the bins, so
        # the other positions' Kronecker product times it is dp/dw_k
        moved = np.stack([
            np.moveaxis(cube, 1 + k, n_i).reshape(n_p, -1, (d + 1) * width)
            for k in range(n_i)
        ], axis=1)  # (P, N, (d+1)^(N-1), (d+1) bins)
        others = np.array([[q for q in range(n_i) if q != k] for k in range(n_i)], dtype=np.intp)
        axes = "abcdefghijklmnopqrstuvwxyz"[:n_i]
        pair_subscripts = [
            ((k, m), ",".join(["..." + axes] + ["..." + axes[q] for q in range(n_i)
                                                if q not in (k, m)])
             + "->..." + axes[k] + axes[m])
            for k in range(n_i) for m in range(k + 1, n_i)
        ]
        link_idx = np.array([links for links, _, _ in members])
        # d(each path's full weights)/d(all links' free weights), one row per
        # (path, position, stage)
        jac = np.zeros((n_p, n_i, d + 1, n, d))
        jac[np.arange(n_p)[:, None], np.arange(n_i), :, link_idx] = lift
        jac = jac.reshape(n_p, n_i * (d + 1), n * d)
        groups.append((link_idx, counts, tables, moved, others, pair_subscripts, jac))

    # what the latest nll_and_grad call computed, for nll_hess at its points
    latest: dict = {}

    def nll_and_grad(x):
        n_s = x.shape[0]
        w_full = np.empty((n_s, n, d + 1))
        w_full[:, :, :d] = x.reshape(n_s, n, d)
        w_full[:, :, d] = 1.0 - w_full[:, :, :d].sum(axis=2)
        total = np.zeros(n_s)
        grad = np.zeros((n_s, n * d))
        shared = []
        for link_idx, counts, _, moved, others, _, jac in groups:
            n_p, n_i = link_idx.shape
            w = w_full[:, link_idx]  # (S, P, N, d+1)
            rest = w[:, :, others]  # (S, P, N, N-1, d+1)
            kron = np.ones((n_s, n_p, n_i, 1))
            for j in range(n_i - 1):
                kron = (kron[..., None] * rest[:, :, :, j, None, :]).reshape(n_s, n_p, n_i, -1)
            dprobs = np.matmul(kron[..., None, :], moved).reshape(n_s, n_p, n_i * (d + 1), -1)
            probs = np.matmul(w[:, :, 0, None, :], dprobs[:, :, :d + 1])[:, :, 0]  # (S, P, bins)
            clamped = np.maximum(probs, floor)
            log_p = np.log(clamped).reshape(n_s, 1, -1)
            total -= np.matmul(log_p, counts.reshape(-1, 1))[:, 0, 0]
            ratio = np.where(probs > floor, counts / clamped, 0.0)
            dnll = np.matmul(dprobs, ratio[..., None]).reshape(n_s, 1, -1)
            grad -= np.matmul(dnll, jac.reshape(-1, n * d))[:, 0]
            shared.append((w, clamped, ratio, dprobs))
        dens = w_full @ dens_basis  # (S, N, grid)
        neg = np.minimum(dens, 0.0)
        total += penalty_coeff * (neg * neg).sum(axis=(1, 2))
        grad += (2.0 * penalty_coeff * (neg @ dens_basis.T) @ lift).reshape(n_s, -1)
        latest.update(x=x.copy(), shared=shared, dens=dens)
        return total, grad

    def nll_hess(x):
        n_s = x.shape[0]
        cached = latest.get("x")
        found = (x[:, None, :] == cached[None]).all(axis=2) if cached is not None else None
        if found is None or not found.any(axis=1).all():
            nll_and_grad(x)
            found = np.eye(n_s, dtype=bool)
        rows = found.argmax(axis=1)
        if np.array_equal(rows, np.arange(latest["x"].shape[0])):
            rows = slice(None)  # every row of the latest batch: no copies
        hess = np.zeros((n_s, n * d, n * d))
        for group, arrays in zip(groups, latest["shared"]):
            link_idx, _, tables, _, _, pair_subs, jac = group
            w, clamped, ratio, dprobs = (arr[rows] for arr in arrays)
            n_p, n_i = link_idx.shape
            # Gauss-Newton part: sum over bins of counts/p^2 dp dp^T
            block = np.matmul(dprobs * (ratio / clamped)[:, :, None, :], dprobs.swapaxes(2, 3))
            # p is multilinear, so the only second derivatives pair two
            # positions: the tables times the ratio, contracted against the
            # remaining positions' weights
            if pair_subs:
                r = np.matmul(tables, ratio[..., None]).reshape((n_s, n_p) + (d + 1,) * n_i)
            for (k, m), sub in pair_subs:
                cross = np.einsum(sub, r, *(w[:, :, q] for q in range(n_i) if q not in (k, m)))
                rows_k = slice(k * (d + 1), (k + 1) * (d + 1))
                cols_m = slice(m * (d + 1), (m + 1) * (d + 1))
                block[:, :, rows_k, cols_m] -= cross
                block[:, :, cols_m, rows_k] -= cross.swapaxes(2, 3)
            hess += jac.reshape(-1, n * d).T @ np.matmul(block, jac).reshape(n_s, -1, n * d)
        neg = latest["dens"][rows] < 0.0  # (S, N, grid)
        if neg.any():
            curv = 2.0 * penalty_coeff * ((dens_basis * neg[:, :, None, :]) @ dens_basis.T)
            links = np.arange(n)
            hess.reshape(n_s, n, d, n, d)[:, links, :, links, :] += (
                lift.T @ curv @ lift
            ).swapaxes(0, 1)
        return hess

    rng = np.random.default_rng(seed)
    starts = np.array([np.full((n, d), 1.0 / (d + 1))] + [
        rng.dirichlet(np.ones(d + 1), size=n)[:, :d] for _ in range(n_starts)
    ]).reshape(n_starts + 1, n * d)
    fits = _trust_newton(nll_and_grad, starts, nll_hess)
    values = np.where(np.isnan(fits.fun), np.inf, fits.fun)
    if not (values < np.inf).any():
        raise RuntimeError("likelihood polish failed from every starting point")
    return fits.x[np.argmin(values)].reshape(n, d)


def _error_norm(estimate: np.ndarray, ground_truth) -> float | None:
    """The 2-norm of ``estimate - ground_truth``, or None without a truth.

    Raises ``ValueError`` when the truth's shape differs from the estimate's.
    """
    if ground_truth is None:
        return None
    truth = np.asarray(ground_truth, dtype=float)
    if truth.shape != estimate.shape:
        raise ValueError(f"ground truth shape {truth.shape} != estimate shape {estimate.shape}")
    return float(np.linalg.norm((estimate - truth).ravel()))


def _per_path(a, lambdas, samples, exact, exact_name, link_mgf, opts, default_tau, rhs):
    """The chain of an algebraic estimator, shared by both: every path's
    roots, then the match across paths.

    Checks the input: exactly one of ``samples`` (checked by
    ``_check_samples``) and ``exact``, one exact value per link, whose MGF is
    ``link_mgf(value, t)``, and an identifiable topology.  Then, per path,
    builds its MGF ``mgf(t)``, ``mgfest.empirical_mgf`` of its samples or
    the product of its links' MGFs: no later stage knows which.  Takes the
    probe points ``opts.tau[i]``, or else ``default_tau(i, links)``, and the
    right-hand side ``rhs(tau, n_i, mgf)``.
    ``polysolve.solve_system`` finds all roots of the path's system over the
    rates ``lambdas``; those whose imaginary parts stay below
    ``_NEAR_REAL_TOL_EXACT``, or ``_NEAR_REAL_TOL_SAMPLED`` on samples, count
    as real.  ``match.run_matching`` picks one real root per path, with
    ``opts.delta``.  Returns (MatchResult, one ``PathDiagnostics`` per path).
    """
    if samples is None and exact is None:
        raise ValueError(f"need either samples or {exact_name}")
    if samples is not None and exact is not None:
        raise ValueError(f"give exactly one of samples or {exact_name}")
    _check_identifiable(a)
    if exact is None:
        _check_samples(a, samples)
    elif len(exact) != a.n_links:
        raise ValueError(f"{exact_name} lists {len(exact)} values for {a.n_links} links")
    d = len(lambdas) - 1
    near_real_tol = _NEAR_REAL_TOL_SAMPLED if exact is None else _NEAR_REAL_TOL_EXACT
    solutions = {}
    diagnostics: list[PathDiagnostics] = []
    for i in range(a.n_paths):
        links = tuple(sorted(a.path_links(i)))
        n_i = len(links)
        if exact is None:
            def mgf(t, _y=np.asarray(samples[i], dtype=float)):
                return mgfest.empirical_mgf(_y, t)
        else:
            def mgf(t, _values=tuple(exact[j] for j in links)):
                return math.prod(link_mgf(v, t) for v in _values)

        if opts.tau is not None and i in opts.tau:
            tau = tuple(opts.tau[i])
        else:
            tau = default_tau(i, links)
        sol = polysolve.solve_system(rhs(tau, n_i, mgf), n_i, lambdas)
        roots = tuple(tuple(r.reshape(n_i, d)) for r in sol.real_roots(near_real_tol))
        solutions[i] = match.PathSolutions(i, links, roots)
        diagnostics.append(PathDiagnostics(i, tau, sol.n_roots))
    return match.run_matching(a, solutions, d, delta=opts.delta), diagnostics


def algebraic_gh(
    a: model.RoutingMatrix,
    lambdas,
    *,
    samples=None,
    exact_mixes: list[model.GhMix] | None = None,
    options: EstimateOptions | None = None,
    ground_truth=None,
):
    """The paper's algebraic estimator of every link's weight vector.

    Per path: probe points (``mgfest.choose_tau`` unless given), the
    constants c from the path's MGF, empirical from ``samples`` or analytic
    from ``exact_mixes`` (exactly one must be given), the right-hand side u
    from T_tau u = c and all roots of the path's system from u and the
    rates; then ``match.run_matching`` matches the roots across paths.
    Returns (MatchResult, diagnostics) and raises ``match.AmbiguityError``
    when matching fails.  Each of ``exact_mixes`` must be a mixture over
    ``lambdas``, or ``ValueError`` names its link.  With ``exact_mixes``, a
    row that is not a valid mixture raises ``RuntimeError``: noise-free data
    admits no such answer.
    """
    opts = options or EstimateOptions()
    d = len(lambdas) - 1
    rates = tuple(float(r) for r in lambdas)
    for j, mix in enumerate(exact_mixes or ()):
        if mix.rates != rates:
            raise ValueError(f"exact_mixes: link {j} has rates {mix.rates}, not lambdas {rates}")

    def choose_tau(i, links):
        return mgfest.choose_tau(len(links), d, lambdas, seed=opts.tau_seed + 7919 * i)

    def rhs(tau, n_i, mgf):
        t_tau = epsbuild.build_t_tau(tau, n_i, d, lambdas)
        return np.linalg.solve(t_tau, mgfest.assemble_constants(mgf, tau, n_i, lambdas))

    result, diagnostics = _per_path(
        a, lambdas, samples, exact_mixes, "exact_mixes", model.gh_mgf, opts, choose_tau, rhs
    )
    result = replace(result, error_norm=_error_norm(result.weights, ground_truth))
    if exact_mixes is not None:
        for j, row in enumerate(result.weights):
            try:
                model.GhMix(lambdas, row)
            except ValueError as exc:
                raise RuntimeError(
                    f"exact-mode estimate of link {j} is not a valid mixture: {exc}"
                ) from exc
    return result, diagnostics


def estimate_gh(
    a: model.RoutingMatrix,
    lambdas,
    *,
    samples=None,
    exact_mixes: list[model.GhMix] | None = None,
    options: EstimateOptions | None = None,
    ground_truth=None,
):
    """Estimate every link's weight vector over the shared rates ``lambdas``.

    With ``exact_mixes`` this is ``algebraic_gh``, which also refuses
    ``samples`` beside them.  On ``samples`` alone it is
    the binned likelihood fit from the uniform weights and random restarts,
    which takes no ``tau`` or ``delta``, reports no per-path diagnostics and
    a ``delta`` of None.  ``ground_truth``, when given, must have the
    estimate's shape, and ``error_norm`` is their distance.  Returns
    (MatchResult, diagnostics).
    """
    if exact_mixes is not None:
        return algebraic_gh(
            a, lambdas, samples=samples, exact_mixes=exact_mixes, options=options,
            ground_truth=ground_truth,
        )
    if samples is None:
        raise ValueError("need either samples or exact_mixes")
    opts = options or EstimateOptions()
    if opts.tau is not None or opts.delta is not None:
        raise ValueError(
            "tau and delta apply to the algebraic estimator only (algebraic_gh, "
            "or exact_mixes); the likelihood fit on samples uses neither"
        )
    _check_identifiable(a)
    w_free = _likelihood_polish(a, lambdas, samples, opts.solver_seed)
    weights = np.column_stack([w_free, 1.0 - w_free.sum(axis=1)])
    result = match.MatchResult(
        weights=weights,
        provenance=tuple(
            {"link": j, "paths": sorted(g)} for j, g in enumerate(a.sets.link_paths)
        ),
        delta=None,
        error_norm=_error_norm(weights, ground_truth),
    )
    return result, []


def estimate_exp(
    a: model.RoutingMatrix,
    *,
    samples=None,
    exact_means=None,
    options: EstimateOptions | None = None,
    ground_truth=None,
):
    """Estimate per-link exponential means.

    Give exactly one of ``samples``, a per-path sequence of delay arrays,
    and ``exact_means``, a vector of true link means, each finite and > 0
    or ``ValueError`` names its link.  This is ``algebraic_gh``'s chain at
    d = 1 (``_per_path``): each path's probe points, unless given, scale with
    its mean delay (the sample mean, or the sum of its exact means) to keep
    t * E[Y] moderate so that 1/MGF stays well estimated; its
    right-hand side is the elementary symmetric values of its link means
    (``expmeans.build_mean_system``), whose roots are the permutations of
    those means; ``match.run_matching`` then pins each mean to its link.
    ``ground_truth``, when given, is a vector of link means and
    ``error_norm`` the estimate's distance from it.  Returns (means array,
    MatchResult, per-path diagnostics) and raises ``match.AmbiguityError``
    when matching fails.
    """
    opts = options or EstimateOptions()
    for j, mean in enumerate(exact_means if exact_means is not None else ()):
        if not 0.0 < float(mean) < math.inf:
            raise ValueError(f"exact_means: link {j} has mean {mean}; need finite and > 0")

    def mean_scaled_tau(i, links):
        if samples is None:
            scale = float(sum(exact_means[j] for j in links))
        else:
            scale = float(np.mean(samples[i]))
        if len(links) == 1:
            return (1.0 / scale,)
        return tuple(np.geomspace(0.2 / scale, 2.0 / scale, len(links)))

    def exp_mgf(mean, t):
        return 1.0 / (1.0 + t * float(mean))

    result, diagnostics = _per_path(
        a, _EXP_RATES, samples, exact_means, "exact_means", exp_mgf, opts, mean_scaled_tau,
        expmeans.build_mean_system,
    )
    means = result.weights[:, 0].copy()
    return means, replace(result, error_norm=_error_norm(means, ground_truth)), diagnostics
