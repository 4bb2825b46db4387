"""End-to-end estimators.

``algebraic_gh`` is the paper's method: each path is processed
independently (probe selection, MGF estimation, system construction,
all-roots solve) and the per-path real roots are then matched across
paths to produce one estimate per link.  ``estimate_gh`` runs it on exact
MGFs and a binned maximum-likelihood fit over all paths on samples.
Topologies that are not 1-identifiable are rejected up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.optimize import OptimizeResult, minimize

from . import epsbuild, expmeans, match, mgfest, model, polysolve

__all__ = [
    "EstimateOptions", "algebraic_gh", "estimate_gh", "estimate_exp", "PathDiagnostics"
]

# Roots whose imaginary parts stay below this count as real.  Sampled data
# gets a loose bound: sampling noise can collide a close pair of real roots
# into a complex conjugate pair whose real part still estimates the pair well.
_NEAR_REAL_TOL_EXACT = 1e-6
_NEAR_REAL_TOL_SAMPLED = 0.35


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
    n_reduced: int
    n_path_failures: int


def _blocks(root: np.ndarray, n_i: int, d: int) -> tuple[np.ndarray, ...]:
    return tuple(root[j * d:(j + 1) * d] for j in range(n_i))


def _check_identifiable(a: model.RoutingMatrix) -> None:
    reasons = model.identifiability_defects(a)
    if reasons:
        raise ValueError(f"routing matrix is not 1-identifiable: {'; '.join(reasons)}")


def _check_samples(a: model.RoutingMatrix, samples) -> None:
    """Reject samples that do not give every path finite, nonnegative delays."""
    if len(samples) > a.n_paths:
        raise ValueError(
            f"samples given for {len(samples)} paths; the routing matrix has {a.n_paths}"
        )
    for i in range(a.n_paths):
        y = np.asarray(samples[i], dtype=float) if i < len(samples) else np.empty(0)
        if y.size == 0:
            raise ValueError(f"path {i} has no samples")
        if not np.isfinite(y).all():
            raise ValueError(f"path {i} has non-finite values")
        if (y < 0).any():
            raise ValueError(f"path {i} has negative delays")


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
    """Minimise ``gq @ p + lam @ p**2 / 2`` over ``|p| <= radius`` exactly.

    This is the trust-region subproblem in the eigenbasis of the Hessian:
    ``lam`` holds its eigenvalues in ascending order and ``gq`` the gradient's
    components along their eigenvectors.  The minimiser is
    ``p(s) = -gq / (lam + s)`` for the least shift ``s >= max(0, -lam[0])``
    that puts it inside the ball (Moré & Sorensen, 1983); on the boundary,
    ``s`` solves the secular equation ``1/|p(s)| = 1/radius`` by Newton
    steps.  Returns the step, in the eigenbasis, and whether it lies on the
    boundary.
    """
    if lam[0] > 0:
        p = -gq / lam
        if p @ p <= radius * radius:
            return p, False
    lo = max(0.0, -lam[0])
    if lam[0] <= 0:
        tiny = 1e-12 * max(lo, lam[-1])
        pole = lam + lo <= tiny
        p = -gq / np.where(pole, 1.0, lam + lo)
        p[pole] = 0.0
        slack = radius * radius - p @ p
        if slack > 0 and np.linalg.norm(gq[pole]) <= tiny * math.sqrt(slack):
            # The hard case: the gradient has (next to) no part along the
            # lowest curvature, so the shift sits at the pole; move along
            # its eigenvector to reach the boundary.
            p[0] = -math.copysign(math.sqrt(slack), gq[0])
            return p, True
    # Start at a shift no larger than the root, where one component alone
    # reaches the radius: 1/|p(s)| is concave in s, so Newton steps from
    # there rise monotonically to the root.  The loop runs on Python floats,
    # which beat numpy calls on vectors this short.
    terms = [(lk, gk * gk) for lk, gk in zip(lam.tolist(), gq.tolist()) if gk != 0.0]
    s = max(lo, max(math.sqrt(g2) / radius - lk for lk, g2 in terms))
    for _ in range(50):
        norm2 = slope = 0.0
        for lk, g2 in terms:
            inv = 1.0 / (lk + s)
            norm2 += g2 * inv * inv
            slope += g2 * inv * inv * inv
        norm = math.sqrt(norm2)
        if norm - radius <= 1e-9 * radius:
            break
        s += norm2 * (norm - radius) / (radius * slope)
    return np.divide(-gq, lam + s, out=np.zeros_like(gq), where=gq != 0.0), True


def _trust_newton(fun, x0, jac, hess, **_):
    """Trust-region Newton minimisation with exact subproblem solves.

    A ``scipy.optimize.minimize`` method.  Each iteration takes the exact
    minimiser of the local quadratic model within the trust radius
    (``_trust_step`` on one ``eigh`` of the Hessian).  The radius follows
    scipy's trust-region rule: it starts at 1, shrinks by 4 when the actual
    reduction is under a quarter of the predicted one, and doubles, up to
    1000, when it is over three quarters with the step on the boundary.
    The step is taken when that ratio exceeds 0.15; a non-finite value at
    the trial point rejects it.  When the Hessian is positive definite and
    the Newton decrement ``grad @ H^-1 @ grad / 2`` is under 1e-8, the full
    Newton step is the last one.  ``nit`` counts the steps tried, ``nfev``
    the points ``fun`` was evaluated at and ``nhev`` the Hessians.
    """
    x = np.array(x0, dtype=float)
    f, nfev = fun(x), 1
    g, h, nhev = jac(x), hess(x), 1
    radius, success, message = 1.0, False, "iteration limit reached"
    nit = 0
    while nit < 200:
        lam, vec = np.linalg.eigh(h)
        gq = vec.T @ g
        if lam[0] > 0 and gq @ (gq / lam) < 2e-8:
            nit += 1
            x_try = x - vec @ (gq / lam)
            f_try, nfev = fun(x_try), nfev + 1
            # Compared with f, a change this small is rounding: take the step
            # unless it left the domain.
            if np.isfinite(f_try):
                x, f, g = x_try, f_try, jac(x_try)
            success, message = True, "Newton decrement below 1e-8"
            break
        p, on_boundary = _trust_step(gq, lam, radius)
        predicted = -(gq @ p + 0.5 * (lam @ (p * p)))
        if not predicted > 0:
            message = "the quadratic model predicts no decrease"
            break
        nit += 1
        x_try = x + vec @ p
        f_try, nfev = fun(x_try), nfev + 1
        rho = (f - f_try) / predicted if np.isfinite(f_try) else -np.inf
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and on_boundary:
            radius = min(2.0 * radius, 1000.0)
        if rho > 0.15:
            x, f = x_try, f_try
            g, h, nhev = jac(x), hess(x), nhev + 1
    return OptimizeResult(
        x=x, fun=f, jac=g, nit=nit, nfev=nfev, nhev=nhev,
        success=success, status=0 if success else 1, message=message,
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
    read off each path's sorted samples by ``_quantile_edges``.

    The fit runs from seven starts, the uniform weights and the first six
    Dirichlet draws seeded by ``seed``, and keeps the best.  Restarts
    matter: a single start can settle in a spurious basin that the
    likelihood ranks below the genuine one.  Seven suffice: on 440 sampled
    runs of expt1-3 at L = 1e6 (seeds 0-19 of each; expt3 seeds 1000-1039,
    1100-1159, 1200-1259 and 1300-1399; expt1 and expt2 seeds 1000-1019,
    1100-1119 and 1200-1219), the best of the first seven was within 1e-6
    nats of the best of seventeen every time, and two runs needed the sixth
    start.  ``scripts/start_census.py`` repeats that census.

    Each start is a trust-region Newton fit (``_trust_newton``) on the exact
    Hessian: with n*d free weights, at most a dozen on the bundled
    topologies, the Hessian costs about one more batched matmul than the
    gradient, and a start converges in 10-20 steps.

    The objective is evaluated in stacked form, so its numpy call count does
    not grow with the number of paths.  Paths are grouped by link count N,
    and each group's hypoexponential tables are stacked once into a
    (P, (d+1)^N, bins) array, shorter paths padded with zero-count bins.
    Each position's derivative dp/dw_k of a path's bin probabilities is the
    Kronecker product of the other positions' weight vectors times its
    table, with k's axis moved next to the bins: one batched ``matmul``
    gives all of them.  The probabilities are position 0's derivative
    times its weights, the gradient is the derivatives times the
    count/probability ratio, and ``np.add.at`` sums it into the links.  The
    Hessian reuses those arrays: the derivatives weighted by count/p^2 give
    its Gauss-Newton part in one ``matmul``, and since p is multilinear the
    only second derivatives pair two positions, the tables times the ratio
    contracted against the remaining positions' weights.

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
    by_length: dict[int, list] = {}
    for i in range(a.n_paths):
        links = sorted(a.path_links(i))
        y = np.sort(np.asarray(samples[i], dtype=float))
        edges = np.unique(_quantile_edges(y, n_bins)[:-1])
        edges[0] = 0.0
        counts = np.diff(np.append(np.searchsorted(y, edges), y.size))
        table = np.empty(((d + 1) ** len(links), len(edges)))
        for row, assign in enumerate(product(range(d + 1), repeat=len(links))):
            cdf = model.hypoexp_cdf([lam[s] for s in assign], edges)
            table[row] = np.diff(np.append(cdf, 1.0))
        by_length.setdefault(len(links), []).append((links, counts, table))
    del y  # the last sorted copy need not live through the fit

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
            ((k, m), ",".join(["p" + axes] + ["p" + axes[q] for q in range(n_i)
                                              if q not in (k, m)])
             + "->p" + axes[k] + axes[m])
            for k in range(n_i) for m in range(k + 1, n_i)
        ]
        link_idx = np.array([links for links, _, _ in members])
        # each path's weights' rows among all links' full weights
        flat = (link_idx[:, :, None] * (d + 1) + np.arange(d + 1)).reshape(n_p, -1)
        groups.append((link_idx, counts, tables, moved, others, pair_subscripts, flat))

    # what the latest nll_and_grad call computed, for nll_hess at the same x
    latest: dict = {}

    def nll_and_grad(x):
        w_free = x.reshape(n, d)
        w_full = np.column_stack([w_free, 1.0 - w_free.sum(axis=1)])
        total = 0.0
        grad = np.zeros(n * (d + 1))  # over all links' full weights
        shared = []
        for link_idx, counts, _, moved, others, _, flat in groups:
            n_p, n_i = link_idx.shape
            w = w_full[link_idx]  # (P, N, d+1)
            rest = w[:, others]  # (P, N, N-1, d+1)
            kron = np.ones((n_p, n_i, 1))
            for j in range(n_i - 1):
                kron = (kron[..., None] * rest[:, :, j, None, :]).reshape(n_p, n_i, -1)
            dprobs = np.matmul(kron[:, :, None, :], moved).reshape(n_p, n_i * (d + 1), -1)
            probs = np.matmul(w[:, 0, None, :], dprobs[:, :d + 1])[:, 0]  # (P, bins)
            clamped = np.maximum(probs, floor)
            total -= np.vdot(counts, np.log(clamped))
            ratio = np.where(probs > floor, counts / clamped, 0.0)
            np.add.at(grad, flat, -np.matmul(dprobs, ratio[:, :, None])[:, :, 0])
            shared.append((w, clamped, ratio, dprobs))
        grad = grad.reshape(n, d + 1)
        dens = w_full @ dens_basis  # (N, grid)
        neg = np.minimum(dens, 0.0)
        total += penalty_coeff * float((neg * neg).sum())
        grad += 2.0 * penalty_coeff * (neg @ dens_basis.T)
        g_free = grad[:, :d] - grad[:, d:]
        latest.update(x=x.copy(), shared=shared, dens=dens)
        return total, g_free.ravel()

    def nll_hess(x):
        if not np.array_equal(x, latest.get("x")):
            nll_and_grad(x)
        hess = np.zeros((n * (d + 1), n * (d + 1)))
        for group, (w, clamped, ratio, dprobs) in zip(groups, latest["shared"]):
            link_idx, _, tables, _, _, pair_subs, flat = group
            n_p, n_i = link_idx.shape
            # Gauss-Newton part: sum over bins of counts/p^2 dp dp^T
            block = np.matmul(dprobs * (ratio / clamped)[:, None, :], dprobs.transpose(0, 2, 1))
            # p is multilinear, so the only second derivatives pair two
            # positions: the tables times the ratio, contracted against the
            # remaining positions' weights
            if pair_subs:
                r = np.matmul(tables, ratio[:, :, None]).reshape((n_p,) + (d + 1,) * n_i)
            for (k, m), sub in pair_subs:
                cross = np.einsum(sub, r, *(w[:, q] for q in range(n_i) if q not in (k, m)))
                rows = slice(k * (d + 1), (k + 1) * (d + 1))
                cols = slice(m * (d + 1), (m + 1) * (d + 1))
                block[:, rows, cols] -= cross
                block[:, cols, rows] -= cross.transpose(0, 2, 1)
            np.add.at(hess, (flat[:, :, None], flat[:, None, :]), block)
        full = hess.reshape(n, d + 1, n, d + 1)
        neg = (latest["dens"] < 0.0)[:, None, :]  # (N, 1, grid)
        if neg.any():
            links = np.arange(n)
            full[links, :, links, :] += 2.0 * penalty_coeff * ((dens_basis * neg) @ dens_basis.T)
        free = full[:, :d, :, :d] - full[:, :d, :, d:] - full[:, d:, :, :d] + full[:, d:, :, d:]
        return free.reshape(n * d, n * d)

    rng = np.random.default_rng(seed)
    starts = [np.full((n, d), 1.0 / (d + 1))] + [
        rng.dirichlet(np.ones(d + 1), size=n)[:, :d] for _ in range(n_starts)
    ]
    best_x, best_val = None, np.inf
    for base in starts:
        fit = minimize(
            nll_and_grad,
            np.asarray(base, dtype=float).ravel(),
            jac=True,
            hess=nll_hess,
            method=_trust_newton,
        )
        if fit.fun < best_val:
            best_x, best_val = fit.x, fit.fun
    if best_x is None:
        raise RuntimeError("likelihood polish failed from every starting point")
    return best_x.reshape(n, d)


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

    Per path: probe points, MGF constants (empirical from ``samples``, or
    analytic from ``exact_mixes`` when given), the elementary polynomial
    system and all its roots; then the roots are matched across paths.
    Returns (MatchResult, diagnostics) and raises ``match.AmbiguityError``
    when matching fails.  With ``exact_mixes``, a row that is not a valid
    mixture raises ``RuntimeError``: noise-free data admits no such answer.
    """
    opts = options or EstimateOptions()
    d = len(lambdas) - 1
    if samples is None and exact_mixes is None:
        raise ValueError("need either samples or exact_mixes")
    _check_identifiable(a)
    if exact_mixes is None:
        _check_samples(a, samples)
    path_solutions: dict[int, match.PathSolutions] = {}
    diagnostics: list[PathDiagnostics] = []
    eps_cache: dict[int, list[epsbuild.SparsePoly]] = {}
    near_real_tol = _NEAR_REAL_TOL_SAMPLED if exact_mixes is None else _NEAR_REAL_TOL_EXACT
    for i in range(a.n_paths):
        links = tuple(sorted(a.path_links(i)))
        n_i = len(links)
        if opts.tau is not None and i in opts.tau:
            tau = tuple(opts.tau[i])
            epsbuild.build_t_tau(tau, n_i, d, lambdas)
        else:
            tau = mgfest.choose_tau(n_i, d, lambdas, seed=opts.tau_seed + 7919 * i)
        if exact_mixes is not None:
            path_mixes = [exact_mixes[j] for j in links]

            def exact(t, _mixes=path_mixes):
                return math.prod(model.gh_mgf(mx, t) for mx in _mixes)

            probe = mgfest.assemble_constants(None, tau, n_i, lambdas, exact_mgf=exact)
        else:
            probe = mgfest.assemble_constants(samples[i], tau, n_i, lambdas)
        if n_i not in eps_cache:
            eps_cache[n_i] = epsbuild.build_eps(n_i, d, lambdas)
        t_tau = epsbuild.build_t_tau(tau, n_i, d, lambdas)
        system = epsbuild.assemble_system(eps_cache[n_i], t_tau, probe.c_hat, n_i=n_i, d=d)
        sol = polysolve.solve_system(system)
        reduced = polysolve.reduce_first_components(sol.roots, d, near_real_tol=near_real_tol)
        path_solutions[i] = match.PathSolutions(
            path_id=i,
            links=links,
            root_blocks=tuple(_blocks(r, n_i, d) for r in sol.real_roots(near_real_tol)),
        )
        diagnostics.append(
            PathDiagnostics(
                path_id=i,
                tau=tau,
                n_roots=sol.n_roots,
                n_reduced=len(reduced),
                n_path_failures=sol.n_path_failures,
            )
        )
    result = match.run_matching(
        a, path_solutions, d, delta=opts.delta, ground_truth=ground_truth
    )
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

    With ``exact_mixes`` this is ``algebraic_gh``.  On ``samples`` alone it is
    the binned likelihood fit from the uniform weights and random restarts,
    which takes no ``tau`` or ``delta``, reports no per-path diagnostics and
    a NaN ``delta``.  Returns (MatchResult, diagnostics).
    """
    if exact_mixes is not None:
        return algebraic_gh(
            a, lambdas, exact_mixes=exact_mixes, options=options,
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
    _check_samples(a, samples)
    w_free = _likelihood_polish(a, lambdas, samples, opts.solver_seed)
    weights = np.column_stack([w_free, 1.0 - w_free.sum(axis=1)])
    error_norm = None
    if ground_truth is not None:
        truth = np.asarray(ground_truth, dtype=float)
        error_norm = float(np.linalg.norm((weights - truth).ravel()))
    result = match.MatchResult(
        weights=weights,
        provenance=tuple(
            {"link": j, "paths": sorted(g)} for j, g in enumerate(a.sets.link_paths)
        ),
        delta=float("nan"),
        error_norm=error_norm,
    )
    return result, []


def _default_mean_tau(n_i: int, mean_scale: float) -> tuple[float, ...]:
    """Probe points keeping t * E[Y] moderate so 1/MGF stays well estimated."""
    if n_i == 1:
        return (1.0 / mean_scale,)
    return tuple(np.geomspace(0.2 / mean_scale, 2.0 / mean_scale, n_i))


def estimate_exp(
    a: model.RoutingMatrix,
    *,
    samples=None,
    exact_means=None,
    options: EstimateOptions | None = None,
    ground_truth=None,
):
    """Estimate per-link exponential means.

    ``samples`` is a per-path sequence of delay arrays; ``exact_means`` a
    vector of true link means enabling the analytic-MGF mode.  Returns
    (means array, MatchResult, per-path diagnostics).
    """
    opts = options or EstimateOptions()
    if samples is None and exact_means is None:
        raise ValueError("need either samples or exact_means")
    _check_identifiable(a)
    if exact_means is None:
        _check_samples(a, samples)
    path_means: dict[int, np.ndarray] = {}
    diagnostics = []
    for i in range(a.n_paths):
        links = tuple(sorted(a.path_links(i)))
        n_i = len(links)
        if exact_means is not None:
            scale = float(sum(exact_means[j] for j in links))
        else:
            scale = float(np.mean(samples[i]))
        if opts.tau is not None and i in opts.tau:
            tau = tuple(opts.tau[i])
        else:
            tau = _default_mean_tau(n_i, scale)
        if exact_means is not None:
            path_m = [float(exact_means[j]) for j in links]

            def exact(t, _m=path_m):
                return math.prod(1.0 / (1.0 + t * mj) for mj in _m)

            system = expmeans.build_mean_system(tau, n_i, exact_mgf=exact)
        else:
            system = expmeans.build_mean_system(tau, n_i, samples=samples[i])
        means, flagged = expmeans.solve_means(system)
        path_means[i] = means
        diagnostics.append(
            PathDiagnostics(
                path_id=i, tau=tau, n_roots=len(means),
                n_reduced=len(means), n_path_failures=int(flagged),
            )
        )
    means, result = expmeans.match_means(
        a, path_means, delta=opts.delta, ground_truth=ground_truth
    )
    return means, result, diagnostics
