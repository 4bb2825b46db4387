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
from scipy.optimize import minimize

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
    solver_seed: int = 0
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

    The fit runs from five starts, the uniform weights and the first four
    Dirichlet draws seeded by ``seed``, and keeps the best.  Restarts
    matter: a single start can settle in a spurious basin that the
    likelihood ranks below the genuine one.  Five suffice: on 260 sampled
    runs of expt1-3 (L = 1e6), the uniform start alone missed the best of
    seventeen starts on 20, but the best of the first five was within
    1e-6 nats of it on all of them.

    The objective is evaluated in stacked form, so its numpy call count does
    not grow with the number of paths.  Paths are grouped by link count N,
    and each group's hypoexponential tables are stacked once into a
    (P, (d+1)^N, bins) array, shorter paths padded with zero-count bins.
    A path's bin probabilities are the Kronecker product of its links' weight
    vectors times its table, one batched ``matmul`` per group.  For the
    gradient, the tables times the count/probability ratio give one
    (P, (d+1)^N) array R; each link position contracts R against the other
    positions' weights in one ``einsum``, and ``np.add.at`` sums the results
    into the links.

    Bin probabilities are floored at 1e-12 (with the gradient masked there)
    so a handful of tail outliers the rate model cannot explain contribute
    a flat penalty instead of dragging the whole fit; the floor never
    activates when the model matches the data.  A quadratic penalty keeps
    every link's density nonnegative on a grid: signed weight vectors that
    are not valid distributions can otherwise chase model mismatch to
    arbitrarily wild fits.
    """
    n_bins, n_starts = 1000, 4
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
    # nothing to the likelihood or its gradient.
    groups = []
    for n_i, members in by_length.items():
        width = max(c.size for _, c, _ in members)
        counts = np.zeros((len(members), width))
        tables = np.zeros((len(members), (d + 1) ** n_i, width))
        for p, (_, c, t) in enumerate(members):
            counts[p, :c.size] = c
            tables[p, :, :c.size] = t
        axes = "abcdefghijklmnopqrstuvwxyz"[:n_i]
        subscripts = [
            ",".join(["p" + axes] + ["p" + axes[q] for q in range(n_i) if q != k])
            + "->p" + axes[k]
            for k in range(n_i)
        ]
        link_idx = np.array([links for links, _, _ in members])
        groups.append((link_idx, counts, tables, subscripts))

    def nll_and_grad(x):
        w_free = x.reshape(n, d)
        w_full = np.column_stack([w_free, 1.0 - w_free.sum(axis=1)])
        total = 0.0
        grad = np.zeros((n, d + 1))
        for link_idx, counts, tables, subscripts in groups:
            n_p, n_i = link_idx.shape
            w = w_full[link_idx]  # (P, N, d+1)
            kron = w[:, 0]
            for k in range(1, n_i):
                kron = (kron[:, :, None] * w[:, k, None, :]).reshape(n_p, -1)
            probs = np.matmul(kron[:, None, :], tables)[:, 0]  # (P, bins)
            clamped = np.maximum(probs, floor)
            total -= np.vdot(counts, np.log(clamped))
            ratio = np.where(probs > floor, counts / clamped, 0.0)
            r = np.matmul(tables, ratio[:, :, None]).reshape((n_p,) + (d + 1,) * n_i)
            partials = [
                np.einsum(sub, r, *(w[:, q] for q in range(n_i) if q != k))
                for k, sub in enumerate(subscripts)
            ]
            np.add.at(grad, link_idx, -np.stack(partials, axis=1))
        dens = w_full @ dens_basis  # (N, grid)
        neg = np.minimum(dens, 0.0)
        total += penalty_coeff * float((neg * neg).sum())
        grad += 2.0 * penalty_coeff * (neg @ dens_basis.T)
        g_free = grad[:, :d] - grad[:, d:]
        return total, g_free.ravel()

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
            method="L-BFGS-B",
            options={"maxiter": 800, "ftol": 1e-15, "gtol": 1e-10},
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
        sol = polysolve.solve_system(system, seed=opts.solver_seed)
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
