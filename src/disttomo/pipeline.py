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
from itertools import combinations, combinations_with_replacement, product
from types import SimpleNamespace

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
    """Knobs of one estimation run.  ``tau``, ``tau_seed`` and ``delta`` go to
    the algebraic chain (``estimate_exp`` reads ``tau`` and ``delta``) and
    ``solver_seed`` to the likelihood fit.  A ``delta`` that is not finite
    and > 0 raises ``ValueError``."""

    tau: dict[int, tuple[float, ...]] | None = None  # per-path probe points
    tau_seed: int = 0
    solver_seed: int = 0  # seeds the likelihood fit's random starts
    delta: float | None = None  # bound on cross-path disagreement; None -> unbounded

    def __post_init__(self):
        if self.delta is not None and not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be finite and > 0, got {self.delta}")


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
    nonnegative, or all zero, and naming the first bad path.

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
        if hi == 0:
            raise ValueError(f"path {i} has only zero delays")
        yield y


def _check_samples(a: model.RoutingMatrix, samples) -> None:
    """Reject samples that do not give every path finite, nonnegative delays,
    not all zero."""
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
    """A step within ``|p| <= radius`` that lowers ``gq @ p + lam @ p**2 / 2``,
    in closed form, for a batch of trust-region subproblems, one per row.

    ``lam`` holds the Hessian's eigenvalues in ascending order and ``gq`` the
    gradient's components along their eigenvectors.  The step is the Newton
    step ``-gq / lam`` where the Hessian is positive definite and that fits,
    else ``-gq / (lam + s)``, ``s = max(-lam[0] (1 + 1e-12), |gq| / radius -
    lam[0])``, which stays in the ball; an indefinite Hessian's step then
    goes downhill along the lowest eigenvector to the boundary.  It is an
    approximate subproblem solution (Nocedal & Wright, ch. 4).  Returns the
    steps, in the eigenbasis, and whether each is not the Newton step.
    """
    lam0, r = lam[:, :1], radius[:, None]
    # |gq| / r may overflow at a collapsed radius, to a zero step; a component
    # without gradient takes no step, so a flat row has no 0 / 0.
    with np.errstate(over="ignore"):
        reach = np.linalg.norm(gq / np.where(lam0 > 0, lam, 1.0), axis=1, keepdims=True)
        fits = (lam0 > 0) & (reach <= r)
        s = np.maximum(-lam0 * (1.0 + 1e-12), np.linalg.norm(gq, axis=1, keepdims=True) / r - lam0)
        p = np.divide(-gq, lam + np.where(fits, 0.0, s), out=np.zeros_like(gq), where=gq != 0.0)
    down = lam[:, 0] < 0
    left = radius[down] ** 2 - (p[down, 1:] ** 2).sum(axis=1)
    p[down, 0] = -np.copysign(np.sqrt(np.maximum(left, 0.0)), gq[down, 0])
    return p, ~fits[:, 0]


def _trust_newton(fun, x0):
    """Trust-region Newton minimisation from a batch of starts, with
    closed-form steps.

    ``x0`` holds one start per row.  ``fun`` maps an (S, k) batch of points
    to their values (S,), gradients (S, k) and Hessians (S, k, k).  All
    starts advance together: each iteration takes one batched ``eigh`` of
    the active starts' Hessians, takes their trust-region steps
    (``_trust_step``) and evaluates every trial point in one ``fun`` call.
    A trial point's value, gradient and Hessian replace the start's only
    where its step is taken, so a Hessian evaluated at a rejected point,
    which may not be finite, is never used.  A start stops on its own and
    is masked out of later calls.  The optimizer's arithmetic on a row does
    not depend on the other rows, so when ``fun`` evaluates each row as it
    would alone, as the likelihood fit's objective does, a start's result
    is the one it gets alone.

    The radius follows scipy's trust-region rule: it starts at 1, shrinks
    by 4 when the actual reduction is under a quarter of the predicted one,
    and doubles, up to 1000, when it is over three quarters with a step
    other than the Newton step.
    The step is taken when that ratio exceeds 0.15; a non-finite value at
    the trial point rejects it.  When the Hessian is positive definite and
    the Newton decrement ``grad @ H^-1 @ grad / 2`` is under 1e-8, the full
    Newton step is the last one.  So is any step whose predicted decrease
    is positive but under four ulps of ``|f|``: the actual reduction of so
    small a step is rounding, and ratios of rounding would reject every step
    and shrink the radius until the step limit.  A start also stops,
    unsuccessfully, when the model predicts no decrease or after 200 steps.

    Returns a ``SimpleNamespace`` whose fields hold one entry per start:
    ``x``, ``fun``, ``success``, ``message``, and the counts
    ``nit`` (steps tried) and ``nfev`` (points ``fun`` was evaluated at).
    """
    x = np.array(x0, dtype=float)
    n_s = x.shape[0]
    f, g, h = (np.array(v, dtype=float) for v in fun(x))
    radius = np.ones(n_s)
    nit = np.zeros(n_s, dtype=int)
    nfev = np.ones(n_s, dtype=int)
    success = np.zeros(n_s, dtype=bool)
    message = ["iteration limit reached"] * n_s
    active = np.arange(n_s)
    while active.size:
        lam, vec = np.linalg.eigh(h[active])
        gq = np.matmul(g[active, None, :], vec)[:, 0]
        p, on_boundary = _trust_step(gq, lam, radius[active])
        newton = gq / np.where(lam[:, :1] > 0, lam, 1.0)
        final = (lam[:, 0] > 0) & ((gq * newton).sum(axis=1) < 2e-8)
        p[final] = -newton[final]
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
        f_try, g_try, h_try = fun(x_try)
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
        h[rows[take]] = h_try[take]
        success[rows[ended]] = True
        for i, floor_stop in zip(rows[ended], at_floor[tried][ended]):
            message[i] = ("predicted decrease under 4 ulps of the value" if floor_stop
                          else "Newton decrement below 1e-8")
        active = rows[~ended & (nit[rows] < 200)]
    return SimpleNamespace(x=x, fun=f, nit=nit, nfev=nfev, success=success, message=message)


def _bin_tables(a: model.RoutingMatrix, lam: np.ndarray, samples, n_bins: int) -> dict:
    """Each path's sorted links, bin counts and table, by link count N:
    ``{N: [(links, counts, table), ...]}`` in path order.

    ``_checked_paths`` checks and sorts the samples, and the bin edges are
    their quantiles (``_quantile_edges``).  A table holds the bins'
    probabilities under each of the (d+1)^N assignments of stages to the
    links, in lexicographic order.  A row depends only on the multiset of
    its rates, so each hypoexponential CDF is computed once per multiset and
    the table, read with one axis per link, is symmetric under any
    permutation of those axes.
    """
    d = lam.size - 1
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
    return by_length


def _kron(w: np.ndarray, positions) -> np.ndarray:
    """For each list of link positions, the Kronecker product of those
    links' weight vectors: (..., K, (d+1)^m) from ``w`` (..., N, d+1) and K
    lists of m positions each.  With m = 0 each product is [1]."""
    factors = w[..., np.array(positions, dtype=np.intp), :]  # (..., K, m, d+1)
    kron = np.ones(factors.shape[:-2] + (1,))
    for j in range(factors.shape[-2]):
        kron = (kron[..., None] * factors[..., j, None, :]).reshape(factors.shape[:-2] + (-1,))
    return kron


def _path_probs(w: np.ndarray, tables: np.ndarray):
    """The bin probabilities p (S, P, bins) of P paths of N links each and
    their derivatives (S, P, N(d+1), bins) at S batches of the links'
    weights ``w`` (S, P, N, d+1), from the paths' ``_bin_tables`` tables.

    p is multilinear, a ``_kron`` of weight vectors times a table.  A table
    is symmetric in its link axes, so the ``_kron`` of all positions but k
    times the table, read as ((d+1)^(N-1), (d+1) bins), is dp/dw_k, for all
    k in one ``matmul``; p is position 0's derivative times its weights.
    """
    n_s, n_p, n_i, d1 = w.shape
    kron = _kron(w, [[q for q in range(n_i) if q != k] for k in range(n_i)])[..., None, :]
    by_last = tables.reshape(n_p, 1, kron.shape[-1], -1)  # (P, 1, (d+1)^(N-1), (d+1) bins)
    dprobs = np.matmul(kron, by_last).reshape(n_s, n_p, n_i * d1, -1)
    probs = np.matmul(w[:, :, 0, None, :], dprobs[:, :, :d1])[:, :, 0]
    return probs, dprobs


def _path_curvature(w: np.ndarray, tables: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The sum over bins of ``v`` (S, P, bins) times p's second derivatives,
    (S, P, N(d+1), N(d+1)), with ``w`` and ``tables`` as in ``_path_probs``.

    p is multilinear, so its only second derivatives pair two positions
    k < m: the remaining ones' ``_kron`` times the tables times ``v``, read
    with k and m last as the tables are symmetric, which also makes that
    block its own transpose, the (m, k) block.
    """
    n_s, n_p, n_i, d1 = w.shape
    curv = np.zeros((n_s, n_p, n_i, d1, n_i, d1))
    pairs = list(combinations(range(n_i), 2))
    if pairs:
        rest = [[q for q in range(n_i) if q not in pair] for pair in pairs]
        r = np.matmul(tables, v[..., None]).reshape(n_s, n_p, 1, -1, d1 * d1)
        cross = (_kron(w, rest)[..., None, :] @ r).reshape(n_s, n_p, -1, d1, d1)
        for j, (k, m) in enumerate(pairs):
            curv[:, :, k, :, m] = curv[:, :, m, :, k] = cross[:, :, j]
    return curv.reshape(n_s, n_p, n_i * d1, n_i * d1)


def _likelihood_objective(a: model.RoutingMatrix, lambdas, samples):
    """The fit's objective: from an (S, N*d) batch of free weights to the
    values (S,), gradients and Hessians of the penalised binned negative log
    likelihood over all paths.

    Each path's delay is a mixture over stage assignments of
    hypoexponential distributions, so the probability of every one of its
    1000 quantile bins (``_bin_tables``) is multilinear in the link weight
    vectors (``_path_probs``).  This squeezes the full per-sample
    information out of the data, unlike the handful of MGF evaluations the
    polynomial stage consumes.

    The objective is evaluated in stacked form, so its numpy call count does
    not grow with the number of paths or starts; the starts stay a batch
    axis of every product, so each start's values are computed exactly as
    they would be alone.  Paths are grouped by link count N, their tables
    stacked and padded with zero-count bins.  The gradient is the
    derivatives times the count/p ratio; the Hessian is the derivatives
    weighted by count/p^2 less ``_path_curvature`` of the ratio.  All of
    this is taken in all links' full weights; one constant lift carries it
    to the free weights (+1 on a free weight, -1 on the last stage's, one
    minus the others).

    Bin probabilities are floored at 1e-12 (with the derivatives masked there)
    so a handful of tail outliers the rate model cannot explain contribute
    a flat penalty instead of dragging the whole fit; the floor never
    activates when the model matches the data.  A quadratic penalty keeps
    every link's density nonnegative on a grid: signed weight vectors that
    are not valid distributions can otherwise chase model mismatch to
    arbitrarily wild fits.
    """
    n_bins = 1000
    lam = np.asarray(lambdas, dtype=float)
    d = lam.size - 1
    n = a.n_links
    k_full = n * (d + 1)
    u_grid = np.geomspace(1e-3 / lam.max(), 20.0 / lam.min(), 60)
    dens_basis = lam[:, None] * np.exp(-np.outer(lam, u_grid))  # (d+1, grid)
    penalty_coeff = 1e8
    floor = 1e-12
    # all links' full weights as a function of the free ones: d(w)/d(w_free)
    lift = np.kron(np.eye(n), np.vstack([np.eye(d), -np.ones((1, d))]))  # (n(d+1), nd)

    # Stack the paths of each link count N; zero-count padding bins add
    # nothing to the likelihood or its derivatives.
    groups = []
    for members in _bin_tables(a, lam, samples, n_bins).values():
        width = max(c.size for _, c, _ in members)
        counts = np.array([np.pad(c, (0, width - c.size)) for _, c, _ in members], dtype=float)
        tables = np.array([np.pad(t, ((0, 0), (0, width - t.shape[1]))) for _, _, t in members])
        link_idx = np.array([links for links, _, _ in members])
        # rows of the identity, selecting each (path, position, stage)'s weight
        jac = np.eye(k_full).reshape(n, d + 1, k_full)[link_idx].reshape(len(members), -1, k_full)
        groups.append((link_idx, counts, tables, jac))

    def objective(x):
        n_s = x.shape[0]
        free = x.reshape(n_s, n, d)
        w_full = np.concatenate([free, 1.0 - free.sum(axis=2, keepdims=True)], axis=2)
        total = np.zeros(n_s)
        grad = np.zeros((n_s, 1, k_full))
        hess = np.zeros((n_s, k_full, k_full))
        for link_idx, counts, tables, jac in groups:
            w = w_full[:, link_idx]  # (S, P, N, d+1)
            probs, dprobs = _path_probs(w, tables)
            clamped = np.maximum(probs, floor)
            log_p = np.log(clamped).reshape(n_s, 1, -1)
            total -= np.matmul(log_p, counts.reshape(-1, 1))[:, 0, 0]
            ratio = np.where(probs > floor, counts / clamped, 0.0)
            dnll = np.matmul(dprobs, ratio[..., None]).reshape(n_s, 1, -1)
            grad -= np.matmul(dnll, jac.reshape(-1, k_full))
            # Gauss-Newton part: sum over bins of counts/p^2 dp dp^T
            block = np.matmul(dprobs * (ratio / clamped)[:, :, None, :], dprobs.swapaxes(2, 3))
            block -= _path_curvature(w, tables, ratio)
            hess += jac.reshape(-1, k_full).T @ np.matmul(block, jac).reshape(n_s, -1, k_full)
        dens = w_full @ dens_basis  # (S, N, grid)
        neg = np.minimum(dens, 0.0)
        total += penalty_coeff * (neg * neg).sum(axis=(1, 2))
        grad += 2.0 * penalty_coeff * (neg @ dens_basis.T).reshape(n_s, 1, -1)
        below = dens < 0.0
        if below.any():
            curv = 2.0 * penalty_coeff * ((dens_basis * below[:, :, None, :]) @ dens_basis.T)
            links = np.arange(n)
            hess.reshape(n_s, n, d + 1, n, d + 1)[:, links, :, links, :] += curv.swapaxes(0, 1)
        return total, np.matmul(grad, lift)[:, 0], lift.T @ hess @ lift

    return objective


_N_STARTS = 7


def _likelihood_starts(n: int, d: int, seed: int, count: int = _N_STARTS) -> np.ndarray:
    """The fit's ``count`` starts as rows of free weights: the uniform
    weights, then Dirichlet draws seeded by ``seed``.

    Restarts matter: a single start can settle in a spurious basin that the
    likelihood ranks below the genuine one.  Seven suffice: on 440 sampled
    runs of expt1-3 at L = 1e6 (seeds 0-19 of each; expt3 seeds 1000-1039,
    1100-1159, 1200-1259 and 1300-1399; expt1 and expt2 seeds 1000-1019,
    1100-1119 and 1200-1219), the best of the first seven was within 1e-6
    nats of the best of seventeen every time, and two runs needed the sixth
    start.  ``scripts/start_census.py`` repeats that census.
    """
    rng = np.random.default_rng(seed)
    return np.array([np.full((n, d), 1.0 / (d + 1))] + [
        rng.dirichlet(np.ones(d + 1), size=n)[:, :d] for _ in range(count - 1)
    ]).reshape(count, n * d)


def _likelihood_polish(a: model.RoutingMatrix, lambdas, samples, seed: int) -> np.ndarray:
    """Binned maximum-likelihood fit of the (N, d) free-weight matrix: the
    best fit of ``_likelihood_objective`` from ``_likelihood_starts``.

    The starts advance together as one batch of trust-region Newton fits
    (``_trust_newton``) on the exact Hessian: with n*d free weights, at
    most a dozen on the bundled topologies, the Hessian costs about one
    more batched matmul than the gradient, and most starts converge in 10-30
    steps.  Each iteration makes one objective call at the active starts'
    trial points, which returns their values, gradients and Hessians from
    the same products; the optimizer keeps a trial point's Hessian only
    where its step is taken.
    """
    n, d = a.n_links, len(lambdas) - 1
    objective = _likelihood_objective(a, lambdas, samples)
    fits = _trust_newton(objective, _likelihood_starts(n, d, seed))
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
    right-hand side ``rhs(tau, n_i, mgf)``; a ``tau`` key that names no
    path raises ``ValueError``.
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
    unknown = [i for i in opts.tau or () if i not in range(a.n_paths)]
    if unknown:
        raise ValueError(f"tau names path(s) {unknown} outside 0..{a.n_paths - 1}")
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

        tau = tuple(opts.tau[i]) if i in (opts.tau or ()) else default_tau(i, links)
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
    admits no such answer.  Fewer than two rates, or rates that are not
    finite, > 0 and pairwise distinct (``model.check_rates``), raise
    ``ValueError`` before any work.
    """
    rates = model.check_rates(lambdas, 2)
    opts = options or EstimateOptions()
    d = len(lambdas) - 1
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
    (MatchResult, diagnostics).  Its rates are checked as ``algebraic_gh``'s
    are, before any work.
    """
    model.check_rates(lambdas, 2)
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
    when matching fails, and ``RuntimeError``, naming the link, when an
    estimated mean is not finite and > 0, as one extreme delay can make it.
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
    for j, mean in enumerate(means):
        if not 0.0 < mean < math.inf:
            raise RuntimeError(f"estimated mean of link {j} is {mean}; need finite and > 0")
    return means, replace(result, error_norm=_error_norm(means, ground_truth)), diagnostics
