"""All-roots solving of the path polynomial systems.

A path's system E(x) = u states, for every probe value t, that
prod_j (1 + sum_k x_jk z_k) = 1 + sum_{k,q} u_kq z_k^q, where
z_k = Lambda_k(t) / lambda_{d+1}.  Each w_k = 1/z_k is affine in one
parameter s (``epsbuild.stage_relations``), so multiplying through by
(prod_k w_k)^N turns every link's factor into a degree-d polynomial in s
with a fixed leading coefficient and the right-hand side into one
polynomial Q(s) of degree N*d, built from u and the rates alone.  The roots
of E(x) = u are therefore exactly the ordered splits of Q's roots into N
groups of d, (N*d)! / (d!)^N of them (the m-homogeneous Bezout number), and
each group gives its link's weights in closed form.  Those candidates are
the roots, exact up to the rounding of Q's roots; near-coincident ones are
merged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from numpy.polynomial import Polynomial

from .epsbuild import stage_relations

__all__ = [
    "SolutionSet",
    "solve_system",
    "reduce_first_components",
    "solve_univariate",
]


# Radius within which two roots are merged.
_DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class SolutionSet:
    """Deduplicated roots of one system, one per row of ``roots`` (R, N*d):
    the links' blocks of d weights, in increasing link order.

    ``n_paths`` counts the candidate splits of Q's roots.  Every candidate is
    a root, so ``n_path_failures`` is 0 by construction.
    """

    roots: np.ndarray
    n_path_failures: int
    n_paths: int

    @property
    def n_roots(self) -> int:
        return len(self.roots)

    def real_roots(self, tol: float) -> np.ndarray:
        """The roots whose imaginary parts are below ``tol``, as an (R, N*d) real array."""
        return self.roots[np.abs(self.roots.imag).max(axis=1) < tol].real


def _dedup(points, tol: float) -> list[int]:
    """Indices of the points, one per row, left after merging near-coincident
    ones.  In the order of their values rounded to 9 digits, which makes it
    deterministic, a point is kept unless it lies within ``tol`` of a point
    kept before it; one vectorised norm compares it with all of those."""
    points = np.asarray(points)
    keys = np.round(points, 9).view(float).tolist()
    kept_rows = np.empty_like(points)
    kept: list[int] = []
    for i in sorted(range(len(points)), key=keys.__getitem__):
        if not kept or np.linalg.norm(kept_rows[:len(kept)] - points[i], axis=1).min() >= tol:
            kept_rows[len(kept)] = points[i]
            kept.append(i)
    return kept


def _splits(items: tuple[int, ...], d: int):
    """Every split of ``items`` into a sequence of groups of ``d``, in order."""
    if not items:
        yield ()
        return
    for group in combinations(items, d):
        rest = tuple(i for i in items if i not in group)
        for tail in _splits(rest, d):
            yield (group,) + tail


def _candidates(u: np.ndarray, n: int, lambdas) -> np.ndarray:
    """One weight vector per ordered split of Q's roots into link factors, per row."""
    d = len(lambdas) - 1
    if n == 1:
        return u[None].copy()  # h_k1 = x_1k: the system is x = u
    # w_1 = s; the relation 1 = b_1r w_r + b_r1 w_1 gives every other w_r.
    b = stage_relations(lambdas)
    w = [Polynomial([0.0, 1.0])] + [
        Polynomial([1.0, -b[r, 0]]) / b[0, r] for r in range(1, d)
    ]
    one = Polynomial([1.0])
    others = [math.prod((w[m] for m in range(d) if m != k), start=one) for k in range(d)]
    q_poly = math.prod(w, start=one) ** n
    for k in range(d):
        q_poly += others[k] ** n * sum(
            u[k * n + q - 1] * w[k] ** (n - q) for q in range(1, n + 1)
        )
    roots = solve_univariate(q_poly.coef[::-1])
    lead = np.prod([wk.coef[1] for wk in w])
    sigma = np.array([-wk.coef[0] / wk.coef[1] for wk in w])
    denom = np.array([others[k](sigma[k]) for k in range(d)])
    # x_jk = F_j(sigma_k) / prod_{k' != k} w_k'(sigma_k), with
    # F_j(s) = lead * prod over the group's roots rho of (s - rho).
    diffs = sigma[None, :] - roots[:, None]
    splits = np.array(list(_splits(tuple(range(n * d)), d)))  # (K, N, d) root indices
    return (lead * diffs[splits].prod(axis=2) / denom).reshape(len(splits), -1)


def solve_system(rhs, n_i: int, lambdas) -> SolutionSet:
    """All isolated roots of E(x) = u, one per distinct split of Q's roots.

    ``rhs`` is u, the d*N_i values solved from T_tau u = c, for a path of
    ``n_i`` links over the d+1 rates ``lambdas``.  The candidates are exact
    up to the rounding of Q's roots, so they are returned as computed,
    near-coincident ones merged.  Raises ``ValueError`` when ``rhs`` does not
    hold d*N_i values.
    """
    u = np.asarray(rhs, dtype=complex)
    need = n_i * (len(lambdas) - 1)
    if u.shape != (need,):
        raise ValueError(
            f"right-hand side has {u.size} values; a path of {n_i} links over "
            f"{len(lambdas)} rates needs {need}"
        )
    candidates = _candidates(u, n_i, lambdas)
    return SolutionSet(
        roots=candidates[_dedup(candidates, _DEDUP_TOL)],
        n_path_failures=0,
        n_paths=len(candidates),
    )


def reduce_first_components(
    roots, d: int, near_real_tol: float = 1e-6
) -> list[np.ndarray]:
    """Distinct first-block components of the roots, near-real ones only.

    True weight vectors are real, so blocks with any imaginary part at or
    above ``near_real_tol`` are dropped; the rest are projected to real.
    """
    firsts = []
    for r in roots:
        alpha = np.asarray(r)[:d]
        if np.abs(alpha.imag).max() < near_real_tol:
            firsts.append(alpha.real.copy())
    return [firsts[k] for k in _dedup(firsts, _DEDUP_TOL)]


def solve_univariate(coeffs) -> np.ndarray:
    """All complex roots of a univariate polynomial, highest degree first,
    as the companion-matrix eigenvalues of ``numpy.roots``."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or len(coeffs) < 2:
        raise ValueError("need a polynomial of degree >= 1")
    if coeffs[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    return np.roots(coeffs)
