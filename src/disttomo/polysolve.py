"""All-roots solving of the path polynomial systems.

Total-degree homotopy continuation: start from the system
prod_i (x_i^{deg_i} - 1) whose roots are products of roots of unity, blend
into the target system with a random complex gamma, and track every
Bezout path with an Euler predictor plus a short Newton corrector.
Endpoints are Newton-polished against the target system and deduplicated.
Systems here are small (a handful of variables, Bezout counts in the tens),
so no projective endgame is used: a path whose step collapses near the end
is Newton-polished from where it stopped, kept when that converges and
counted as diverging when it does not.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .epsbuild import EpsSystem

__all__ = [
    "SolutionSet",
    "solve_system",
    "newton_refine",
    "NewtonResult",
    "reduce_first_components",
    "solve_univariate",
]


# Path tracking: homotopy step bounds, Newton corrector steps per step, and
# the norm beyond which a path is taken to escape to infinity.
_MAX_STEP = 0.1
_MIN_STEP = 1e-6
_CORRECTOR_STEPS = 3
_BLOWUP = 1e8
# Endpoint polish, the Jacobian condition number above which a root is
# flagged suspect, deduplication radius, and the share of failed paths (not
# counting divergent ones) above which a solve warns.
_REFINE_TOL = 1e-10
_REFINE_MAX_ITER = 50
_SINGULAR_COND = 1e12
_DEDUP_TOL = 1e-6
_FAILURE_WARN_FRAC = 0.05


@dataclass(frozen=True)
class SolutionSet:
    """Deduplicated roots of one system."""

    roots: tuple[np.ndarray, ...]
    residuals: tuple[float, ...]
    n_path_failures: int
    n_paths: int

    @property
    def n_roots(self) -> int:
        return len(self.roots)

    def real_roots(self, tol: float) -> list[np.ndarray]:
        """Roots whose imaginary parts are below ``tol``, projected to real."""
        return [r.real.copy() for r in self.roots if np.abs(r.imag).max() < tol]


def _start_points(degrees: tuple[int, ...]):
    """All combinations of roots of unity for the start system x_i^{d_i} = 1."""
    axes = [
        np.exp(2j * np.pi * np.arange(deg) / deg) for deg in degrees
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _track_path(ev, degrees, gamma, x0):
    """Track one path of the blended homotopy from s=0 to s=1.

    Returns ("root", x), ("infinity", None) for a path escaping to infinity
    (expected whenever the root count is below the Bezout bound),
    ("collapsed", x) for a step collapse near the end, or ("failed", None)
    for a genuine tracking failure (step collapse away from the end).
    """
    degs = np.asarray(degrees, dtype=float)
    x = x0.astype(complex)
    s = 0.0
    step = _MAX_STEP

    def g_parts(xv):
        gval = xv ** degs - 1.0
        gjac = np.diag(degs * xv ** (degs - 1.0))
        return gval, gjac

    while s < 1.0:
        ds = min(step, 1.0 - s)
        fval, fjac = ev(x)
        gval, gjac = g_parts(x)
        jac = gamma * (1.0 - s) * gjac + s * fjac
        try:
            dx = np.linalg.solve(jac, -(fval - gamma * gval))
        except np.linalg.LinAlgError:
            step *= 0.5
            if step < _MIN_STEP:
                return "failed", None
            continue
        xc = x + dx * ds
        s_new = s + ds
        ok = False
        for it in range(_CORRECTOR_STEPS):
            fval, fjac = ev(xc)
            gval, gjac = g_parts(xc)
            hval = gamma * (1.0 - s_new) * gval + s_new * fval
            jac = gamma * (1.0 - s_new) * gjac + s_new * fjac
            try:
                delta = np.linalg.solve(jac, -hval)
            except np.linalg.LinAlgError:
                break
            xc = xc + delta
            if np.linalg.norm(delta) < 1e-9 * (1.0 + np.linalg.norm(xc)):
                ok = True
                break
        if ok:
            x, s = xc, s_new
            if it == 0:
                step = min(step * 2.0, _MAX_STEP)
            if np.linalg.norm(x) > _BLOWUP:
                return "infinity", None
        else:
            step *= 0.5
            if step < _MIN_STEP:
                # Step collapse near the end means either a path escaping to
                # infinity as s -> 1 or a finite root the predictor cannot
                # reach; the caller polishes the iterate to tell them apart.
                # Away from the end it is a tracking failure.
                return ("collapsed", x) if s > 0.99 else ("failed", None)
    return "root", x


@dataclass(frozen=True)
class NewtonResult:
    point: np.ndarray
    residual: float
    converged: bool
    suspect: bool


def newton_refine(
    system: EpsSystem, x0, tol: float = 1e-10, max_iter: int = 30
) -> NewtonResult:
    """Newton-polish a candidate root of E(x) = u.

    Returns a diverged (non-converged) result when the iteration cap is hit
    or the iterate blows up; flags the root as suspect when the Jacobian is
    numerically singular near it.
    """
    ev = system.evaluator
    x = np.asarray(x0, dtype=complex).copy()
    suspect = False
    for _ in range(max_iter):
        fval, jac = ev(x)
        res = float(np.linalg.norm(fval))
        if res < tol:
            if np.linalg.cond(jac) > _SINGULAR_COND:
                suspect = True
            return NewtonResult(x, res, True, suspect)
        try:
            if np.linalg.cond(jac) > _SINGULAR_COND:
                suspect = True
                break
            delta = np.linalg.solve(jac, -fval)
        except np.linalg.LinAlgError:
            suspect = True
            break
        x = x + delta
        if np.linalg.norm(x) > 1e12:
            break
    fval, _ = ev(x)
    return NewtonResult(x, float(np.linalg.norm(fval)), False, suspect)


def _dedup(points: list[np.ndarray], tol: float) -> list[np.ndarray]:
    """Merge near-coincident points; order is made deterministic by sorting."""
    if not points:
        return []
    order = sorted(
        range(len(points)),
        key=lambda i: tuple(np.round(points[i], 9).view(float)),
    )
    kept: list[np.ndarray] = []
    for i in order:
        p = points[i]
        if all(np.linalg.norm(p - q) >= tol for q in kept):
            kept.append(p)
    return kept


def solve_system(system: EpsSystem, seed: int = 0) -> SolutionSet:
    """Find all isolated roots of E(x) = u by total-degree continuation.

    ``seed`` draws the random gamma of the homotopy.
    """
    ev = system.evaluator
    degrees = system.degrees()
    if any(deg < 1 for deg in degrees):
        raise ValueError("every polynomial must have degree >= 1")
    rng = np.random.default_rng(seed)
    gamma = np.exp(2j * np.pi * rng.random())
    starts = _start_points(degrees)
    endpoints = []
    failures = 0
    diverged = 0
    for x0 in starts:
        tag, x_end = _track_path(ev, degrees, gamma, x0)
        if tag == "infinity":
            diverged += 1
            continue
        if tag == "failed":
            failures += 1
            continue
        ref = newton_refine(system, x_end, tol=_REFINE_TOL, max_iter=_REFINE_MAX_ITER)
        if ref.converged:
            if ref.suspect:
                warnings.warn(
                    "root with near-singular Jacobian flagged suspect and kept",
                    stacklevel=2,
                )
            endpoints.append((ref.point, ref.residual))
        elif tag == "collapsed":
            diverged += 1
        else:
            failures += 1
    if not endpoints:
        raise RuntimeError("all continuation paths failed; system may be degenerate")
    # Paths diverging to infinity are expected whenever the root count is
    # below the Bezout bound, so only finite-path losses are diagnosed.
    if failures > _FAILURE_WARN_FRAC * len(starts):
        warnings.warn(
            f"{failures}/{len(starts)} continuation paths failed "
            f"({diverged} diverged to infinity)",
            stacklevel=2,
        )
    pts = _dedup([p for p, _ in endpoints], _DEDUP_TOL)
    roots = []
    residuals = []
    for p in pts:
        res = float(np.linalg.norm(ev(p)[0]))
        roots.append(p)
        residuals.append(res)
    return SolutionSet(
        roots=tuple(roots),
        residuals=tuple(residuals),
        n_path_failures=failures,
        n_paths=len(starts),
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
    return _dedup(firsts, _DEDUP_TOL)


def solve_univariate(coeffs, refine_tol: float = 1e-12) -> np.ndarray:
    """All complex roots of a univariate polynomial, highest degree first.

    Companion-matrix eigenvalues (numpy.roots) polished by a few Newton
    steps to residual below ``refine_tol`` relative to the leading scale.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or len(coeffs) < 2:
        raise ValueError("need a polynomial of degree >= 1")
    if coeffs[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    roots = np.roots(coeffs)
    deriv = np.polyder(coeffs)
    scale = np.abs(coeffs).max()
    for _ in range(20):
        vals = np.polyval(coeffs, roots)
        if np.abs(vals).max() <= refine_tol * scale * (1 + np.abs(roots).max() ** (len(coeffs) - 1)):
            break
        dvals = np.polyval(deriv, roots)
        safe = np.abs(dvals) > 1e-300
        roots[safe] = roots[safe] - vals[safe] / dvals[safe]
    return roots
