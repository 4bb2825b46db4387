"""Domain types: generalized hyperexponential mixtures and binary routing matrices.

A link delay is modelled as a signed mixture of d+1 exponentials sharing a
known, distinct rate vector.  A routing matrix is a binary path/link
incidence matrix; estimation requires every pair of its columns to be
linearly independent (1-identifiability).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "check_rates",
    "GhMix",
    "RoutingMatrix",
    "IncidenceSets",
    "gh_mgf",
    "gh_cdf",
    "gh_pdf",
    "gh_mean",
    "hypoexp_cdf",
    "is_one_identifiable",
    "identifiability_defects",
    "incidence_sets",
]

_WEIGHT_SUM_TOL = 1e-12
_DENSITY_FLOOR = -1e-9
_DENSITY_GRID_POINTS = 1000


def check_rates(rates, minimum: int = 1) -> tuple[float, ...]:
    """``rates`` as a tuple of floats, or ``ValueError`` unless there are at
    least ``minimum`` of them, each finite and strictly positive, and
    pairwise distinct."""
    rates = tuple(float(r) for r in rates)
    if len(rates) < minimum:
        raise ValueError(f"need at least {minimum} rates, got {rates}")
    if not all(0.0 < r < math.inf for r in rates):
        raise ValueError(f"rates must be finite and strictly positive, got {rates}")
    if len(set(rates)) != len(rates):
        raise ValueError(f"rates must be pairwise distinct, got {rates}")
    return rates


@dataclass(frozen=True)
class GhMix:
    """A generalized hyperexponential distribution: d+1 rates and signed weights.

    Rates must pass ``check_rates``; weights must be finite, sum to one and
    yield a nonnegative density.  Nonnegativity is checked on a geometric
    grid plus a tail sign check (the smallest rate dominates as u grows),
    since an exact check is transcendental.
    """

    rates: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "weights", weights)
        if len(rates) != len(weights):
            raise ValueError(
                f"rates ({len(rates)}) and weights ({len(weights)}) differ in length"
            )
        check_rates(rates)
        if not all(math.isfinite(w) for w in weights):
            raise ValueError(f"weights must be finite, got {weights}")
        if abs(sum(weights) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(
                f"weights must sum to 1 within {_WEIGHT_SUM_TOL}, got sum {sum(weights)!r}"
            )
        self._validate_density()

    def _validate_density(self):
        rates = np.asarray(self.rates)
        weights = np.asarray(self.weights)
        # Tail: as u -> inf the smallest rate's term dominates the density sign.
        k_min = int(np.argmin(rates))
        if weights[k_min] < _DENSITY_FLOOR:
            raise ValueError(
                "density negative in the tail: weight of the smallest rate "
                f"({rates[k_min]}) is {weights[k_min]}"
            )
        lo = 1e-4 / rates.max()
        hi = 20.0 / rates.min()
        grid = np.geomspace(lo, hi, _DENSITY_GRID_POINTS)
        dens = (weights * rates) @ np.exp(-np.outer(rates, grid))
        if dens.min() < _DENSITY_FLOOR:
            u_bad = grid[int(np.argmin(dens))]
            raise ValueError(
                f"density negative ({dens.min():.3g}) at u={u_bad:.6g}; not a valid mixture"
            )

    @property
    def n_stages(self) -> int:
        return len(self.rates)

    def is_proper_mixture(self) -> bool:
        """True when all weights are nonnegative (plain hyperexponential)."""
        return all(w >= 0 for w in self.weights)


def gh_mgf(mix: GhMix, t: float) -> float:
    """MGF E[exp(-t X)] of the mixture, valid for t >= 0; lies in (0, 1].
    A negative or NaN ``t`` raises ``ValueError``."""
    if not t >= 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    rates = np.asarray(mix.rates)
    weights = np.asarray(mix.weights)
    return float(weights @ (rates / (rates + t)))


def gh_cdf(mix: GhMix, u: float) -> float:
    """CDF of the mixture at u >= 0; a negative or NaN ``u`` raises
    ``ValueError``."""
    if not u >= 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    rates = np.asarray(mix.rates)
    weights = np.asarray(mix.weights)
    return float(weights @ (1.0 - np.exp(-rates * u)))


def gh_pdf(mix: GhMix, u: float) -> float:
    """Density of the mixture at u >= 0; a negative or NaN ``u`` raises
    ``ValueError``."""
    if not u >= 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    rates = np.asarray(mix.rates)
    weights = np.asarray(mix.weights)
    return float((weights * rates) @ np.exp(-rates * u))


def gh_mean(mix: GhMix) -> float:
    """Mean of the mixture, sum of w_k / lambda_k."""
    return float(sum(w / r for w, r in zip(mix.weights, mix.rates)))


def _erlang_cdfs(m: int, x: np.ndarray) -> np.ndarray:
    """Erlang CDFs P(k, x) = 1 - e^-x sum_{j<k} x^j/j! for k = 1..m, at a
    1-d x >= 0.

    P(k, x) is the regularized lower incomplete gamma function at integer
    order k.  Row k-1 of the (m, x.size) result holds P(k, x).  The
    Poisson terms e^-x x^j/j! are built once, each from the one before.
    Where x^m/m! < 0.01, subtracting their sum from 1 would cancel more than
    two digits of P(m, x); there P(m, x) comes from the positive series
    e^-x x^m/m! sum_n x^n/((m+1)...(m+n)), and each lower order from
    P(k, x) = P(k+1, x) + e^-x x^k/k!, which only adds.
    """
    out = np.empty((m, x.size))
    out[0] = -np.expm1(-x)
    poisson = [np.exp(-x)]  # e^-x x^j/j!
    below = poisson[0].copy()  # e^-x sum_{j<k} x^j/j!
    for k in range(1, m):
        poisson.append(poisson[-1] * x / k)
        below += poisson[-1]
        out[k] = 1.0 - below
    if m == 1:
        return out
    x_max = (0.01 * math.factorial(m)) ** (1.0 / m)  # where x^m/m! = 0.01
    small = x < x_max
    # the series' coefficients 1/((m+1)...(m+n)), up to the first term
    # under 2^-53 at x_max
    coeffs = [1.0]
    while coeffs[-1] * x_max ** (len(coeffs) - 1) > 2.0 ** -53:
        coeffs.append(coeffs[-1] / (m + len(coeffs)))
    xs = x[small]
    series = np.full_like(xs, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        series *= xs
        series += c
    p = poisson[-1][small] * xs / m * series
    out[m - 1][small] = p
    for k in range(m - 1, 1, -1):
        p = p + poisson[k][small]
        out[k - 1][small] = p
    return out


def hypoexp_cdf(rates, y) -> np.ndarray:
    """CDF of a sum of independent exponentials with the given rates.

    The rates must be nonempty, finite and > 0, or ``ValueError``; repeated
    rates are allowed (Erlang blocks).  The Laplace transform
    prod_i (r_i/(s+r_i))^{m_i} is expanded by partial fractions into terms
    A_{ik}/(s+r_i)^k, so the CDF is a signed combination of Erlang CDFs
    P(k, r_i y) = 1 - e^{-r_i y} sum_{j<k} (r_i y)^j/j!, all orders k of one
    rate computed together (``_erlang_cdfs``).  Derivatives at each pole are
    obtained from the logarithmic-derivative recursion, which stays exact
    for any multiplicity pattern.  A negative or NaN ``y`` raises
    ``ValueError``; the CDF at +inf is 1.
    """
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    rates = [float(r) for r in rates]
    if not rates or not all(0.0 < r < math.inf for r in rates):
        raise ValueError(f"rates must be nonempty, finite and strictly positive, got {rates}")
    if not (flat >= 0).all():
        raise ValueError(f"y must be nonnegative, got {flat[~(flat >= 0)][0]}")
    top = flat == math.inf
    flat = np.where(top, 0.0, flat)  # the CDF at +inf, 1, is set below
    mult = Counter(rates)
    distinct = sorted(mult)
    log_c = sum(m * math.log(r) for r, m in mult.items())
    out = np.zeros_like(flat)
    for r_i in distinct:
        m_i = mult[r_i]
        # derivatives of h(s) = prod_j r_j^{m_j} * prod_{j != i} (s+r_j)^{-m_j}
        # at the pole s = -r_i, via h' = h * u with u = -sum m_j/(s+r_j)
        h = [math.exp(log_c - sum(
            m * math.log(abs(r - r_i)) for r, m in mult.items() if r != r_i
        )) * math.prod(
            1.0 if r > r_i else (-1.0) ** m for r, m in mult.items() if r != r_i
        )]
        u = [
            sum(
                m * (-1.0) ** (p + 1) * math.factorial(p) / (r - r_i) ** (p + 1)
                for r, m in mult.items()
                if r != r_i
            )
            for p in range(m_i)
        ]
        for n in range(1, m_i):
            h.append(
                sum(math.comb(n - 1, k) * u[k] * h[n - 1 - k] for k in range(n))
            )
        coeffs = [h[m_i - k] / math.factorial(m_i - k) / r_i ** k for k in range(1, m_i + 1)]
        # An r_i y that overflows is capped at the largest float, where every
        # P(k, r_i y) is 1; as inf it would make _erlang_cdfs compute 0 * inf.
        with np.errstate(over="ignore"):
            x = np.minimum(r_i * flat, np.finfo(float).max)
        out += np.asarray(coeffs) @ _erlang_cdfs(m_i, x)
    out[top] = 1.0
    return out.reshape(y.shape)


class IncidenceSets(NamedTuple):
    """Derived index sets of a routing matrix.

    path_links[i] is the set of links on path i; link_paths[j] the set of
    paths crossing link j; off_paths[j] its complement; shared is the set of
    links crossed by at least two paths.  All indices are 0-based.
    """

    path_links: tuple[frozenset[int], ...]
    link_paths: tuple[frozenset[int], ...]
    off_paths: tuple[frozenset[int], ...]
    shared: frozenset[int]


@dataclass(frozen=True)
class RoutingMatrix:
    """Binary m x N path/link incidence matrix with identifiability queries."""

    entries: tuple[tuple[int, ...], ...]
    _sets: IncidenceSets = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        if not rows or not rows[0]:
            raise ValueError("routing matrix must be non-empty")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("routing matrix rows must have equal length")
        if any(v not in (0, 1) for row in rows for v in row):
            raise ValueError("routing matrix entries must be 0 or 1")
        if any(all(v == 0 for v in row) for row in rows):
            raise ValueError("routing matrix has an all-zero row (empty path)")
        object.__setattr__(self, "entries", tuple(tuple(int(v) for v in row) for row in rows))
        object.__setattr__(self, "_sets", incidence_sets(self.entries))

    @classmethod
    def from_array(cls, array) -> "RoutingMatrix":
        return cls(np.asarray(array))

    def to_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=int)

    @property
    def n_paths(self) -> int:
        return len(self.entries)

    @property
    def n_links(self) -> int:
        return len(self.entries[0])

    @property
    def sets(self) -> IncidenceSets:
        return self._sets

    def path_links(self, i: int) -> frozenset[int]:
        return self._sets.path_links[i]

    def link_paths(self, j: int) -> frozenset[int]:
        return self._sets.link_paths[j]


def incidence_sets(entries) -> IncidenceSets:
    """Compute the path/link index sets of a binary incidence matrix."""
    a = np.asarray(entries, dtype=int)
    m, n = a.shape
    path_links = tuple(frozenset(np.flatnonzero(a[i]).tolist()) for i in range(m))
    link_paths = tuple(frozenset(np.flatnonzero(a[:, j]).tolist()) for j in range(n))
    all_paths = frozenset(range(m))
    off_paths = tuple(all_paths - g for g in link_paths)
    shared = frozenset(j for j in range(n) if len(link_paths[j]) >= 2)
    return IncidenceSets(path_links, link_paths, off_paths, shared)


def identifiability_defects(a: RoutingMatrix | np.ndarray) -> list[str]:
    """Why the routing matrix is not 1-identifiable; empty when it is.

    For binary columns, pairwise linear independence reduces to: no
    all-zero column and all columns pairwise distinct (two distinct nonzero
    0/1 vectors can only be dependent when equal).  Columns are numbered
    from 1.
    """
    arr = a.to_array() if isinstance(a, RoutingMatrix) else np.asarray(a, dtype=int)
    cols = [tuple(arr[:, j]) for j in range(arr.shape[1])]
    reasons = [f"column {j + 1} is all-zero" for j, c in enumerate(cols) if not any(c)]
    for j1 in range(len(cols)):
        for j2 in range(j1 + 1, len(cols)):
            if cols[j1] == cols[j2]:
                reasons.append(f"columns {j1 + 1} and {j2 + 1} are identical")
    return reasons


def is_one_identifiable(a: RoutingMatrix | np.ndarray) -> bool:
    """True iff every pair of columns is linearly independent."""
    return not identifiability_defects(a)
