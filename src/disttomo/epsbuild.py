"""Construction of the per-path elementary polynomial system E(x) - u = 0.

A path crossing N_i links, each a signed mixture over d+1 shared rates,
has an MGF that is a product of per-link mixture MGFs.  Multiplying by
(lambda_{d+1} + t)^{N_i} turns that product into a polynomial identity in
the rational basis functions Lambda_k(t).  Expanding each basis product
into powers of single Lambda_k and collecting coefficients yields a square
system of d*N_i polynomials h_kq in the d*N_i unknown weights, paired with
an invertible evaluation matrix T_tau that is the only place the probe
points tau enter: the path's right-hand side u solves T_tau u = c.  The
solver needs only u and ``stage_relations``; ``build_eps`` is the paper's
explicit system, the reference the tests check the solver against.

Variables are indexed (link slot j in [N_i], stage k in [d]) and flattened
as (j-1)*d + (k-1), 0-based.  Equations are ordered h_11..h_1Ni, h_21, ...
matching the column convention of the evaluation matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import numpy as np

__all__ = [
    "CompositionL",
    "SparsePoly",
    "enumerate_compositions",
    "g_poly",
    "beta_coeff",
    "stage_relations",
    "gamma_coeff",
    "expand_lambda_power",
    "build_eps",
    "build_t_tau",
    "lambda_basis",
    "canonical_poly_value",
]

DEFAULT_COND_LIMIT = 1e10


class ConstantTermError(ValueError):
    """Raised when asked to expand a pure-constant basis product (no stage in [d])."""


@dataclass(frozen=True)
class CompositionL:
    """A composition of N_i into d+1 nonnegative parts.

    Part k counts how many links of the path contribute stage k to one
    monomial of the expanded MGF product.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 0 for p in self.parts):
            raise ValueError(f"composition parts must be nonnegative: {self.parts}")
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))

    @property
    def total(self) -> int:
        return sum(self.parts)

    def support(self) -> tuple[int, ...]:
        """Indices k in [d] (1-based) with a positive count; excludes the last part."""
        return tuple(k for k in range(1, len(self.parts)) if self.parts[k - 1] > 0)


def enumerate_compositions(parts: int, total: int) -> list[CompositionL]:
    """All compositions of ``total`` into ``parts`` nonnegative integers.

    Count equals C(total + parts - 1, parts - 1).
    """
    if parts < 1 or total < 1:
        raise ValueError("parts and total must be >= 1")
    out: list[CompositionL] = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(CompositionL(prefix + (remaining,)))
            return
        for v in range(remaining + 1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), total, parts)
    return out


class SparsePoly:
    """Sparse multivariate polynomial: exponent tuple -> coefficient.

    Exponent tuples have length ``nvars``; zero coefficients are dropped.
    Coefficients may be float, complex or Fraction (for the exact
    construction mode used in tests).
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], object] = {}
        if terms:
            for exps, c in terms.items():
                self.add_term(exps, c)

    def add_term(self, exps: tuple[int, ...], coeff) -> None:
        if len(exps) != self.nvars:
            raise ValueError(f"exponent vector length {len(exps)} != nvars {self.nvars}")
        new = self.terms.get(exps, 0) + coeff
        if new == 0:
            self.terms.pop(exps, None)
        else:
            self.terms[exps] = new

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __call__(self, x) -> complex:
        """Value at a (possibly complex) point, summed term by term."""
        x = [complex(v) for v in x]
        return sum(
            (
                complex(c) * math.prod(v**e for v, e in zip(x, exps) if e)
                for exps, c in self.terms.items()
            ),
            0j,
        )

    def __repr__(self):
        return f"SparsePoly(nvars={self.nvars}, terms={self.terms!r})"


def var_index(j: int, k: int, d: int) -> int:
    """Flat variable index of the stage-k weight of link slot j (both 1-based)."""
    return (j - 1) * d + (k - 1)


@lru_cache(maxsize=None)
def _type_class(parts: tuple[int, ...], n_i: int) -> tuple[tuple[int, ...], ...]:
    """All stage-label vectors b in [d+1]^{N_i} whose per-stage counts equal ``parts``."""
    base = []
    for stage, count in enumerate(parts, start=1):
        base.extend([stage] * count)
    assert len(base) == n_i
    return tuple(sorted(set(permutations(base))))


def g_poly(comp: CompositionL, n_i: int, d: int) -> SparsePoly:
    """Monomial-sum polynomial of one composition.

    Sums, over every assignment of stages to link slots with the given
    per-stage counts, the product of the matching weight variables (the
    last stage contributes no variable).  The monomial count equals the
    multinomial coefficient of the composition.
    """
    if len(comp.parts) != d + 1:
        raise ValueError(f"composition has {len(comp.parts)} parts, expected {d + 1}")
    if comp.total != n_i:
        raise ValueError(f"composition total {comp.total} != path length {n_i}")
    poly = SparsePoly(d * n_i)
    for b in _type_class(comp.parts, n_i):
        exps = [0] * (d * n_i)
        for j, stage in enumerate(b, start=1):
            if stage != d + 1:
                exps[var_index(j, stage, d)] += 1
        poly.add_term(tuple(exps), 1)
    return poly


def beta_coeff(j: int, k: int, lambdas):
    """Expansion coefficient linking stage j to stage k; 1 on the diagonal."""
    d = len(lambdas) - 1
    if not (1 <= j <= d and 1 <= k <= d):
        raise ValueError(f"stages must lie in [1, {d}], got j={j}, k={k}")
    if j == k:
        return _one_like(lambdas)
    lj, lk, last = lambdas[j - 1], lambdas[k - 1], lambdas[-1]
    return lj * (lk - last) / (lj - lk)


def stage_relations(lambdas) -> np.ndarray:
    """The b with z_k z_r = b[k, r] z_k + b[r, k] z_r for every stage pair.

    z_k is stage k's basis function over the last rate, and
    b[k, r] = beta_coeff(k, r) / lambda_{d+1}: in ``build_eps(N, d, lambdas)``
    for any N >= 2 it is the coefficient of x_{1k}...x_{N-1,k} x_{Nr} in
    h_{k,N-1}.  The diagonal is 0.
    """
    d = len(lambdas) - 1
    b = np.zeros((d, d))
    for k in range(1, d + 1):
        for r in range(1, d + 1):
            if r != k:
                b[k - 1, r - 1] = beta_coeff(k, r, lambdas) / lambdas[-1]
    return b


def _one_like(lambdas):
    return Fraction(1) if isinstance(lambdas[0], Fraction) else 1.0


def gamma_coeff(k: int, q: int, comp: CompositionL, lambdas):
    """Weight of the (stage k, power q) basis term in the expansion of one
    basis product.

    Enumerates the lattice of auxiliary exponent vectors supported on the
    composition's support minus {k} and summing to L_k - q.
    """
    support = comp.support()
    if k not in support:
        raise ValueError(f"stage {k} not in composition support {support}")
    l_k = comp.parts[k - 1]
    if not (1 <= q <= l_k):
        raise ValueError(f"power q={q} out of range [1, {l_k}]")
    lead = _one_like(lambdas)
    for r in support:
        lead *= beta_coeff(k, r, lambdas) ** comp.parts[r - 1]
    free = [r for r in support if r != k]
    acc = 0 * lead
    for s in _bounded_sums(len(free), l_k - q):
        term = _one_like(lambdas)
        for r, s_r in zip(free, s):
            l_r = comp.parts[r - 1]
            term *= math.comb(l_r + s_r - 1, l_r - 1) * beta_coeff(r, k, lambdas) ** s_r
        acc += term
    return lead * acc


def _bounded_sums(slots: int, total: int):
    """All nonnegative integer vectors of given length summing to ``total``."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for v in range(total + 1):
        for rest in _bounded_sums(slots - 1, total - v):
            yield (v,) + rest


def expand_lambda_power(comp: CompositionL, n_i: int, lambdas):
    """Terms (k, q, coeff) expanding one basis product into single-stage powers.

    The identity is: prod_k Lambda_k^{L_k} * last^{L_{d+1}} equals
    sum over terms of coeff * Lambda_k^q(t) * last^{N_i - q}, for all t.
    """
    support = comp.support()
    if not support:
        raise ConstantTermError(
            "composition is concentrated on the last stage: constant term, no expansion"
        )
    last = lambdas[-1]
    out = []
    l_last = comp.parts[-1]
    for k in support:
        for q in range(1, comp.parts[k - 1] + 1):
            gamma = gamma_coeff(k, q, comp, lambdas)
            coeff = gamma / last ** (n_i - q - l_last)
            if coeff != 0:
                out.append((k, q, coeff))
    return out


def build_eps(n_i: int, d: int, lambdas) -> list[SparsePoly]:
    """The d*N_i polynomials h_kq, ordered h_11..h_1Ni, h_21..h_2Ni, ...

    Pass ``lambdas`` as Fractions for exact coefficient arithmetic.
    """
    if n_i < 1 or d < 1:
        raise ValueError("n_i and d must be >= 1")
    if len(lambdas) != d + 1:
        raise ValueError(f"need {d + 1} rates, got {len(lambdas)}")
    polys = [SparsePoly(d * n_i) for _ in range(d * n_i)]
    for comp in enumerate_compositions(d + 1, n_i):
        if not comp.support():
            continue  # pure-constant term, absorbed into c(t)
        g = g_poly(comp, n_i, d)
        for k, q, coeff in expand_lambda_power(comp, n_i, lambdas):
            target = polys[(k - 1) * n_i + (q - 1)]
            for exps, c in g.terms.items():
                target.add_term(exps, c * coeff)
    return polys


def lambda_basis(k: int, t: float, lambdas) -> float:
    """Rational basis function of stage k at probe point t."""
    return (lambdas[k - 1] - lambdas[-1]) * t / (lambdas[k - 1] + t)


def build_t_tau(tau, n_i: int, d: int, lambdas, cond_limit: float = DEFAULT_COND_LIMIT):
    """Evaluation matrix tying probe points to the polynomial coefficients.

    Row j evaluates the basis at tau[j]; column k carries stage
    b_k = min{j : j*N_i >= k} at power k - (b_k - 1)*N_i, scaled by the last
    rate.  Raises when the matrix is numerically singular, in which case a
    different tau should be chosen.
    """
    tau = [float(t) for t in tau]
    if len(tau) != d * n_i:
        raise ValueError(f"need {d * n_i} probe points, got {len(tau)}")
    if any(t <= 0 for t in tau):
        raise ValueError("probe points must be strictly positive")
    if len(set(tau)) != len(tau):
        raise ValueError("probe points must be distinct (matrix would be singular)")
    mat = _t_tau_stack(np.array(tau), n_i, lambdas)
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > cond_limit:
        raise np.linalg.LinAlgError(
            f"evaluation matrix condition number {cond:.3g} exceeds {cond_limit:.3g}; "
            "choose a different probe set tau"
        )
    return mat


def _t_tau_stack(taus: np.ndarray, n_i: int, lambdas) -> np.ndarray:
    """The evaluation matrices of a stack (..., d*N_i) of probe sets.

    Entry (row, (b-1)*N_i + q - 1) is Lambda_b(tau[row])^q * lambda_{d+1}^(N_i - q):
    per stage b, the powers q = 1..N_i of its basis function, scaled.
    """
    lam = np.asarray(lambdas, dtype=float)
    last = lam[-1]
    t = taus[..., None]
    basis = (lam[:-1] - last) * t / (lam[:-1] + t)  # (..., dN, d)
    q = np.arange(1, n_i + 1)
    mat = basis[..., None] ** q * last ** (n_i - q)  # (..., dN, d, N_i)
    return mat.reshape(taus.shape + (taus.shape[-1],))


def canonical_poly_value(x, t: float, n_i: int, d: int, lambdas, mu_t: float) -> complex:
    """Direct evaluation of the un-expanded path polynomial at (x, t).

    Used as the independent oracle for the expanded representation: the
    product over link slots of the weighted basis sum, minus the scaled MGF.
    """
    x = np.asarray(x, dtype=complex)
    last = lambdas[-1]
    prod = 1.0 + 0.0j
    for j in range(1, n_i + 1):
        acc = complex(last)
        for k in range(1, d + 1):
            acc += x[var_index(j, k, d)] * lambda_basis(k, t, lambdas)
        prod *= acc
    return prod - mu_t

