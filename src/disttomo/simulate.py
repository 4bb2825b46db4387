"""Synthetic end-to-end delay generation for Y = AX experiments.

Each path gets its own RNG substream derived from a single master seed via
``numpy.random.SeedSequence.spawn``, so per-path generation is reproducible,
independent across paths (no shared link draws), and identical whether paths
are generated serially or in parallel.

The draw order is a contract that tests pin bit for bit.  Per seed: one
``spawn`` child per path; then, for each of the path's links in sorted
order, one uniform per sample for the stage (the number of normalised-CDF
entries at or below it, what ``Generator.choice`` draws), then one standard
exponential per sample, multiplied by ``1 / rate`` of its stage.  A signed
mixture takes one uniform per sample and inverts the CDF instead.  The
path's delay is the running sum of its links' draws, starting from the
first link's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import GhMix, RoutingMatrix, is_one_identifiable

__all__ = ["SampleSet", "sample_mix", "sample_paths"]

_INV_CDF_TOL = 1e-12


@dataclass(frozen=True)
class SampleSet:
    """Per-path IID end-to-end delay samples plus the master seed used.

    Every path needs at least one sample, and all finite and nonnegative,
    or ``ValueError`` names the first bad path."""

    samples: tuple[np.ndarray, ...]
    seed: int

    def __post_init__(self):
        for i, y in enumerate(self.samples):
            if y.size == 0:
                raise ValueError(f"path {i} has no samples")
            lo, hi = y.min(), y.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"path {i} has non-finite samples")
            if lo < 0:
                raise ValueError(f"path {i} has negative samples")
            y.setflags(write=False)

    @property
    def n_paths(self) -> int:
        return len(self.samples)

    def counts(self) -> tuple[int, ...]:
        return tuple(y.size for y in self.samples)


def sample_mix(mix: GhMix, rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Draw ``size`` IID delays from a mixture.

    Proper mixtures (nonnegative weights) use stage selection followed by an
    exponential draw.  Signed mixtures fall back to bisection inverse-CDF,
    since no universal rejection envelope exists for signed mixtures.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if mix.is_proper_mixture():
        # Generator.choice(p=weights) draws the stage as the number of
        # normalised-CDF entries at or below one uniform; the last entry is
        # 1.0 and never counts.  The count goes into the smallest unsigned
        # type that holds the last stage, one byte up to 256 stages, and the
        # uniforms are freed before the exponentials are drawn, to lower the
        # peak memory.
        cdf = np.cumsum(mix.weights)
        cdf /= cdf[-1]
        u = rng.random(size)
        stage = np.zeros(size, dtype=np.min_scalar_type(mix.n_stages - 1))
        for c in cdf[:-1]:
            stage += u >= c
        del u
        draws = rng.standard_exponential(size)
        draws *= (1.0 / np.asarray(mix.rates))[stage]
        return draws
    u = rng.random(size)
    return _inverse_cdf(mix, u)


def _inverse_cdf(mix: GhMix, u: np.ndarray) -> np.ndarray:
    """Vectorized bisection solve of gh_cdf(x) = u."""
    rates = np.asarray(mix.rates)
    weights = np.asarray(mix.weights)

    def cdf(x):
        return (1.0 - np.exp(-np.outer(x, rates))) @ weights

    hi = np.full_like(u, 1.0 / rates.min())
    # Grow the bracket until the CDF exceeds every target quantile.
    short = cdf(hi) < u
    while np.any(short):
        hi = np.where(short, hi * 2.0, hi)
        short = cdf(hi) < u
    lo = np.zeros_like(u)
    # Past delays of about 4,500 one float spacing exceeds the tolerance, so
    # a bracket can stick at one ulp wider than it: stop once a step would
    # move no bracket that is still too wide.  Until then every bracket is
    # bisected, the same steps a loop on width alone takes when it ends.
    while True:
        wide = hi - lo > _INV_CDF_TOL
        if not np.any(wide):
            break
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < u
        if not np.any(wide & np.where(below, mid != lo, mid != hi)):
            break
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def sample_paths(
    a: RoutingMatrix, mixes: list[GhMix], n_samples: int, seed: int
) -> SampleSet:
    """Generate ``n_samples`` IID end-to-end delays for every path of ``a``.

    Every path uses fresh link draws: sample l of path i is the sum of
    independent draws of the link delays on that path, never reusing draws
    from another path.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if len(mixes) != a.n_links:
        raise ValueError(
            f"got {len(mixes)} link distributions for {a.n_links} links"
        )
    if not is_one_identifiable(a):
        warnings.warn("routing matrix is not 1-identifiable; links may be "
                      "indistinguishable from path data", stacklevel=2)
    streams = np.random.SeedSequence(seed).spawn(a.n_paths)
    per_path = []
    for i in range(a.n_paths):
        rng = np.random.default_rng(streams[i])
        first, *rest = sorted(a.path_links(i))
        total = sample_mix(mixes[first], rng, n_samples)
        for j in rest:
            total += sample_mix(mixes[j], rng, n_samples)
        per_path.append(total)
    return SampleSet(samples=tuple(per_path), seed=seed)
