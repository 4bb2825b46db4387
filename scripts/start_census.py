"""Restart census of the sampled likelihood fit.

    python scripts/start_census.py --experiments expt1 expt2 expt3 --seeds 0-19
    python scripts/start_census.py --experiments expt3 --seeds 1000-1039 1300-1399

For each bundled experiment and seed, this draws ``--L`` samples per path with
that seed and runs the shipped sampled estimate (``estimate_gh`` with
``solver_seed`` = the seed, as ``run_experiment`` does).  It records the
fit's batch of starts, then continues the same start sequence (the uniform
weights, then the Dirichlet draws of ``np.random.default_rng(seed)``) up to
``--starts`` starts, fitting the rest as one more batch with the fit's own
objective and optimizer; a start's fit does not depend on the other
starts of its batch.  Per run it prints the smallest K whose best-of-K is
within ``--tol`` nats of the best of all starts, the shipped fit's gap to
that best, how far the shipped weights lie from the best start's, and each
shipped start's iteration count: the batch runs as many iterations as its
slowest start.  The last line counts the runs on which the shipped start
count falls short.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from disttomo import experiments, pipeline  # noqa: E402
from disttomo.simulate import sample_paths  # noqa: E402


def census_run(name: str, seed: int, n_samples: int, n_starts: int, tol: float) -> dict:
    """Fit one sampled run from ``n_starts`` starts; see the module docstring."""
    setup = experiments.get_setup(name)
    a, rates = setup.matrix, setup.effective_rates
    n, d = a.n_links, len(rates) - 1
    samples = sample_paths(a, setup.mixes(), n_samples, seed=seed).samples

    shipped_trust_newton = pipeline._trust_newton
    calls = []

    def record(fun, x0):
        fit = shipped_trust_newton(fun, x0)
        calls.append((fun, np.array(x0), fit))
        return fit

    pipeline._trust_newton = record
    try:
        result, _ = pipeline.estimate_gh(
            a, rates, samples=samples,
            options=pipeline.EstimateOptions(tau_seed=seed, solver_seed=seed),
        )
    finally:
        pipeline._trust_newton = shipped_trust_newton

    if len(calls) != 1:
        raise RuntimeError(f"the shipped fit made {len(calls)} optimizer calls, not one batch")
    (fun, shipped_starts, shipped), = calls
    rng = np.random.default_rng(seed)
    starts = np.array([np.full(n * d, 1.0 / (d + 1))] + [
        rng.dirichlet(np.ones(d + 1), size=n)[:, :d].ravel() for _ in range(n_starts - 1)
    ])
    n_shipped = len(shipped_starts)
    if not np.array_equal(shipped_starts, starts[:n_shipped]):
        raise RuntimeError("the shipped fit's starts are not the census's first starts")
    fits = [shipped]
    if n_starts > n_shipped:
        fits.append(shipped_trust_newton(fun, starts[n_shipped:]))
    values = np.concatenate([fit.fun for fit in fits])
    xs = np.concatenate([fit.x for fit in fits])
    best = values.min()
    k_needed = int(np.argmax(np.minimum.accumulate(values) <= best + tol)) + 1
    best_free = xs[int(np.argmin(values))].reshape(n, d)
    best_weights = np.column_stack([best_free, 1.0 - best_free.sum(axis=1)])
    return {
        "experiment": name,
        "seed": seed,
        "shipped_starts": n_shipped,
        "k_needed": k_needed,
        "shipped_gap": float(values[:n_shipped].min() - best),
        "weight_change": float(np.abs(result.weights - best_weights).max()),
        "converged": sum(int(fit.success.sum()) for fit in fits),
        "starts": len(values),
        "nit": shipped.nit.tolist(),
    }


def _seeds(specs: list[str]) -> list[int]:
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--experiments", nargs="+", default=["expt1", "expt2", "expt3"],
                        choices=sorted(experiments.EXPERIMENTS))
    parser.add_argument("--seeds", nargs="+", default=["0-19"],
                        help="seeds or inclusive ranges, e.g. 0-19 1000-1039")
    parser.add_argument("--L", type=int, default=10**6, help="samples per path")
    parser.add_argument("--starts", type=int, default=17)
    parser.add_argument("--tol", type=float, default=1e-6, help="nats")
    args = parser.parse_args(argv)
    short = []
    print("experiment seed  K  shipped_gap  weight_change  converged  shipped nit (max/mean)")
    for name in args.experiments:
        for seed in _seeds(args.seeds):
            run = census_run(name, seed, args.L, args.starts, args.tol)
            print(f"{name:10s} {seed:4d} {run['k_needed']:2d}  {run['shipped_gap']:11.3g}"
                  f"  {run['weight_change']:13.3g}  {run['converged']:4d}/{run['starts']:<4d}"
                  f"  {' '.join(map(str, run['nit']))}"
                  f" ({max(run['nit'])}/{np.mean(run['nit']):.1f})",
                  flush=True)
            if run["k_needed"] > run["shipped_starts"]:
                short.append(f"{name}/{seed}")
    print(f"runs where the shipped starts miss the best of {args.starts} by more than "
          f"{args.tol:g} nats: {len(short)} {' '.join(short)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
