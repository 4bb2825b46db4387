"""Restart census of the sampled likelihood fit.

    python scripts/start_census.py --experiments expt1 expt2 expt3 --seeds 0-19
    python scripts/start_census.py --experiments expt3 --seeds 1000-1039 1300-1399

For each bundled experiment and seed, this draws ``--L`` samples per path with
that seed and fits one batch of ``--starts`` starts, drawn by the fit's own
start rule (``pipeline._likelihood_starts`` seeded by the seed, as
``run_experiment`` seeds the fit), with the fit's own objective and
optimizer.  The batch's first ``pipeline._N_STARTS`` rows are the shipped
fit, since a start's fit does not depend on the other starts of its batch
(``tests/test_start_census.py`` pins this against ``estimate_gh``).  Per run
it prints the smallest K whose best-of-K is within ``--tol`` nats of the
best of all starts, the shipped fit's gap to that best, how far the shipped
weights lie from the best start's, and each shipped start's iteration
count: the batch runs as many iterations as its slowest start.  The last
two lines count the runs on which the shipped start count falls short, and
those on which the shipped fit's best start did not converge, where
``estimate_gh`` raises.
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
    if n_starts < pipeline._N_STARTS:
        raise ValueError(f"need at least the fit's {pipeline._N_STARTS} starts, got {n_starts}")
    setup = experiments.get_setup(name)
    a, rates = setup.matrix, setup.effective_rates
    n, d = a.n_links, len(rates) - 1
    samples = sample_paths(a, setup.mixes(), n_samples, seed=seed).samples
    fits = pipeline._trust_newton(
        pipeline._likelihood_objective(a, rates, samples),
        pipeline._likelihood_starts(n, d, seed, n_starts),
    )
    values = np.where(np.isnan(fits.fun), np.inf, fits.fun)
    n_shipped = pipeline._N_STARTS
    best = values.min()
    k_needed = int(np.argmax(np.minimum.accumulate(values) <= best + tol)) + 1
    shipped_best = np.argmin(values[:n_shipped])
    free = fits.x[[shipped_best, np.argmin(values)]].reshape(2, n, d)
    shipped_weights, best_weights = np.concatenate([free, 1.0 - free.sum(2, keepdims=True)], 2)
    return {
        "experiment": name,
        "seed": seed,
        "shipped_starts": n_shipped,
        "k_needed": k_needed,
        "shipped_gap": float(values[:n_shipped].min() - best),
        "weight_change": float(np.abs(shipped_weights - best_weights).max()),
        "converged": int(fits.success.sum()),
        "shipped_converged": bool(fits.success[shipped_best]),
        "starts": len(values),
        "nit": fits.nit[:n_shipped].tolist(),
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
    short, unconverged = [], []
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
            if not run["shipped_converged"]:
                unconverged.append(f"{name}/{seed}")
    print(f"runs where the shipped starts miss the best of {args.starts} by more than "
          f"{args.tol:g} nats: {len(short)} {' '.join(short)}")
    print(f"runs whose shipped best start did not converge: {len(unconverged)} "
          f"{' '.join(unconverged)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
