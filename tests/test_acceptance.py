"""End-to-end acceptance gate.

Each test exercises one headline requirement at its stated tolerance and
prints a single ``ACCEPTANCE n: PASS/FAIL`` line.  The statistical
replication tests (3-5) run 20 fixed seeds each; the whole file takes
15-17 s on a 2-core VM.
"""

import math
import time

import numpy as np
import pytest

from disttomo import pipeline
from disttomo.epsbuild import (
    build_eps,
    build_t_tau,
    canonical_poly_value,
    enumerate_compositions,
    expand_lambda_power,
    lambda_basis,
)
from disttomo.experiments import EXPERIMENTS, run_experiment
from disttomo.expmeans import build_mean_system
from disttomo.mgfest import (
    assemble_constants,
    per_point_tolerance,
    required_samples,
)
from disttomo.model import GhMix, RoutingMatrix, gh_mgf
from disttomo.polysolve import reduce_first_components, solve_system
from disttomo.simulate import sample_mix, sample_paths

SEEDS = range(20)


def _report(n: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {n}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _exact_rhs(weights_per_link, tau, rates):
    """Exact right-hand side u, from T_tau u = c, of one path crossing the
    given links."""
    n_i = len(weights_per_link)
    d = len(rates) - 1
    mixes = [GhMix(rates, w) for w in weights_per_link]
    last = rates[-1]
    c = [
        math.prod(gh_mgf(m, t) for m in mixes) * (last + t) ** n_i - last ** n_i
        for t in tau
    ]
    return np.linalg.solve(build_t_tau(tau, n_i, d, rates), c)


def _random_instance(rng, max_n=4, max_d=3):
    n_i = int(rng.integers(1, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    lambdas = np.sort(rng.uniform(0.3, 9.0, d + 1))[::-1]
    while np.min(np.abs(np.diff(lambdas))) < 1e-2:
        lambdas = np.sort(rng.uniform(0.3, 9.0, d + 1))[::-1]
    return n_i, d, tuple(float(v) for v in lambdas)


def test_acceptance_1_ideal_case_exactness():
    setup = EXPERIMENTS["expt1"]
    start = time.perf_counter()
    result, _ = pipeline.estimate_gh(
        setup.matrix,
        setup.rates,
        exact_mixes=setup.mixes(),
        ground_truth=setup.truth,
    )
    elapsed = time.perf_counter() - start
    max_dev = float(np.abs(result.weights - setup.truth).max())
    ok = max_dev <= 1e-6 and elapsed < 10.0
    _report(1, ok, f"max weight deviation {max_dev:.2e}, {elapsed:.1f}s")


def test_acceptance_2_benchmark_solution_table():
    # Two-link path, rates (5, 3, 1), exact right-hand side at the published
    # probe points: the reduced solution set has exactly these six members.
    tau = (1.9857, 2.3782, 0.3581, 8.8619)
    expected = np.array(
        [
            (0.1300, 0.4700),
            (0.1700, 0.8000),
            (3.8304, -2.8410),
            (0.1933, 0.7768),
            (0.1143, 0.4840),
            (0.0058, -0.1323),
        ]
    )
    start = time.perf_counter()
    rates = (5.0, 3.0, 1.0)
    rhs = _exact_rhs([(0.17, 0.80, 0.03), (0.13, 0.47, 0.40)], tau, rates)
    sol = solve_system(rhs, 2, rates)
    reduced = reduce_first_components(sol.roots, d=2)
    elapsed = time.perf_counter() - start
    ok = len(reduced) == 6 and elapsed < 5.0
    worst = np.inf
    if ok:
        worst = max(
            min(np.abs(np.asarray(r) - e).max() for r in reduced)
            for e in expected
        )
        ok = worst <= 5e-4
    _report(2, ok, f"{len(reduced)} reduced solutions, worst match {worst:.1e}, {elapsed:.1f}s")


def _replication(name, elementwise=True):
    norms, hits, worst_seed_time = [], 0, 0.0
    for seed in SEEDS:
        start = time.perf_counter()
        rep = run_experiment(name, seed=seed)
        worst_seed_time = max(worst_seed_time, time.perf_counter() - start)
        norms.append(rep["error_norm"])
        dev = np.abs(np.asarray(rep["estimated"]) - np.asarray(rep["actual"]))
        hits += bool(dev.max() <= 0.06)
    return float(np.median(norms)), hits, worst_seed_time


def test_acceptance_3_tree_topology_replication():
    median, hits, worst_time = _replication("expt1")
    ok = median <= 0.10 and hits >= 16 and worst_time < 120.0
    _report(
        3,
        ok,
        f"median error norm {median:.4f}, elementwise<=0.06 in {hits}/20 seeds, "
        f"slowest seed {worst_time:.0f}s",
    )


def test_acceptance_4_general_topology_replication():
    median, hits, worst_time = _replication("expt3")
    ok = median <= 0.12 and hits >= 16 and worst_time < 120.0
    _report(
        4,
        ok,
        f"median error norm {median:.4f}, elementwise<=0.06 in {hits}/20 seeds, "
        f"slowest seed {worst_time:.0f}s",
    )


def test_acceptance_5_near_degenerate_rates_replication():
    norms = [run_experiment("expt2", seed=s)["error_norm"] for s in SEEDS]
    median = float(np.median(norms))
    ok = median <= 0.35
    _report(5, ok, f"median error norm {median:.4f}")


def test_acceptance_6_expansion_identity_suite():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n_i, d, lambdas = _random_instance(rng)
        comps = [c for c in enumerate_compositions(d + 1, n_i) if c.support()]
        comp = comps[rng.integers(len(comps))]
        terms = expand_lambda_power(comp, n_i, lambdas)
        last = lambdas[-1]
        for t in rng.uniform(0.05, 10.0, 20):
            lhs = math.prod(
                lambda_basis(k, t, lambdas) ** comp.parts[k - 1]
                for k in range(1, d + 1)
            ) * last ** comp.parts[-1]
            rhs = sum(
                c * lambda_basis(k, t, lambdas) ** q * last ** (n_i - q)
                for k, q, c in terms
            )
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    _report(6, worst < 1e-9, f"worst relative error {worst:.1e}")


def test_acceptance_7_representation_equivalence_suite():
    rng = np.random.default_rng(777)
    checked, worst = 0, 0.0
    while checked < 100:
        n_i, d, lambdas = _random_instance(rng, max_n=3, max_d=2)
        polys = build_eps(n_i, d, lambdas)
        tau = tuple(np.exp(rng.uniform(np.log(0.05), np.log(8.0), d * n_i)))
        if len(set(tau)) != len(tau):
            continue
        t_mat = build_t_tau(tau, n_i, d, lambdas, cond_limit=np.inf)
        assert np.isfinite(np.linalg.cond(t_mat))  # invertibility
        if np.linalg.cond(t_mat) > 1e12:
            continue  # equivalence check needs numerical headroom
        x = rng.normal(0.0, 1.0, d * n_i)
        e_val = np.array([p(x).real for p in polys])
        lifted = t_mat @ e_val + lambdas[-1] ** n_i
        for row, t in enumerate(tau):
            direct = canonical_poly_value(x, t, n_i, d, lambdas, 0.0).real
            worst = max(
                worst, abs(lifted[row] - direct) / max(1.0, abs(direct))
            )
        checked += 1
    _report(7, worst < 1e-9, f"worst relative error {worst:.1e}")


def test_acceptance_8_symmetry_and_root_structure():
    rng = np.random.default_rng(4242)
    sym_worst = 0.0
    counts_ok = True
    for _ in range(50):
        n_i = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        lambdas = tuple(np.sort(rng.uniform(0.5, 8.0, d + 1))[::-1])
        polys = build_eps(n_i, d, lambdas)
        for _ in range(3):
            x = rng.normal(size=d * n_i)
            perm = rng.permutation(n_i)
            x_sigma = np.concatenate([x[d * j: d * (j + 1)] for j in perm])
            sym_worst = max(
                sym_worst, max(abs(p(x) - p(x_sigma)) for p in polys)
            )
        weights = rng.dirichlet(np.ones(d + 1), size=n_i)
        while True:
            try:
                rhs = _exact_rhs(
                    [tuple(w) for w in weights],
                    tuple(np.exp(rng.uniform(np.log(0.1), np.log(5.0), d * n_i))),
                    lambdas,
                )
                break
            except np.linalg.LinAlgError:
                continue  # ill-conditioned probe draw; redraw tau
        sol = solve_system(rhs, n_i, lambdas)
        counts_ok = counts_ok and sol.n_roots % math.factorial(n_i) == 0
    ok = sym_worst < 1e-12 and counts_ok
    _report(
        8,
        ok,
        f"worst symmetry defect {sym_worst:.1e}, "
        f"root counts multiple of N_i!: {counts_ok}",
    )


def test_acceptance_9_exponential_means_variant():
    rng = np.random.default_rng(909)
    # Exact-MGF recovery of random distinct means.
    exact_worst = 0.0
    for _ in range(20):
        n_i = int(rng.integers(1, 5))
        truth = np.sort(rng.uniform(0.2, 5.0, n_i))
        while n_i > 1 and np.min(np.diff(truth)) < 0.05:
            truth = np.sort(rng.uniform(0.2, 5.0, n_i))
        tau = tuple(np.geomspace(0.1, 2.0, n_i) * rng.uniform(0.8, 1.2))
        system = build_mean_system(
            tau, n_i,
            exact_mgf=lambda t: math.prod(1.0 / (1.0 + t * m) for m in truth),
        )
        roots = solve_system(system, n_i, (2.0, 1.0)).real_roots(1e-6)
        means = np.sort(roots[0])
        exact_worst = max(exact_worst, float(np.abs(means - truth).max()))
        assert len(roots) == math.factorial(n_i)
    # Sampled mode on the two-path tree with means (1, 2, 3).
    a = RoutingMatrix(((1, 1, 0), (1, 0, 1)))
    truth3 = np.array([1.0, 2.0, 3.0])
    mixes = [GhMix((1.0 / m,), (1.0,)) for m in truth3]
    ss = sample_paths(a, mixes, 10**6, seed=0)
    means3, _, _ = pipeline.estimate_exp(a, samples=ss.samples)
    sampled_rel = float(np.abs(means3 / truth3 - 1.0).max())
    # Multivariate-vs-Vieta equivalence.
    from itertools import permutations

    equivalent = True
    for _ in range(20):
        n_i = int(rng.integers(2, 4))
        truth = np.sort(rng.uniform(0.3, 4.0, n_i))
        while np.min(np.diff(truth)) < 0.1:
            truth = np.sort(rng.uniform(0.3, 4.0, n_i))
        tau = tuple(np.geomspace(0.15, 1.5, n_i) * rng.uniform(0.9, 1.1))
        system = build_mean_system(
            tau, n_i,
            exact_mgf=lambda t: math.prod(1.0 / (1.0 + t * m) for m in truth),
        )
        # the ESPs as the right-hand side of a d = 1 path: no stage
        # relation, so the two rates do not enter
        sol = solve_system(system, n_i, (2.0, 1.0))
        roots = sorted(tuple(np.round(r.real, 7)) for r in sol.roots)
        expected = sorted(set(tuple(np.round(p, 7)) for p in permutations(truth)))
        equivalent = equivalent and roots == expected
    ok = exact_worst <= 1e-9 and sampled_rel <= 0.02 and equivalent
    _report(
        9,
        ok,
        f"exact worst {exact_worst:.1e}, sampled rel error {sampled_rel:.4f}, "
        f"solution-set equivalence: {equivalent}",
    )


def test_acceptance_10_sample_size_calculator():
    # The calculator inverts the union-bounded concentration inequality
    # exactly over a grid.
    inverted = True
    for eps in (0.02, 0.05, 0.1, 0.2, 0.3):
        for kappa in (0.01, 0.05, 0.1, 0.2):
            for points in (1, 2, 4, 8):
                n = required_samples(eps, kappa, points)
                inverted = inverted and points * math.exp(-2 * eps * eps * n) <= kappa
                if n > 1:
                    inverted = (
                        inverted
                        and points * math.exp(-2 * eps * eps * (n - 1)) > kappa
                    )
    # A single-link instance run at the computed sample size meets the
    # guaranteed right-hand-side tolerance in at least 95 of 100 trials.
    rates = (2.0, 1.0)
    mix = GhMix(rates, (0.7, 0.3))
    tau = (0.8,)
    t_mat = build_t_tau(tau, 1, 1, rates)
    target = 0.05
    tol = per_point_tolerance(target, t_mat, tau, 1, rates)
    n = required_samples(tol, 0.05, points=1)
    exact = assemble_constants(None, tau, 1, rates, exact_mgf=lambda t: gh_mgf(mix, t))
    u_exact = np.linalg.solve(t_mat, np.asarray(exact.c_hat))
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        samples = sample_mix(mix, rng, n)
        probe = assemble_constants(samples, tau, 1, rates)
        u_hat = np.linalg.solve(t_mat, np.asarray(probe.c_hat))
        hits += bool(np.linalg.norm(u_hat - u_exact) <= target)
    ok = inverted and hits >= 95
    _report(
        10,
        ok,
        f"bound inversion exact: {inverted}, tolerance met in {hits}/100 "
        f"trials at L={n}",
    )
