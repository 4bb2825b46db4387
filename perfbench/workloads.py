"""The benchmark's workloads: how each makes its inputs, runs one estimate
and checks its output.

Each workload has a few fixed inputs, made once during set-up and held in
memory; a run estimates them in turn, round after round.  ``exact`` and
``sampled`` run the bundled experiments the way ``run_experiment(name,
seed)`` does, with ``tau_seed = solver_seed`` = the sample seed, on one
fixed seed per workload.  These inputs are the same in every run, whatever
``--seed``: the homotopy's cost depends on the seed and on the samples far
more than a median over the few estimates a run holds can absorb
(exact-mode estimates take 2-12 s by seed, sampled ones 3-23 s), so runs
drawing other seeds spread by 25-35% in ``estimate_s.p50``.  The seeds
chosen are among the cheapest of seeds 0-5 (``exact``) and 0-3
(``sampled``), so that each input is estimated several times in a run.
``cli_expmeans`` draws its samples from ``--seed``: parsing a CSV costs the
same whatever the values.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from disttomo import cli, experiments, pipeline, simulate

EXACT_TOL = 1e-6  # max elementwise deviation in exact mode (acceptance 1)
ELEMENTWISE_TOL = 0.06  # acceptance 3/4 criterion
ROW_SUM_TOL = 1e-9


@dataclass
class Outcome:
    ok: bool
    error_norm: float
    max_abs_err: float | None = None
    detail: str = ""


def _check_weights(setup, weights, exact: bool) -> Outcome:
    w = np.asarray(weights, dtype=float)
    shape = (setup.matrix.n_links, len(setup.effective_rates))
    if w.shape != shape:
        return Outcome(False, math.nan, None, f"weights shape {w.shape}, expected {shape}")
    if not np.all(np.isfinite(w)):
        return Outcome(False, math.nan, None, "non-finite weights")
    row_err = float(np.abs(w.sum(axis=1) - 1.0).max())
    if row_err > ROW_SUM_TOL:
        return Outcome(False, math.nan, None, f"weight rows sum to 1 only within {row_err:.3g}")
    err = setup.expand(w) - setup.truth
    max_abs = float(np.abs(err).max())
    out = Outcome(True, float(np.linalg.norm(err.ravel())), max_abs)
    if exact and max_abs > EXACT_TOL:
        out.ok, out.detail = False, f"exact-mode deviation {max_abs:.3g} > {EXACT_TOL}"
    return out


class Exact:
    """Noise-free analytic-MGF estimates; nearly all time is the homotopy."""

    name = "exact"
    experiments = ("expt1", "expt3")
    fixed_seed = 5

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.n_inputs = len(self.experiments)

    def label(self, key: int) -> tuple[str, int, int]:
        """(experiment, solver seed, sample seed) of an input."""
        return self.experiments[key], self.fixed_seed, self.fixed_seed

    def make_input(self, key: int):
        name, seed, _ = self.label(key)
        setup = experiments.get_setup(name)
        return setup, seed, setup.mixes()

    def estimate(self, inp):
        setup, seed, mixes = inp
        result, _ = pipeline.estimate_gh(
            setup.matrix,
            setup.effective_rates,
            exact_mixes=mixes,
            options=pipeline.EstimateOptions(tau_seed=seed, solver_seed=seed),
            ground_truth=setup.truth,
        )
        return result

    def check(self, inp, result) -> Outcome:
        return _check_weights(inp[0], result.weights, exact=True)


class Sampled(Exact):
    """The paper's replication mode on simulated samples, as
    ``run_experiment`` runs it: effective rates, dropped-stage truth."""

    name = "sampled"
    experiments = ("expt1", "expt2", "expt3")
    fixed_seed = 0

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        super().__init__(seed, workdir, smoke)
        self.n_samples = 20_000 if smoke else 10**6

    def make_input(self, key: int):
        name, solver_seed, data_seed = self.label(key)
        setup = experiments.get_setup(name)
        sample_set = simulate.sample_paths(
            setup.matrix, setup.mixes(), self.n_samples, seed=data_seed
        )
        truth = setup.truth
        if setup.dropped_stage is not None:
            truth = np.delete(truth, setup.dropped_stage, axis=1)
        return setup, solver_seed, sample_set.samples, truth

    def estimate(self, inp):
        setup, seed, samples, truth = inp
        result, _ = pipeline.estimate_gh(
            setup.matrix,
            setup.effective_rates,
            samples=samples,
            options=pipeline.EstimateOptions(tau_seed=seed, solver_seed=seed),
            ground_truth=truth,
        )
        return result

    def check(self, inp, result) -> Outcome:
        return _check_weights(inp[0], result.weights, exact=False)


class CliExpMeans(Exact):
    """Exponential-means estimates through the command line, from a CSV.

    One CSV, drawn with ``--seed``, is written during set-up and estimated
    again and again.  The exp model draws no random probe points, so the
    solver seed is the CLI default.  The clustering radius is passed
    explicitly: on this topology
    the automatic radius fails matching on most seeds (the closest
    cross-path pair sets the noise scale, and a second shared link's pair
    can sit far outside it), which is a defect of ``match.auto_delta``, not
    of what this workload measures.
    """

    name = "cli_expmeans"
    experiments = ("expmeans_topology",)
    fixed_seed = 0
    delta = "0.05"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        super().__init__(seed, workdir, smoke)
        self.n_inputs = 1
        self.workdir = workdir
        self.n_samples = 20_000 if smoke else 200_000
        self.topology = Path(__file__).resolve().parent / "expmeans_topology.json"
        self.truth = json.loads(self.topology.read_text())["means"]

    def label(self, key: int) -> tuple[str, int, int]:
        return self.experiments[0], self.fixed_seed, self.seed

    def _cli(self, command: str, *argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(
                [command, "--topology", str(self.topology), "--model", "exp", *argv]
            )

    def make_input(self, key: int):
        _, solver_seed, data_seed = self.label(key)
        csv = self.workdir / f"samples-{data_seed}.csv"
        rc = self._cli(
            "simulate", "--L", str(self.n_samples), "--seed", str(data_seed), "--out", str(csv)
        )
        if rc != 0:
            raise RuntimeError(f"disttomo simulate exited with {rc}")
        return csv, solver_seed

    def estimate(self, inp):
        csv, seed = inp
        report = self.workdir / "report.json"
        report.unlink(missing_ok=True)
        rc = self._cli("estimate", "--samples", str(csv), "--seed", str(seed),
                       "--delta", self.delta, "--out", str(report))
        return rc, report

    def check(self, inp, out) -> Outcome:
        rc, report = out
        if rc != 0:
            return Outcome(False, math.nan, None, f"disttomo estimate exited with {rc}")
        try:
            data = json.loads(report.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            return Outcome(False, math.nan, None, f"unreadable report: {exc}")
        means = [link.get("mean") for link in data.get("links", [])]
        if "error_norm" not in data or not math.isfinite(data["error_norm"]):
            return Outcome(False, math.nan, None, "report lacks a finite error_norm")
        if len(means) != len(self.truth) or not all(
            isinstance(m, float) and math.isfinite(m) for m in means
        ):
            return Outcome(False, math.nan, None, f"bad link means {means}")
        return Outcome(True, float(data["error_norm"]))


WORKLOADS = {cls.name: cls for cls in (Exact, Sampled, CliExpMeans)}
