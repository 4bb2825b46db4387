"""Outside-in tracing of the disttomo layers.

Spans and counts are recorded around calls into each layer's public
functions by rebinding module attributes for the length of a traced pass;
no file of the package changes.  The package reaches its stages through
module attributes at call time (``pipeline`` calls
``polysolve.solve_system``, ``match.run_matching`` and
``mgfest.assemble_constants``; ``solve_system`` calls ``newton_refine``), so
a rebinding is seen by every caller that goes through the module.  A module
that imports a function by name holds its own binding, which is rebound
separately (``expmeans.empirical_mgf``, ``expmeans.run_matching``,
``cli.sample_paths``).

A wrapper whose target attribute no longer exists is skipped and its name
kept in ``Tracer.absent``; the layer then reads as never called.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

SETUP = "setup"  # estimate id of spans recorded while inputs are generated

# Per-layer metrics: name -> unit.  Times ending in ``.s`` or ``self_s`` are
# the median over estimates of the seconds spent in that layer during one
# estimate; counts are means per estimate; ``simulate.*`` is per generated
# input.  A layer a workload never calls reads 0.
LAYER_METRICS = {
    "simulate.sample_paths.s": "s",
    "simulate.samples": "count",
    "mgfest.choose_tau.s": "s",
    "mgfest.choose_tau.calls": "count",
    "mgfest.empirical_mgf.s": "s",
    "mgfest.empirical_mgf.calls": "count",
    "mgfest.bytes_scanned": "B",
    "epsbuild.s": "s",
    "epsbuild.build_eps.calls": "count",
    "polysolve.solve_system.s": "s",
    "polysolve.solve_system.calls": "count",
    "polysolve.paths_tracked": "count",
    "polysolve.endpoints": "count",
    "polysolve.path_failures": "count",
    "polysolve.roots": "count",
    "polysolve.root_yield": "ratio",
    "polysolve.newton_refine.s": "s",
    "polysolve.linear_solves": "count",
    "match.run_matching.s": "s",
    "match.run_matching.calls": "count",
    "match.failed": "count",
    "match.fallback_frac": "ratio",
    "pipeline.estimate.s": "s",
    "pipeline.self_s": "s",
    "pipeline.refine.s": "s",
    "pipeline.refine.starts": "count",
    "pipeline.refine.nfev": "count",
    "pipeline.polish.s": "s",
    "pipeline.polish.starts": "count",
    "pipeline.polish.iterations": "count",
    "pipeline.polish.nfev": "count",
    "pipeline.polish.converged_frac": "ratio",
    "expmeans.build_mean_system.s": "s",
    "expmeans.solve_means.s": "s",
    "expmeans.match_means.s": "s",
    "expmeans.flagged": "count",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.bytes_read": "B",
}

EPSBUILD_SPANS = ("epsbuild.build_eps", "epsbuild.build_t_tau", "epsbuild.assemble_system")


class Tracer:
    """In-memory spans and per-estimate counts, plus the attribute rebindings."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, estimate id]
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.absent: list[str] = []
        self.estimate = SETUP
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple] = []

    def count(self, name: str, n=1) -> None:
        self.counts[self.estimate][name] += n

    def wrap(self, module, attr: str, name: str, *, span=True, on_result=None, on_error=None):
        """Rebind ``module.attr`` to a wrapper that counts ``<name>.calls``
        and, with ``span``, records a span named ``name``."""
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.count(name + ".calls")
            if span:
                record = [name, 0.0, None, tracer._stack[-1] if tracer._stack else None,
                          tracer.estimate]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(record)
                tracer._open[name] += 1
                record[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                if span:
                    record[2] = time.perf_counter()
                    tracer._stack.pop()
                    tracer._open[name] -= 1
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def count_inside(self, module, attr: str, name: str, inside: str) -> None:
        """Count calls of ``module.attr`` made while a span ``inside`` is open."""
        original = getattr(module, attr)
        open_spans, counts = self._open, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if open_spans[inside]:
                counts[self.estimate][name] += 1
            return original(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def span_times(self) -> tuple[dict, dict]:
        """Per estimate: total and self seconds by span name."""
        total: dict = defaultdict(Counter)
        self_time: dict = defaultdict(Counter)
        child = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for index, (name, start, end, _, est) in enumerate(self.spans):
            total[est][name] += end - start
            self_time[est][name] += end - start - child[index]
        return total, self_time


def install(tracer: Tracer) -> None:
    """Rebind every traced entry point of the package."""
    from disttomo import cli, epsbuild, expmeans, match, mgfest, pipeline, polysolve, simulate

    t = tracer

    def drawn(args, sample_set):
        t.count("simulate.samples", sum(y.size for y in sample_set.samples))

    for module in (simulate, cli):
        t.wrap(module, "sample_paths", "simulate.sample_paths", on_result=drawn)

    t.wrap(mgfest, "choose_tau", "mgfest.choose_tau")

    def scanned(args, _):
        t.count("mgfest.bytes_scanned", 8 * np.size(args[0]))

    for module in (mgfest, expmeans):
        t.wrap(module, "empirical_mgf", "mgfest.empirical_mgf", on_result=scanned)

    for name in EPSBUILD_SPANS:
        t.wrap(epsbuild, name.split(".")[1], name)

    def solved(args, sol):
        t.count("polysolve.paths_tracked", sol.n_paths)
        t.count("polysolve.roots", sol.n_roots)
        t.count("polysolve.path_failures", sol.n_path_failures)

    t.wrap(polysolve, "solve_system", "polysolve.solve_system", on_result=solved)
    t.wrap(polysolve, "newton_refine", "polysolve.newton_refine")
    t.count_inside(np.linalg, "solve", "polysolve.linear_solves", inside="polysolve.solve_system")

    def ambiguous(exc):
        if isinstance(exc, match.AmbiguityError):
            t.count("match.failed")

    for module in (match, expmeans):
        t.wrap(module, "run_matching", "match.run_matching", on_error=ambiguous)

    for attr in ("estimate_gh", "estimate_exp"):
        t.wrap(pipeline, attr, "pipeline.estimate")
    t.wrap(pipeline, "_joint_refine", "pipeline.refine")
    t.wrap(pipeline, "_likelihood_polish", "pipeline.polish")

    def refine_fit(args, fit):
        t.count("pipeline.refine.nfev", fit.nfev)

    def polish_fit(args, fit):
        t.count("pipeline.polish.iterations", fit.nit)
        t.count("pipeline.polish.nfev", fit.nfev)
        t.count("pipeline.polish.converged", int(fit.success))

    t.wrap(pipeline, "least_squares", "pipeline.refine.least_squares", span=False,
           on_result=refine_fit)
    t.wrap(pipeline, "minimize", "pipeline.polish.minimize", span=False, on_result=polish_fit)

    def flagged(args, result):
        t.count("expmeans.flagged", int(result[1]))

    t.wrap(expmeans, "build_mean_system", "expmeans.build_mean_system")
    t.wrap(expmeans, "solve_means", "expmeans.solve_means", on_result=flagged)
    t.wrap(expmeans, "match_means", "expmeans.match_means")

    def read(args, _):
        t.count("cli.bytes_read", os.path.getsize(args[0]))

    t.wrap(cli, "main", "cli.main")
    t.wrap(cli, "_read_csv", "cli.read_csv", span=False, on_result=read)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, estimates: list[str]) -> dict[str, float]:
    """Every ``LAYER_METRICS`` value over the given estimate ids."""
    total, self_time = tracer.span_times()
    counts = [tracer.counts[e] for e in estimates]

    def seconds(*names):
        return statistics.median(sum(total[e][n] for n in names) for e in estimates)

    def per_estimate(name):
        return statistics.fmean(c[name] for c in counts)

    def summed(name):
        return sum(c[name] for c in counts)

    generations = [
        end - start for name, start, end, _, est in tracer.spans
        if est == SETUP and name == "simulate.sample_paths"
    ]
    setup = tracer.counts[SETUP]
    out = {
        "simulate.sample_paths.s": statistics.median(generations) if generations else 0.0,
        "simulate.samples": _ratio(setup["simulate.samples"], len(generations)),
        "epsbuild.s": seconds(*EPSBUILD_SPANS),
        "polysolve.endpoints": per_estimate("polysolve.newton_refine.calls"),
        "polysolve.root_yield": _ratio(summed("polysolve.roots"), summed("polysolve.paths_tracked")),
        "match.fallback_frac": _ratio(summed("match.failed"), summed("match.run_matching.calls")),
        "pipeline.self_s": statistics.median(self_time[e]["pipeline.estimate"] for e in estimates),
        "pipeline.refine.starts": per_estimate("pipeline.refine.least_squares.calls"),
        "pipeline.polish.starts": per_estimate("pipeline.polish.minimize.calls"),
        "pipeline.polish.converged_frac": _ratio(
            summed("pipeline.polish.converged"), summed("pipeline.polish.minimize.calls")
        ),
        "cli.self_s": statistics.median(self_time[e]["cli.main"] for e in estimates),
    }
    for name, unit in LAYER_METRICS.items():
        if name in out:
            continue
        if unit == "s":
            out[name] = seconds(name[: -len(".s")])
        else:
            out[name] = per_estimate(name)
    return out


def min_self_time(tracer: Tracer, estimates: list[str]) -> dict[str, float]:
    """Smallest self time of the pipeline and cli spans over the estimates."""
    _, self_time = tracer.span_times()
    return {
        name: min(self_time[e][name] for e in estimates)
        for name in ("pipeline.estimate", "cli.main")
    }
