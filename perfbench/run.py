"""disttomo benchmark: one workload, closed loop, one process, one thread.

    python3 perfbench/run.py --workload exact --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The run imports the package from ``src/`` of this checkout and generates the
workload's inputs from ``--seed``.  It then runs one estimate after another
for ``--seconds`` (and at least once through the workload's inputs),
checks every output and prints a report, ending with one JSON line.  With
``--trace 0`` that line holds the end-to-end metrics; with ``--trace 1``
the per-layer metrics of ``tracing.py``, a determinism check and the
tracing overhead, and the spans are written to ``.perfbench_out/``.
``--smoke`` runs every workload once, small, in both modes and checks that
every metric of ``BENCHMARK.json`` is emitted with its unit.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("exact", "sampled", "cli_expmeans")


def import_package() -> None:
    """Import disttomo (with numpy and scipy) from this checkout."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import disttomo
        import disttomo.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import disttomo from {src}: {exc}")
    if Path(disttomo.__file__).resolve().parent != src / "disttomo":
        sys.exit(f"perfbench: disttomo imported from {disttomo.__file__}, not {src}")


import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402


END_TO_END = {
    "setup_s": "s",
    "estimate_s.p50": "s",
    "estimate_cpu_s.p50": "s",
    "estimates_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics but not gated: they can read 0, and
# their run-to-run spread follows the sampling noise of the inputs.
QUALITY = {
    "error_norm.p50": "1",
    "elementwise_ok_frac": "ratio",
    "failed_frac": "ratio",
}


def import_seconds(repeats: int = 5) -> float:
    """Median wall time for a fresh interpreter to import disttomo."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import disttomo.cli"], env=env, check=True,
                       timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


@dataclass
class Record:
    estimate: str
    key: int  # which of the workload's inputs
    experiment: str
    solver_seed: int
    data_seed: int
    wall: float
    cpu: float
    outcome: object  # workloads.Outcome


class Runner:
    """Runs a workload's estimates, timing each and checking its output."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.generation_s: list[float] = []
        self._inputs: dict = {}

    def prepare(self) -> None:
        """Generate every input up front, timing each."""
        for key in range(self.workload.n_inputs):
            start = time.perf_counter()
            self._inputs[key] = self.workload.make_input(key)
            self.generation_s.append(time.perf_counter() - start)

    def one(self, key: int, label: str) -> Record:
        inp = self._inputs[key]
        if self.tracer is not None:
            self.tracer.estimate = label
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            out = self.workload.estimate(inp)
        except Exception as exc:  # one failed estimate must not end the run
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            traceback.print_exc()
            outcome = workloads.Outcome(False, math.nan, None, f"{type(exc).__name__}: {exc}")
        else:
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            outcome = self.workload.check(inp, out)
        finally:
            if self.tracer is not None:
                self.tracer.estimate = tracing.SETUP
        if not outcome.ok:
            print(f"perfbench: estimate {label} failed its check: {outcome.detail}",
                  file=sys.stderr)
        return Record(label, key, *self.workload.label(key), wall, cpu, outcome)

    def loop(self, prefix: str, seconds: float, whole_rounds: bool = False) -> list[Record]:
        """Closed loop over the inputs in turn, round after round, for at
        least one round.  After that an estimate (or with ``whole_rounds``
        a round) starts only if it should end within ``seconds``, going by
        the previous round's wall times, so a run ends close to
        ``seconds``."""
        n = self.workload.n_inputs
        start = time.perf_counter()
        records = []
        for k in itertools.count():
            if k >= n:
                ahead = records[k - n:] if whole_rounds else records[k - n:k - n + 1]
                if (not whole_rounds or k % n == 0) and (
                    time.perf_counter() - start + sum(r.wall for r in ahead) > seconds
                ):
                    break
            records.append(self.one(k % n, f"{prefix}{k}"))
        return records


def tail_percentile(values: list[float]):
    """Highest of a few percentiles with at least ten values beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - pct / 100.0) >= 10:
            return pct, statistics.quantiles(values, n=1000, method="inclusive")[
                round(pct * 10) - 1
            ]
    return None


def per_input(stat, records: list[Record], field: str) -> float:
    """``stat`` over each input's estimates, averaged over the inputs, so
    that a run's figure does not depend on which inputs its last, partial
    round reached.  With the median, a slow spell of the machine moves only
    the estimates it overlaps, and the figure never falls into the gap
    between a cheap and a dear input."""
    keys = sorted({r.key for r in records})
    return statistics.fmean(
        stat(getattr(r, field) for r in records if r.key == key) for key in keys
    )


def end_to_end(records: list[Record], import_s: float, generation_s: list[float]) -> dict:
    setup_s = import_s + statistics.median(generation_s)
    return {
        "setup_s": setup_s,
        "estimate_s.p50": per_input(statistics.median, records, "wall"),
        "estimate_cpu_s.p50": per_input(statistics.median, records, "cpu"),
        "estimates_per_s": 1.0 / per_input(statistics.fmean, records, "wall"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def quality(records: list[Record]) -> dict:
    ok = [r for r in records if r.outcome.ok]
    out = {
        "error_norm.p50": statistics.median(r.outcome.error_norm for r in ok) if ok else math.nan,
        "failed_frac": 1.0 - len(ok) / len(records),
    }
    if ok and ok[0].outcome.max_abs_err is not None:
        out["elementwise_ok_frac"] = sum(
            r.outcome.max_abs_err <= workloads.ELEMENTWISE_TOL for r in ok
        ) / len(records)
    return out


def print_report(name, seed, trace, env, records, metrics, units, notes):
    print(f"perfbench workload={name} seed={seed} trace={trace} "
          f"estimates={len(records)} failed={sum(not r.outcome.ok for r in records)}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for metric, value in metrics.items():
        print(f"  {metric} = {value:.6g} {units[metric]}")
    for note in notes:
        print(f"  {note}")
    print("  estimate wall s: " + " ".join(f"{r.experiment}/{r.solver_seed}={r.wall:.3f}"
                                           for r in records))
    for experiment in sorted({r.experiment for r in records}):
        rows = [r for r in records if r.experiment == experiment]
        errs = [r.outcome.error_norm for r in rows if r.outcome.ok]
        ok = [r.outcome.max_abs_err <= workloads.ELEMENTWISE_TOL for r in rows
              if r.outcome.ok and r.outcome.max_abs_err is not None]
        line = (f"  {experiment}: n={len(rows)} estimate_s.p50="
                f"{statistics.median(r.wall for r in rows):.4g} s")
        if errs:
            line += f" error_norm.p50={statistics.median(errs):.4g}"
        if ok:
            line += f" elementwise_ok={sum(ok)}/{len(rows)}"
        print(line)


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result line as a dict."""
    env = environment()
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](seed, workdir, smoke)
        if trace:
            return _traced(workload, seed, seconds, env)
        runner = Runner(workload)
        runner.prepare()
        records = runner.loop("", seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = end_to_end(records, import_seconds(), runner.generation_s)
    shown = dict(metrics, **quality(records))
    notes = []
    tail = tail_percentile([r.wall for r in records])
    if tail is None:
        notes.append(f"estimate_s tail: fewer than 20 estimates (n={len(records)})")
    else:
        notes.append(f"estimate_s.p{tail[0]:g} = {tail[1]:.6g} s (n={len(records)})")
    print_report(name, seed, 0, env, records, shown, {**END_TO_END, **QUALITY}, notes)
    failed = sum(not r.outcome.ok for r in records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "quality": shown,
    }


def _traced(workload, seed, seconds, env) -> dict:
    """Traced whole rounds for a third of the time, then each input once
    more traced (determinism: its counts must repeat the first round's
    exactly) and untraced (overhead: the median of traced minus untraced
    wall time of the same estimate)."""
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        runner = Runner(workload, tracer)
        runner.prepare()
        main = runner.loop("main:", seconds / 3.0, whole_rounds=True)
        repeat = [runner.one(k, f"repeat:{k}") for k in range(workload.n_inputs)]
    finally:
        tracer.restore()
    runner.tracer = None
    bare = [runner.one(k, f"bare:{k}") for k in range(workload.n_inputs)]
    records = main + repeat + bare

    mismatched = [
        k for k in range(workload.n_inputs)
        if tracer.counts[f"main:{k}"] != tracer.counts[f"repeat:{k}"]
    ]
    labels = [r.estimate for r in main]
    metrics = tracing.layer_metrics(tracer, labels)
    metrics["trace.overhead_s"] = statistics.median(
        traced.wall - untraced.wall for traced, untraced in zip(repeat, bare)
    )
    min_self = tracing.min_self_time(tracer, labels)
    units = dict(tracing.LAYER_METRICS, **{"trace.overhead_s": "s"})
    notes = [f"determinism: counts of the first {workload.n_inputs} estimate(s) "
             + ("repeat exactly" if not mismatched else f"DIFFER for estimates {mismatched}")]
    notes += [f"min self time {k} = {v:.6g} s" for k, v in min_self.items()]
    if tracer.absent:
        notes.append(f"absent (target attribute gone, reads 0): {', '.join(tracer.absent)}")
    print_report(workload.name, seed, 1, env, records, metrics, units, notes)

    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "env": env,
        "absent": tracer.absent,
        "determinism_mismatch": mismatched,
        "estimates": [
            {"id": r.estimate, "experiment": r.experiment,
             "solver_seed": r.solver_seed, "data_seed": r.data_seed,
             "wall_s": r.wall, "cpu_s": r.cpu, "ok": r.outcome.ok}
            for r in records
        ],
        "spans": tracer.spans,
        "counts": {est: dict(c) for est, c in tracer.counts.items()},
    }))
    failed = sum(not r.outcome.ok for r in records)
    return {
        "correct": failed == 0 and not mismatched and min(min_self.values()) >= 0.0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def smoke() -> int:
    """Every workload once, small, untraced and traced, against BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    # BENCHMARK.json gates a subset: ``exact`` is run by hand (see README.md).
    if not {w["name"] for w in bench["workloads"]} <= set(WORKLOAD_NAMES) == set(
        workloads.WORKLOADS
    ):
        problems.append("BENCHMARK.json names a workload perfbench lacks")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[key]}
        for name in WORKLOAD_NAMES:
            result = run(name, seed=0, seconds=0.0, trace=trace, smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != {expected}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: run not correct")
            wanted = set(QUALITY) - ({"elementwise_ok_frac"} if name == "cli_expmeans" else set())
            if not trace and set(result["quality"]) - set(END_TO_END) != wanted:
                problems.append(f"{name}: quality metrics {sorted(result['quality'])}")
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result.pop("quality", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
