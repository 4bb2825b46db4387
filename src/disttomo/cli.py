"""Command-line entry point: topology checks, simulation, estimation and
benchmark replication.

Exit codes: 0 on success, 2 on input/validation failures, 3 on pipeline or
matching failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import experiments, pipeline
from .model import GhMix, RoutingMatrix, identifiability_defects
from .simulate import sample_paths

__all__ = ["main", "cmd_check", "cmd_simulate", "cmd_estimate", "cmd_experiment"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PIPELINE = 3


class ValidationError(ValueError):
    """Bad input files or arguments; maps to exit code 2."""


def _load_topology(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read topology file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"topology file {path} is not valid JSON (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"topology file {path} must hold an object, not {json.dumps(raw)}")
    if "matrix" not in raw:
        raise ValidationError(f"topology file {path} lacks the 'matrix' field")
    try:
        raw["routing"] = RoutingMatrix.from_array(raw["matrix"])
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"invalid routing matrix in {path}: {exc}") from exc
    return raw


def _numbers(value, field: str) -> list[float]:
    """A topology field that must be a list of JSON numbers, as floats."""
    if isinstance(value, list) and all(isinstance(v, (int, float)) for v in value):
        return [float(v) for v in value]
    raise ValidationError(f"{field} must be a list of numbers, got {json.dumps(value)}")


def _ground_truth_mixes(topo: dict) -> list[GhMix]:
    if "rates" not in topo or "links" not in topo:
        raise ValidationError(
            "topology file needs 'rates' and 'links' (per-link weight arrays)"
        )
    rates = tuple(_numbers(topo["rates"], "'rates'"))
    a = topo["routing"]
    links = topo["links"]
    if not isinstance(links, list) or len(links) != a.n_links:
        raise ValidationError(
            f"'links' must list {a.n_links} weight vectors, one per link, got {json.dumps(links)}"
        )
    rows = [tuple(_numbers(row, f"'links' row {j}")) for j, row in enumerate(links)]
    try:
        return [GhMix(rates, row) for row in rows]
    except ValueError as exc:
        raise ValidationError(f"invalid link distribution: {exc}") from exc


def _ground_truth_means(topo: dict) -> list[float]:
    if "means" not in topo:
        raise ValidationError(
            "topology file needs 'means' (per-link exponential means) for --model exp"
        )
    a = topo["routing"]
    means = _numbers(topo["means"], "'means'")
    if len(means) != a.n_links:
        raise ValidationError(
            f"'means' lists {len(means)} values for {a.n_links} links"
        )
    for j, m in enumerate(means):
        if not 0.0 < m < math.inf:
            raise ValidationError(f"link {j} has mean {m}; need finite and > 0")
    return means


_CSV_CHUNK = 1 << 14  # rows formatted by one ``%``


def _write_csv(path: Path, samples) -> None:
    """Write the samples file: a header, then one row per sample, grouped by
    path in sample order, with CRLF line ends and ``%.17g`` values that read
    back to the same float."""
    with open(path, "w", newline="") as fh:
        fh.write("path_id,sample_index,value\r\n")
        for path_id, values in enumerate(samples):
            row = f"{path_id},%d,%.17g\r\n"
            for start in range(0, len(values), _CSV_CHUNK):
                chunk = values[start:start + _CSV_CHUNK].tolist()
                fields = [None] * (2 * len(chunk))
                fields[0::2] = range(start, start + len(chunk))
                fields[1::2] = chunk
                fh.write(row * len(chunk) % tuple(fields))


def _bad_row(path: str) -> ValidationError | None:
    """The first data line that is not three numbers with a whole path id.

    Runs only after the vectorised read failed, to name the file line.
    """
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(",")
            if line_no == 1 or fields == [""]:
                continue
            try:
                if len(fields) != 3:
                    raise ValueError(f"expected 3 fields, got {len(fields)}")
                path_id, _, _ = (float(f) for f in fields)
                if not path_id.is_integer():
                    raise ValueError(f"path id {fields[0]!r} is not a whole number")
            except ValueError as exc:
                return ValidationError(
                    f"samples file {path}, line {line_no}: bad row ({exc})"
                )
    return None


def _read_csv(path: str, n_paths: int):
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
        if header != "path_id,sample_index,value":
            raise ValidationError(
                f"samples file {path} must have header path_id,sample_index,value"
            )
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(
                    path, delimiter=",", skiprows=1, ndmin=2, comments=None
                )
            if data.size and data.shape[1] != 3:
                raise ValueError(f"{data.shape[1]} columns")
            path_ids = data[:, 0]
            if not (np.isfinite(path_ids) & (path_ids == np.round(path_ids))).all():
                raise ValueError("a path id is not a whole number")
        except ValueError as exc:
            raise _bad_row(path) or ValidationError(
                f"samples file {path}: bad row ({exc})"
            ) from exc
    except OSError as exc:
        raise ValidationError(f"cannot read samples file {path}: {exc}") from exc
    ids = set(np.unique(path_ids).astype(int).tolist())
    missing = [i for i in range(n_paths) if i not in ids]
    if missing:
        raise ValidationError(
            f"samples file {path} covers no samples for path(s) {missing}"
        )
    unknown = sorted(ids - set(range(n_paths)))
    if unknown:
        raise ValidationError(
            f"samples file {path} has path id(s) {unknown} outside 0..{n_paths - 1}"
        )
    return [data[path_ids == i, 2] for i in range(n_paths)]


def _parse_tau(text: str | None, a: RoutingMatrix, d: int):
    """A comma list is applied to every path; 'auto' (default) selects per path."""
    if text is None or text == "auto":
        return None
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"--tau must be 'auto' or a comma list: {exc}") from exc
    if not all(np.isfinite(values)):
        raise ValidationError(f"--tau must be finite, got {text}")
    tau = {}
    for i in range(a.n_paths):
        need = d * len(a.path_links(i))
        if len(values) != need:
            raise ValidationError(
                f"--tau lists {len(values)} probe points but path {i} needs {need}"
            )
        tau[i] = values
    return tau


def _parse_delta(text: str | None):
    if text is None or text == "auto":
        return None
    try:
        delta = float(text)
    except ValueError as exc:
        raise ValidationError(f"--delta must be 'auto' or a real: {exc}") from exc
    if not np.isfinite(delta):
        raise ValidationError(f"--delta must be finite, got {text}")
    if delta <= 0:
        raise ValidationError("--delta must be positive")
    return delta


def cmd_check(args) -> int:
    topo = _load_topology(args.topology)
    a = topo["routing"]
    sets = a.sets
    reasons = identifiability_defects(a)
    if reasons:
        print(f"1-identifiable: no ({'; '.join(reasons)})")
    else:
        print("1-identifiable: yes")
    shared = "{" + ",".join(str(j + 1) for j in sorted(sets.shared)) + "}"
    print(f"S={shared}")
    for j in range(a.n_links):
        paths = "{" + ",".join(str(i + 1) for i in sorted(sets.link_paths[j])) + "}"
        print(f"link {j + 1}: G={paths}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    topo = _load_topology(args.topology)
    a = topo["routing"]
    if args.L < 1:
        raise ValidationError("--L must be >= 1")
    if args.model == "gh":
        mixes = _ground_truth_mixes(topo)
    else:
        mixes = [GhMix((1.0 / m,), (1.0,)) for m in _ground_truth_means(topo)]
    sample_set = sample_paths(a, mixes, args.L, seed=args.seed)
    out = Path(args.out or "samples.csv")
    _write_csv(out, sample_set.samples)
    manifest = {
        "topology": str(args.topology),
        "model": args.model,
        "L": args.L,
        "seed": args.seed,
        "paths": a.n_paths,
        "links": a.n_links,
        "samples_file": str(out),
    }
    manifest_path = out.with_suffix(out.suffix + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {out} ({a.n_paths} paths x {args.L} samples) and {manifest_path}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    topo = _load_topology(args.topology)
    a = topo["routing"]
    gh = args.model == "gh"
    if gh and "rates" not in topo:
        raise ValidationError("topology file needs 'rates' for --model gh")
    exact = bool(args.exact_mgf)
    samples = None
    if not exact:
        if not args.samples:
            raise ValidationError("--samples is required unless --exact-mgf is set")
        samples = _read_csv(args.samples, a.n_paths)
    rates = tuple(_numbers(topo["rates"], "'rates'")) if gh else None
    opts = pipeline.EstimateOptions(
        tau=_parse_tau(args.tau, a, len(rates) - 1 if gh else 1),
        tau_seed=args.seed,
        solver_seed=args.seed,
        delta=_parse_delta(args.delta),
    )
    if gh:
        truth = None
        exact_mixes = None
        if "links" in topo:
            exact_mixes = _ground_truth_mixes(topo)
            truth = np.array([m.weights for m in exact_mixes])
        if exact and exact_mixes is None:
            raise ValidationError("--exact-mgf needs ground-truth 'links' in the topology")
        result, diags = pipeline.estimate_gh(
            a,
            rates,
            samples=samples,
            exact_mixes=exact_mixes if exact else None,
            options=opts,
            ground_truth=truth,
        )
        estimates = [{"weights": w.tolist()} for w in result.weights]
    else:
        truth_means = _ground_truth_means(topo) if "means" in topo else None
        if exact and truth_means is None:
            raise ValidationError("--exact-mgf needs ground-truth 'means' in the topology")
        means, result, diags = pipeline.estimate_exp(
            a,
            samples=samples,
            exact_means=truth_means if exact else None,
            options=opts,
            ground_truth=truth_means,
        )
        estimates = [{"mean": float(m)} for m in means]
    report = {
        "model": args.model,
        "seed": args.seed,
        "delta": result.delta,
        "tau": {str(dg.path_id): list(dg.tau) for dg in diags},
        "links": [
            {"link_id": j, **estimate, "provenance": result.provenance[j]}
            for j, estimate in enumerate(estimates)
        ],
        "L": None if exact else int(samples[0].size),
        "exact_mgf": exact,
    }
    if result.error_norm is not None:
        report["error_norm"] = result.error_norm
    text = json.dumps(report, indent=2, default=str, allow_nan=False) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_experiment(args) -> int:
    report = experiments.run_experiment(
        args.name, seed=args.seed, n_samples=args.L, exact=args.exact_mgf
    )
    actual = np.asarray(report["actual"])
    estimated = np.asarray(report["estimated"])
    stages = actual.shape[1]
    header = (
        "link | " + "  ".join(f"w{k + 1}" for k in range(stages))
        + " | " + "  ".join(f"w{k + 1}^" for k in range(stages))
    )
    print(header)
    for j in range(actual.shape[0]):
        left = "  ".join(f"{v:.2f}" for v in actual[j])
        right = "  ".join(f"{v:.2f}" for v in estimated[j])
        print(f"{j + 1:4d} | {left} | {right}")
    print(f"error norm: {report['error_norm']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disttomo",
        description="Per-link delay distribution estimation from path delay samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a topology and report identifiability")
    p_check.add_argument("--topology", required=True)
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("simulate", help="generate per-path delay samples")
    p_sim.add_argument("--topology", required=True)
    p_sim.add_argument("--model", choices=("gh", "exp"), default="gh")
    p_sim.add_argument("--L", type=int, default=10**6)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate per-link distributions")
    p_est.add_argument("--topology", required=True)
    p_est.add_argument(
        "--samples", default=None,
        help="CSV of path_id,sample_index,value rows; required unless --exact-mgf",
    )
    p_est.add_argument(
        "--model", choices=("gh", "exp"), default="gh",
        help="gh: per-link weights over the topology's 'rates'; exp: per-link "
             "exponential means (default: gh)",
    )
    p_est.add_argument(
        "--tau", default="auto",
        help="probe points of exp, or of gh with --exact-mgf: 'auto' (default) "
             "chooses each path's; a comma list is every path's, d per link "
             "(d = 1 for exp)",
    )
    p_est.add_argument(
        "--delta", default="auto",
        help="bound on the matched roots' disagreement, for exp or gh with "
             "--exact-mgf: 'auto' (default) reports the largest block-to-estimate "
             "distance; a positive real fails a run (exit 3) whose distance exceeds it",
    )
    p_est.add_argument(
        "--seed", type=int, default=0,
        help="seeds gh's probe-point draws and likelihood-fit starts (default: 0)",
    )
    p_est.add_argument(
        "--exact-mgf", action="store_true",
        help="use the topology's ground truth ('links' or 'means') as noise-free "
             "analytic MGFs instead of samples",
    )
    p_est.add_argument("--out", default=None)
    p_est.set_defaults(func=cmd_estimate)

    p_exp = sub.add_parser("experiment", help="replicate a bundled benchmark")
    p_exp.add_argument("name", choices=sorted(experiments.EXPERIMENTS))
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--L", type=int, default=10**6)
    p_exp.add_argument("--exact-mgf", action="store_true")
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
