import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import disttomo
from disttomo import cli
from disttomo.model import GhMix, RoutingMatrix
from disttomo.simulate import sample_paths

EXPT1_TOPOLOGY = {
    "matrix": [[1, 1, 0], [1, 0, 1]],
    "rates": [5.0, 3.0, 1.0],
    "links": [
        [0.17, 0.80, 0.03],
        [0.13, 0.47, 0.40],
        [0.80, 0.15, 0.05],
    ],
}


def test_import_loads_no_scipy():
    # the runtime needs only numpy; scipy is a test dependency
    src = str(Path(disttomo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    code = (
        "import sys, disttomo.cli; print(disttomo.__file__); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == [disttomo.__file__, "[]"]


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _strict_json(text):
    """Parse as RFC 8259 does: no NaN or Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture
def topo_path(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(EXPT1_TOPOLOGY))
    return str(path)


@pytest.fixture
def exp_topo_path(tmp_path):
    path = tmp_path / "exp_topo.json"
    path.write_text(
        json.dumps({"matrix": [[1, 1, 0], [1, 0, 1]], "means": [1.0, 2.0, 3.0]})
    )
    return str(path)


class TestCheck:
    def test_identifiable_topology(self, topo_path, capsys):
        assert cli.main(["check", "--topology", topo_path]) == 0
        out = capsys.readouterr().out
        assert "1-identifiable: yes" in out
        assert "S={1}" in out
        assert "link 1: G={1,2}" in out
        assert "link 2: G={1}" in out
        assert "link 3: G={2}" in out

    def test_duplicate_columns_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": [[1, 1], [1, 1]]}))
        assert cli.main(["check", "--topology", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1-identifiable: no" in out
        assert "columns 1 and 2 are identical" in out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["check", "--topology", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_matrix_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nomatrix.json"
        path.write_text(json.dumps({"rates": [1.0]}))
        assert cli.main(["check", "--topology", str(path)]) == 2
        assert "matrix" in capsys.readouterr().err


class TestSimulate:
    def test_writes_csv_and_manifest(self, topo_path, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = [
            "simulate", "--topology", topo_path, "--L", "10",
            "--seed", "3", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "path_id,sample_index,value"
        assert len(lines) == 1 + 2 * 10
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["L"] == 10
        assert manifest["paths"] == 2

    def test_same_seed_identical_output(self, topo_path, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cli.main(
                ["simulate", "--topology", topo_path, "--L", "50",
                 "--seed", "7", "--out", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_rejects_nonpositive_length(self, topo_path, capsys):
        assert cli.main(["simulate", "--topology", topo_path, "--L", "0"]) == 2


class TestEstimate:
    def test_exact_mgf_recovers_truth(self, topo_path, tmp_path):
        out = tmp_path / "report.json"
        argv = [
            "estimate", "--topology", topo_path, "--exact-mgf",
            "--out", str(out),
        ]
        assert cli.main(argv) == 0
        report = json.loads(out.read_text())
        assert report["exact_mgf"] is True
        weights = np.array([link["weights"] for link in report["links"]])
        truth = np.array(EXPT1_TOPOLOGY["links"])
        assert np.abs(weights - truth).max() < 1e-6
        assert report["error_norm"] < 1e-6

    def test_exp_model_exact(self, exp_topo_path, tmp_path):
        out = tmp_path / "exp_report.json"
        argv = [
            "estimate", "--topology", exp_topo_path, "--model", "exp",
            "--exact-mgf", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        report = json.loads(out.read_text())
        means = [link["mean"] for link in report["links"]]
        np.testing.assert_allclose(means, [1.0, 2.0, 3.0], atol=1e-9)

    def test_missing_samples_flag_exits_2(self, topo_path, capsys):
        assert cli.main(["estimate", "--topology", topo_path]) == 2
        assert "--samples" in capsys.readouterr().err

    def test_samples_missing_path_exits_2(self, topo_path, tmp_path, capsys):
        samples = tmp_path / "partial.csv"
        samples.write_text(
            "path_id,sample_index,value\n0,0,1.5\n0,1,0.7\n"
        )
        argv = ["estimate", "--topology", topo_path, "--samples", str(samples)]
        assert cli.main(argv) == 2
        assert "path(s) [1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,0,1.5\n0,1\n", "line 3"),
            ("0,0,1.5\n1,0,nan\n", "path 1 has non-finite"),
            ("0,0,inf\n1,0,0.7\n", "path 0 has non-finite"),
            ("0,0,1.5\n1,0,-0.7\n", "path 1 has negative"),
            ("0,0,1.5\n1,0,0.7\n2,0,0.9\n", "path id(s) [2] outside 0..1"),
        ],
        ids=["truncated", "nan", "inf", "negative", "unknown_path"],
    )
    def test_bad_sample_rows_exit_2(self, topo_path, tmp_path, capsys, rows, message):
        samples = tmp_path / "bad.csv"
        samples.write_text("path_id,sample_index,value\n" + rows)
        argv = ["estimate", "--topology", topo_path, "--samples", str(samples)]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,0,1.5\n1,0,0.7\n0,1,abc\n", "line 4"),
            ("0,0,1.5\n0.5,0,0.7\n1,0,0.9\n", "line 3"),
        ],
        ids=["unparsable_value", "fractional_path_id"],
    )
    def test_bad_row_names_its_line(self, topo_path, tmp_path, capsys, rows, message):
        samples = tmp_path / "bad.csv"
        samples.write_text("path_id,sample_index,value\n" + rows)
        argv = ["estimate", "--topology", topo_path, "--samples", str(samples)]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err

    def test_empty_body_exits_2_without_warning(self, topo_path, tmp_path, capsys):
        samples = tmp_path / "empty.csv"
        samples.write_text("path_id,sample_index,value\n")
        argv = ["estimate", "--topology", topo_path, "--samples", str(samples)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 2
        assert "covers no samples for path(s) [0, 1]" in capsys.readouterr().err

    def test_read_csv_returns_simulated_samples(self, topo_path, tmp_path):
        samples = tmp_path / "s.csv"
        argv = ["simulate", "--topology", topo_path, "--L", "1000", "--seed", "3",
                "--out", str(samples)]
        assert cli.main(argv) == 0
        a = RoutingMatrix.from_array(EXPT1_TOPOLOGY["matrix"])
        mixes = [GhMix(EXPT1_TOPOLOGY["rates"], w) for w in EXPT1_TOPOLOGY["links"]]
        expected = sample_paths(a, mixes, 1000, seed=3).samples
        read = cli._read_csv(str(samples), a.n_paths)
        assert len(read) == len(expected)
        for got, want in zip(read, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_write_csv_bytes(self, tmp_path):
        # _read_csv and readers of earlier files expect \r\n line ends and 17 significant digits
        out = tmp_path / "w.csv"
        cli._write_csv(out, (np.array([0.1, 2.0]), np.array([1.0 / 3.0])))
        assert out.read_bytes() == (
            b"path_id,sample_index,value\r\n"
            b"0,0,0.10000000000000001\r\n0,1,2\r\n1,0,0.33333333333333331\r\n"
        )

    def test_bad_header_exits_2(self, topo_path, tmp_path, capsys):
        samples = tmp_path / "badhdr.csv"
        samples.write_text("pid,value\n0,1.5\n")
        argv = ["estimate", "--topology", topo_path, "--samples", str(samples)]
        assert cli.main(argv) == 2
        assert "header" in capsys.readouterr().err

    def test_bad_tau_count_exits_2(self, topo_path, tmp_path, capsys):
        samples = tmp_path / "s.csv"
        cli.main(
            ["simulate", "--topology", topo_path, "--L", "10", "--out", str(samples)]
        )
        argv = [
            "estimate", "--topology", topo_path, "--samples", str(samples),
            "--tau", "1.0,2.0",
        ]
        assert cli.main(argv) == 2
        assert "probe points" in capsys.readouterr().err

    # a gh path of the topology takes 4 probe points, an exp path 2
    @pytest.mark.parametrize("model, tau_tail", [("gh", ",1,2,3"), ("exp", ",1")])
    @pytest.mark.parametrize("option", ["--tau", "--delta"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_option_exits_2(
        self, topo_path, exp_topo_path, capsys, model, tau_tail, option, bad
    ):
        value = bad + tau_tail if option == "--tau" else bad
        topology = topo_path if model == "gh" else exp_topo_path
        argv = [
            "estimate", "--topology", topology, "--model", model, "--exact-mgf",
            option, value,
        ]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {option} must be finite, got {value}\n"

    @pytest.mark.parametrize(
        "option",
        [["--tau", "0.5,1.0,2.0,4.0"], ["--delta", "0.1"]],
        ids=["tau", "delta"],
    )
    def test_algebraic_options_on_samples_exit_2(self, topo_path, tmp_path, capsys, option):
        samples = tmp_path / "s.csv"
        cli.main(
            ["simulate", "--topology", topo_path, "--L", "10", "--out", str(samples)]
        )
        argv = ["estimate", "--topology", topo_path, "--samples", str(samples), *option]
        assert cli.main(argv) == 2
        assert "algebraic estimator only" in capsys.readouterr().err

    def test_simulate_estimate_roundtrip(self, topo_path, tmp_path):
        samples = tmp_path / "rt.csv"
        cli.main(
            ["simulate", "--topology", topo_path, "--L", "200000",
             "--seed", "0", "--out", str(samples)]
        )
        out = tmp_path / "rt.json"
        argv = [
            "estimate", "--topology", topo_path, "--samples", str(samples),
            "--seed", "0", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        report = _strict_json(out.read_text())
        assert report["L"] == 200000
        assert report["error_norm"] < 0.25
        assert report["delta"] is None  # the likelihood fit has no delta

    def test_exp_model_explicit_delta(self, tmp_path):
        topo = tmp_path / "exp4.json"
        topo.write_text(json.dumps({
            "matrix": [[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]],
            "means": [0.4, 1.0, 2.5, 4.0],
        }))
        samples = tmp_path / "exp4.csv"
        common = ["--topology", str(topo), "--model", "exp"]
        assert cli.main(
            ["simulate", *common, "--L", "20000", "--seed", "0", "--out", str(samples)]
        ) == 0
        out = tmp_path / "exp4_report.json"
        argv = [
            "estimate", *common, "--samples", str(samples),
            "--delta", "0.05", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        report = json.loads(out.read_text())
        assert report["delta"] == 0.05
        means = [link["mean"] for link in report["links"]]
        assert len(means) == 4 and np.isfinite(means).all()
        assert report["error_norm"] < 0.1


class TestExperiment:
    def test_exact_mode_table(self, capsys, tmp_path):
        out = tmp_path / "expt1.json"
        argv = ["experiment", "expt1", "--exact-mgf", "--out", str(out)]
        assert cli.main(argv) == 0
        text = capsys.readouterr().out
        assert "link |" in text
        assert "error norm: 0.0000" in text
        report = json.loads(out.read_text())
        assert report["experiment"] == "expt1"
        np.testing.assert_allclose(
            report["estimated"], report["actual"], atol=1e-6
        )

    def test_sampled_report_is_valid_json(self, tmp_path):
        out = tmp_path / "expt1_sampled.json"
        argv = ["experiment", "expt1", "--L", "20000", "--out", str(out)]
        assert cli.main(argv) == 0
        report = _strict_json(out.read_text())
        assert report["delta"] is None
        assert report["n_samples"] == 20000

    def test_unknown_name_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["experiment", "nosuch"])
