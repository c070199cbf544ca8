"""CLI contract: exit codes, artifacts, and byte-identical reports."""

import json

import numpy as np
import pytest

import treegibbs.gibbs
import treegibbs.solver
from treegibbs.cli import (
    EXIT_CERT_FAIL,
    EXIT_CONFIG,
    EXIT_MARGINAL_MISMATCH,
    EXIT_NO_CONVERGENCE,
    EXIT_NOT_CLUSTERED,
    EXIT_OK,
    main,
)

POLY_PASS = {"variant": "polynomial", "coeffs": [[1, 1, 0.1]], "a": 1.0}
POLY_FAIL = {"variant": "polynomial", "coeffs": [[1, 1, 5.0]], "a": 1.0}
CONSTANT = {"variant": "constant", "c": 2.0}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, command, cfg, out="out", extra=()):
    cfg_path = write_config(tmp_path, cfg)
    return main([command, "--config", cfg_path, "--out", str(tmp_path / out), *extra])


class TestCertify:
    def test_passing_kernel_exits_zero(self, tmp_path, capsys):
        code = run(tmp_path, "certify", {"kernel": CONSTANT, "k": 2})
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["certificate"]["pass"] is True
        assert (tmp_path / "out" / "report.json").exists()

    def test_failing_kernel_exits_three(self, tmp_path, capsys):
        code = run(tmp_path, "certify", {"kernel": POLY_FAIL, "k": 2})
        assert code == EXIT_CERT_FAIL
        assert json.loads(capsys.readouterr().out)["certificate"]["pass"] is False

    def test_table_peak_between_lattice_points_fails(self, tmp_path, capsys):
        values = np.ones((7, 7))
        values[1, 1] = 1.132  # M/m = 1.132 > eta_2 = 1.13171; a 1001^2 lattice misses it
        code = run(tmp_path, "certify", {"kernel": {"variant": "tabulated", "values": values.tolist()}, "k": 2})
        assert code == EXIT_CERT_FAIL
        bounds = json.loads(capsys.readouterr().out)["bounds"]
        assert bounds["M"] == 1.132 and bounds["exact"] is True

    def test_missing_kernel_block_is_config_error(self, tmp_path, capsys):
        assert run(tmp_path, "certify", {"k": 2}) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_order_one_is_config_error(self, tmp_path):
        assert run(tmp_path, "certify", {"kernel": CONSTANT, "k": 1}) == EXIT_CONFIG

    def test_unknown_variant_is_config_error(self, tmp_path):
        assert run(tmp_path, "certify", {"kernel": {"variant": "mystery"}, "k": 2}) == EXIT_CONFIG

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["certify", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error")

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["certify", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


class TestSolve:
    def test_writes_report_and_solution(self, tmp_path, capsys):
        cfg = {"kernel": POLY_PASS, "k": 2}
        assert run(tmp_path, "solve", cfg) == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["converged"] is True
        assert report["residual"] <= 1e-12
        csv = (tmp_path / "out" / "solution.csv").read_text().splitlines()
        assert csv[0] == "t,f" and csv[1].startswith("0,1")

    def test_order_one_uses_linear_path(self, tmp_path, capsys):
        cfg = {"kernel": CONSTANT, "k": 1}
        assert run(tmp_path, "solve", cfg) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["omega"] == pytest.approx(2.0, abs=1e-13)

    def test_non_convergence_exits_four(self, tmp_path):
        cfg = {"kernel": POLY_FAIL, "k": 2, "solver": {"max_iter": 5}}
        assert run(tmp_path, "solve", cfg) == EXIT_NO_CONVERGENCE

    def test_reports_are_byte_identical(self, tmp_path):
        cfg = {"kernel": POLY_PASS, "k": 2}
        run(tmp_path, "solve", cfg, out="a")
        run(tmp_path, "solve", cfg, out="b")
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()


class TestEigen:
    def test_reports_eigenvalue_and_rescalings(self, tmp_path, capsys):
        cfg = {"kernel": POLY_PASS, "k": 2, "eigen": {"targets": [0.1, 1.0, 10.0]}}
        assert run(tmp_path, "eigen", cfg) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["eigen_residual"] <= 1e-9
        assert [r["lambda"] for r in report["rescaled"]] == [0.1, 1.0, 10.0]
        assert all(r["residual"] <= 1e-8 for r in report["rescaled"])
        assert (tmp_path / "out" / "solution.csv").read_text().splitlines()[0] == "t,h"

    def test_order_one_is_config_error(self, tmp_path):
        assert run(tmp_path, "eigen", {"kernel": POLY_PASS, "k": 1}) == EXIT_CONFIG

    def test_nonpositive_target_is_config_error(self, tmp_path):
        cfg = {"kernel": POLY_PASS, "k": 2, "eigen": {"targets": [-1.0]}}
        assert run(tmp_path, "eigen", cfg) == EXIT_CONFIG


class TestProbe:
    def test_passing_kernel_exits_zero(self, tmp_path, capsys):
        cfg = {"kernel": POLY_PASS, "k": 2, "probe": {"n_starts": 4, "seed": 3}}
        assert run(tmp_path, "probe", cfg) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["unique_within_tol"] is True
        assert report["max_pairwise_distance"] <= 1e-8
        assert len(report["per_start"]) == 4

    def test_single_start_is_config_error(self, tmp_path):
        cfg = {"kernel": POLY_PASS, "k": 2, "probe": {"n_starts": 1, "seed": 3}}
        assert run(tmp_path, "probe", cfg) == EXIT_CONFIG

    def test_non_convergent_start_exits_four(self, tmp_path):
        cfg = {
            "kernel": POLY_FAIL,
            "k": 2,
            "probe": {"n_starts": 2, "seed": 3},
            "solver": {"max_iter": 5},
        }
        assert run(tmp_path, "probe", cfg) == EXIT_NO_CONVERGENCE

    def test_cluster_mismatch_exits_five(self, tmp_path, monkeypatch):
        # code-path check: shrink the clustering tolerance below rounding noise
        monkeypatch.setattr(treegibbs.solver, "CLUSTERING_TOL", 1e-30)
        cfg = {"kernel": POLY_PASS, "k": 2, "probe": {"n_starts": 4, "seed": 3}}
        assert run(tmp_path, "probe", cfg) == EXIT_NOT_CLUSTERED

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = {"kernel": POLY_PASS, "k": 2, "probe": {"n_starts": 3, "seed": 3}}
        run(tmp_path, "probe", cfg, out="a", extra=["--seed", "99"])
        run(tmp_path, "probe", {**cfg, "probe": {"n_starts": 3, "seed": 4}}, out="b", extra=["--seed", "99"])
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()


class TestSample:
    def test_writes_samples_and_histogram(self, tmp_path, capsys):
        cfg = {
            "kernel": POLY_PASS,
            "k": 2,
            "sample": {"depth": 1, "n_samples": 500, "seed": 11},
        }
        assert run(tmp_path, "sample", cfg) == EXIT_OK
        samples = (tmp_path / "out" / "samples.csv").read_text().splitlines()
        assert samples[0] == "sample,vertex,spin"
        assert len(samples) == 1 + 500 * 4
        hist = json.loads((tmp_path / "out" / "histogram.json").read_text())
        assert len(hist["counts"]) == 20
        assert sum(hist["counts"]) == 500

    def test_rerun_is_byte_identical_and_reports_acceptance(self, tmp_path, capsys):
        cfg = {"kernel": POLY_PASS, "k": 2, "sample": {"depth": 2, "n_samples": 300, "seed": 5}}
        assert run(tmp_path, "sample", cfg, out="a") == EXIT_OK
        assert run(tmp_path, "sample", cfg, out="b") == EXIT_OK
        names = ("samples.csv", "histogram.json", "report.json")
        assert all((tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes() for n in names)
        assert 0.0 < json.loads((tmp_path / "a" / "report.json").read_text())["acceptance_rate"] <= 1.0

    def test_missing_sample_block_is_config_error(self, tmp_path):
        assert run(tmp_path, "sample", {"kernel": POLY_PASS, "k": 2}) == EXIT_CONFIG


class TestCompare:
    def test_constant_kernel_matches(self, tmp_path, capsys):
        cfg = {
            "kernel": CONSTANT,
            "k": 2,
            "compare": {"n_mc": 20000, "seed": 5},
        }
        assert run(tmp_path, "compare", cfg) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["sup_abs_z"] <= 4.0

    def test_polynomial_kernel_matches(self, tmp_path):
        cfg = {
            "kernel": POLY_PASS,
            "k": 2,
            "compare": {"n_mc": 50000, "seed": 7, "depth": 1, "bins": 20},
        }
        assert run(tmp_path, "compare", cfg) == EXIT_OK

    def test_wrong_exponent_negative_control_exits_six(self, tmp_path, monkeypatch):
        # inject the wrong root exponent (k+2)/k; a kernel with visible
        # variation makes the mismatch unambiguous at this sample size
        monkeypatch.setattr(treegibbs.gibbs, "_marginal_exponent", lambda k: (k + 2.0) / k)
        cfg = {
            "kernel": {"variant": "polynomial", "coeffs": [[1, 1, 1.0]], "a": 1.0},
            "k": 2,
            "compare": {"n_mc": 100000, "seed": 7},
        }
        assert run(tmp_path, "compare", cfg) == EXIT_MARGINAL_MISMATCH

    def test_depth_three_is_config_error(self, tmp_path):
        cfg = {"kernel": POLY_PASS, "k": 2, "compare": {"n_mc": 100, "seed": 1, "depth": 3}}
        assert run(tmp_path, "compare", cfg) == EXIT_CONFIG


class TestKernelVariantsViaConfig:
    @pytest.mark.parametrize(
        "kernel",
        [
            CONSTANT,
            POLY_PASS,
            {"variant": "exponential", "J": 1.0, "beta": 0.05, "interaction": [[1, 1, 1.0]]},
            {
                "variant": "tabulated",
                "values": np.outer([1.0, 1.5, 2.0], [1.0, 1.5, 2.0]).tolist(),
            },
        ],
    )
    def test_solve_accepts_every_variant(self, tmp_path, kernel):
        assert run(tmp_path, "solve", {"kernel": kernel, "k": 2}) == EXIT_OK

    def test_bad_coefficient_shape_is_config_error(self, tmp_path):
        kernel = {"variant": "polynomial", "coeffs": [[1, 0.1]], "a": 1.0}
        assert run(tmp_path, "solve", {"kernel": kernel, "k": 2}) == EXIT_CONFIG

    def test_negative_coefficient_is_config_error(self, tmp_path):
        kernel = {"variant": "polynomial", "coeffs": [[1, 1, -0.5]], "a": 1.0}
        assert run(tmp_path, "solve", {"kernel": kernel, "k": 2}) == EXIT_CONFIG
