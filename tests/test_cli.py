"""End-to-end tests of the lmglab command line driver."""

import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from lmglab.cli import _pool_size

HEADER = "h,N,tau,chi_g,chi_r,eta,entropy,method,delta,status"
GOLDEN = Path(__file__).parent / "data" / "golden_sweep_h.csv"


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "lmglab.cli", *args],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}):\n{proc.stderr}")
    return proc


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("# timestamp:")
    )


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append(dict(zip(header, line.split(","))))
    return rows


class TestSweepH:
    def test_schema_and_content(self, tmp_path):
        run_cli(
            "sweep-h", "--gamma", "0.5", "--tau", "0.5", "--n", "8,16",
            "--h-start", "0.5", "--h-stop", "1.5", "--h-count", "3",
            "--methods", "finite-difference", "--out", str(tmp_path),
            "--formats", "csv,json,plotscript", check=True,
        )
        csv_text = (tmp_path / "sweep_h.csv").read_text()
        data_lines = [l for l in csv_text.splitlines() if not l.startswith("#")]
        assert data_lines[0] == HEADER
        assert len(data_lines) == 1 + 2 * 3  # header + (2 sizes x 3 fields)
        rows = read_rows(tmp_path / "sweep_h.csv")
        for row in rows:
            assert row["status"] == "ok"
            for field in ("chi_g", "chi_r", "eta", "entropy", "delta"):
                assert math.isfinite(float(row[field]))
            # >= 12 significant digits in scientific notation
            assert "e" in row["chi_g"]
            mantissa = row["chi_g"].split("e")[0]
            assert len(mantissa.split(".")[1]) >= 12
        assert (tmp_path / "sweep_h.json").exists()
        assert (tmp_path / "sweep_h_chi_r.gp").exists()

    def test_rows_sorted_and_deterministic_with_jobs(self, tmp_path):
        args = (
            "sweep-h", "--gamma", "0.5", "--tau", "0.5", "--n", "16,8",
            "--h-list", "1.2,0.8", "--methods", "finite-difference,analytic",
        )
        run_cli(*args, "--out", str(tmp_path / "a"), "--jobs", "2", check=True)
        run_cli(*args, "--out", str(tmp_path / "b"), "--jobs", "1", check=True)
        a = strip_timestamp((tmp_path / "a" / "sweep_h.csv").read_text())
        b = strip_timestamp((tmp_path / "b" / "sweep_h.csv").read_text())
        assert a == b
        rows = read_rows(tmp_path / "a" / "sweep_h.csv")
        keys = [(int(r["N"]), float(r["h"]), r["method"]) for r in rows]
        assert keys == sorted(keys)

    def test_singular_analytic_point_flagged_exit_3(self, tmp_path):
        proc = run_cli(
            "sweep-h", "--n", "8", "--h-list", "1.0", "--methods", "analytic",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 3
        rows = read_rows(tmp_path / "sweep_h.csv")
        assert rows[0]["status"].startswith("singular")
        assert rows[0]["chi_g"] == "nan"

    def test_skip_errors_downgrades_to_success(self, tmp_path):
        proc = run_cli(
            "sweep-h", "--n", "8", "--h-list", "1.0", "--methods", "analytic",
            "--out", str(tmp_path), "--skip-errors",
        )
        assert proc.returncode == 0

    def test_empty_h_grid_usage_error(self, tmp_path):
        proc = run_cli("sweep-h", "--n", "8", "--h-list", "", "--out", str(tmp_path))
        assert proc.returncode == 1

    def test_missing_grid_usage_error(self, tmp_path):
        proc = run_cli("sweep-h", "--n", "8", "--out", str(tmp_path))
        assert proc.returncode == 1

    def test_unknown_method_usage_error(self, tmp_path):
        proc = run_cli(
            "sweep-h", "--n", "8", "--h-list", "0.5", "--methods", "magic",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 1

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores directory modes")
    def test_unwritable_output_exit_2(self, tmp_path):
        target = tmp_path / "locked"
        target.mkdir()
        target.chmod(stat.S_IRUSR | stat.S_IXUSR)
        proc = run_cli(
            "sweep-h", "--n", "8", "--h-list", "0.5", "--out", str(target / "sub")
        )
        assert proc.returncode == 2

    def test_unwritable_output_exit_2_via_file_collision(self, tmp_path):
        # Portable variant: the output "directory" is an existing file.
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        proc = run_cli("sweep-h", "--n", "8", "--h-list", "0.5", "--out", str(blocker))
        assert proc.returncode == 2

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sweep configuration\n"
            "gamma = 0.25\n"
            "tau = 0.5\n"
            "n = 8\n"
            "h-list = 0.5,0.7\n"
            "methods = analytic\n"
            f"out = {tmp_path / 'from_config'}\n"
        )
        run_cli("sweep-h", "--config", str(cfg), check=True)
        rows = read_rows(tmp_path / "from_config" / "sweep_h.csv")
        assert len(rows) == 2
        # CLI flag overrides the config value
        run_cli(
            "sweep-h", "--config", str(cfg), "--h-list", "0.9",
            "--out", str(tmp_path / "override"), check=True,
        )
        rows = read_rows(tmp_path / "override" / "sweep_h.csv")
        assert len(rows) == 1 and float(rows[0]["h"]) == 0.9

    def test_golden_file(self, tmp_path):
        """Schema and values of a tiny analytic config are frozen.

        Structure (comments, header, row layout) must match the stored
        golden byte for byte; numeric cells are compared at 1e-9 so the
        test survives ulp-level libm differences between platforms.
        """
        run_cli(
            "sweep-h", "--gamma", "0.5", "--tau", "0.5", "--n", "8",
            "--h-list", "0.5,1.5", "--methods", "analytic", "--formats", "csv",
            "--out", str(tmp_path), check=True,
        )
        produced = strip_timestamp((tmp_path / "sweep_h.csv").read_text()).splitlines()
        expected = strip_timestamp(GOLDEN.read_text()).splitlines()
        assert len(produced) == len(expected)
        for got, want in zip(produced, expected):
            if got.startswith("#") or got == HEADER:
                assert got == want
                continue
            got_cells = got.split(",")
            want_cells = want.split(",")
            assert len(got_cells) == len(want_cells)
            for g, w in zip(got_cells, want_cells):
                try:
                    assert float(g) == pytest.approx(float(w), rel=1e-9)
                except ValueError:
                    assert g == w

    def test_seedless_flag_accepted(self, tmp_path):
        run_cli(
            "sweep-h", "--n", "8", "--h-list", "0.5", "--seedless",
            "--out", str(tmp_path), check=True,
        )
        assert "seedless=True" in (tmp_path / "sweep_h.csv").read_text()


class TestSweepTau:
    def test_pure_subsystem_entropy_bound(self, tmp_path):
        run_cli(
            "sweep-tau", "--gamma", "0.5", "--n", "12", "--h-list", "0.6,1.1",
            "--tau-list", "0.5,1.0", "--out", str(tmp_path), check=True,
        )
        rows = read_rows(tmp_path / "sweep_tau.csv")
        assert len(rows) == 4
        for row in rows:
            if float(row["tau"]) == 1.0:
                assert float(row["entropy"]) <= math.log(2.0) + 1e-8

    def test_rounding_warning_recorded(self, tmp_path):
        proc = run_cli(
            "sweep-tau", "--n", "10", "--h-list", "0.5", "--tau-list", "0.25",
            "--out", str(tmp_path), check=True,
        )
        # tau*N = 2.5 rounds to M=2; requested and realized values recorded
        text = (tmp_path / "sweep_tau.csv").read_text()
        assert "# warning:" in text and "rounded to M=2" in text
        assert "rounded" in proc.stderr
        rows = read_rows(tmp_path / "sweep_tau.csv")
        assert float(rows[0]["tau"]) == 0.2

    def test_eta_collapse_away_from_transition(self, tmp_path):
        # Fig-3 style behavior: eta(tau) nearly independent of N at h=0.6,
        # but separating and moving toward 1 at the transition h=1.0.
        run_cli(
            "sweep-tau", "--gamma", "0.5", "--n", "32,64", "--h-list", "0.6,1.0",
            "--tau-list", "0.25,0.5,0.75", "--out", str(tmp_path), check=True,
        )
        rows = read_rows(tmp_path / "sweep_tau.csv")
        by_n = {}
        for row in rows:
            key = (int(row["N"]), float(row["h"]))
            by_n.setdefault(key, []).append(float(row["eta"]))
        away = [abs(a - b) for a, b in zip(by_n[(32, 0.6)], by_n[(64, 0.6)])]
        assert max(away) < 0.02
        # At the transition eta grows with N for tau <= 1/2 already at
        # these sizes (tau=3/4 has a small non-monotone finite-size dip).
        for eta32, eta64 in list(zip(by_n[(32, 1.0)], by_n[(64, 1.0)]))[:2]:
            assert eta64 > eta32


class TestCompare:
    def test_report_structure(self, tmp_path):
        run_cli(
            "compare", "--gamma", "0.5", "--tau", "0.5", "--n", "64,128",
            "--h-list", "1.5", "--out", str(tmp_path), check=True,
        )
        report = json.loads((tmp_path / "compare.json").read_text())
        assert "deviations" in report and "summary" in report
        devs = {d["N"]: d["chi_r_rel_dev"] for d in report["deviations"]}
        assert devs[128] < devs[64]  # numeric converges toward the closed form
        fits = report["exponent_fits"]
        assert abs(fits["broken_chi_r_over_n_vs_1_minus_h"] + 0.5) < 0.02
        assert abs(fits["symmetric_chi_r_vs_h_minus_1"] + 2.0) < 0.02
        assert abs(fits["entropy_vs_log_abs_h_minus_1"] + 0.25) < 0.02
        text = (tmp_path / "compare.txt").read_text()
        assert "critical-exponent fits" in text

    def test_singular_grid_point_flagged(self, tmp_path):
        proc = run_cli(
            "compare", "--n", "16", "--h-list", "0.9,1.0,1.1",
            "--out", str(tmp_path), "--skip-errors",
        )
        assert proc.returncode == 0
        report = json.loads((tmp_path / "compare.json").read_text())
        statuses = {d["h"]: d["status"] for d in report["deviations"]}
        assert statuses[1.0].startswith("singular")
        assert statuses[0.9] == "ok"

    def test_requires_analytic_plus_numeric(self, tmp_path):
        proc = run_cli(
            "compare", "--n", "16", "--h-list", "0.5", "--methods", "analytic",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 1


class TestPeakScan:
    def test_single_n_single_row_no_check(self, tmp_path):
        run_cli(
            "peak-scan", "--n", "16", "--h-start", "0.6", "--h-stop", "1.2",
            "--h-count", "13", "--out", str(tmp_path), "--check", check=True,
        )
        rows = read_rows(tmp_path / "peaks.csv")
        assert len(rows) == 1
        assert rows[0]["status"] == "ok"
        assert 0.6 < float(rows[0]["h_peak"]) < 1.2

    def test_check_passes_for_growing_sizes(self, tmp_path):
        proc = run_cli(
            "peak-scan", "--n", "16,32,64", "--h-start", "0.6", "--h-stop", "1.2",
            "--h-count", "13", "--out", str(tmp_path), "--check", check=True,
        )
        assert "peak checks passed" in proc.stdout
        rows = read_rows(tmp_path / "peaks.csv")
        dist = [abs(float(r["h_peak"]) - 1.0) for r in rows]
        heights = [float(r["chi_r_peak"]) for r in rows]
        assert dist == sorted(dist, reverse=True)
        assert heights == sorted(heights)

    def test_boundary_peak_is_usage_error(self, tmp_path):
        proc = run_cli(
            "peak-scan", "--n", "32", "--h-start", "1.05", "--h-stop", "1.4",
            "--h-count", "8", "--out", str(tmp_path),
        )
        assert proc.returncode == 1
        assert "widen" in proc.stderr


class TestPoolSize:
    def test_clamped_to_tasks_and_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _pool_size(10**6, 3) == 3
        assert _pool_size(10**6, 100) == 8
        assert _pool_size(2, 100) == 2

    def test_unknown_core_count_runs_serially(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _pool_size(10**6, 3) == 1


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "sweep-h" in proc.stdout
