"""End-to-end tests of the lmglab command line driver."""

import gc
import json
import math
import multiprocessing
import os
import stat
import subprocess
import sys
import time
import tracemalloc
import weakref
from itertools import product
from pathlib import Path

import pytest

import lmglab.analytic
import lmglab.cli
import lmglab.fidelity
from lmglab.cli import BLAS_THREAD_VARS, _evaluate_task, _pool_size, _usable_cpus, main
from lmglab.fidelity import FidelityError, sweep_point
from lmglab.model import EigensolverError, ModelParams, ground_state
from lmglab.reduced import Bipartition, ReducedDensityError, reduce_state

HEADER = "h,N,tau,chi_g,chi_r,eta,entropy,method,delta,status"
GOLDEN = Path(__file__).parent / "data" / "golden_sweep_h.csv"


def run_cli(*args, check=False, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "lmglab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}):\n{proc.stderr}")
    return proc


def without_thread_vars() -> dict:
    return {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}


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

    def test_analytic_rows_at_zero_field(self, tmp_path):
        proc = run_cli(
            "sweep-h", "--n", "8", "--h-list", "0,0.5", "--methods", "analytic",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        rows = read_rows(tmp_path / "sweep_h.csv")
        assert [r["status"] for r in rows] == ["ok", "ok"]
        # The closed forms use no step, so delta is nan (null in JSON).
        assert [r["delta"] for r in rows] == ["nan", "nan"]
        payload = json.loads((tmp_path / "sweep_h.json").read_text())
        assert [r["delta"] for r in payload["rows"]] == [None, None]

    @pytest.mark.parametrize("grid, failed", [
        (("--h-list", "0", "--methods", "finite-difference,spectral"),
         ["h=0.0 tau=0.444444 [finite-difference]", "h=0.0 tau=0.444444 [spectral]"]),
        (("--h-start", "0.150", "--h-stop", "0.165", "--h-count", "31"),
         ["h=0.157 tau=0.444444 [finite-difference]",
          "h=0.1575 tau=0.444444 [finite-difference]"]),
    ])
    def test_level_crossing_points_fail(self, tmp_path, grid, failed):
        # N = 9 at gamma = 0.5 has exact k-parity level crossings at h = 0 and
        # near h = 0.1572; only the points whose stencil straddles one fail.
        proc = run_cli("sweep-h", "--n", "9", "--gamma", "0.5", "--tau", "0.5", *grid,
                       "--out", str(tmp_path))
        assert proc.returncode == 3
        bad = [r for r in read_rows(tmp_path / "sweep_h.csv") if r["status"] != "ok"]
        assert [r["status"][:8] for r in bad] == ['"failed:'] * len(failed)
        for point in failed:
            assert f"point N=9 {point}: failed: stencil field" in proc.stderr

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
        test survives ulp-level libm differences between platforms.  The
        analytic rows use no step, so their delta cell is nan in both.
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
                    assert float(g) == pytest.approx(float(w), rel=1e-9, nan_ok=True)
                except ValueError:
                    assert g == w

    def test_seedless_flag_is_a_usage_error(self, tmp_path):
        # Runs hold no randomness, so there is no seed mode to switch.
        proc = run_cli("sweep-h", "--n", "8", "--h-list", "0.5", "--seedless",
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert "unrecognized arguments: --seedless\n" in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_seedless_config_key_is_a_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, "n = 8\n" "h-list = 0.5\n" "seedless = yes\n")
        proc = run_cli("sweep-h", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert proc.stderr == f"lmglab: error: {cfg}:3: unknown config key 'seedless'\n"
        assert not (tmp_path / "o").exists()


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

    def test_taus_rounding_to_one_m_give_one_row(self, tmp_path, capsys):
        # At N = 8, tau = 0.3 and 0.31 both round to M = 2; at N = 100 they
        # stay M = 30 and 31.  Each tau keeps its rounding warning.
        code = main(["sweep-tau", "--n", "8,100", "--h-list", "0.5", "--tau-list", "0.3,0.31",
                     "--methods", "analytic", "--jobs", "1", "--out", str(tmp_path)])
        assert code == 0
        rows = read_rows(tmp_path / "sweep_tau.csv")
        assert [(int(r["N"]), float(r["tau"])) for r in rows] == \
            [(8, 0.25), (100, 0.3), (100, 0.31)]
        err = capsys.readouterr().err
        assert err.count("for N=8; rounded to M=2") == 2
        assert err.count("for N=100") == 0

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

    @pytest.mark.parametrize("gamma, fits_ok", [("0.5", True), ("1", False)])
    def test_exponent_fits_name_their_tau(self, tmp_path, gamma, fits_ok):
        # --m sets the rows' tau, while the fits stay at --tau's default.
        code = main(["compare", "--gamma", gamma, "--m", "1", "--n", "64",
                     "--h-list", "0.6,1.5", "--jobs", "1", "--out", str(tmp_path)])
        assert code == (0 if fits_ok else 3)  # gamma = 1 fails every point
        report = json.loads((tmp_path / "compare.json").read_text())
        assert {row["tau"] for row in report["rows"]} == {1 / 64}
        fits = report["exponent_fits"]
        assert fits["tau"] == 0.5
        assert ("error" not in fits) == fits_ok
        if fits_ok:
            lines = ("  chi_r/N (broken) slope    -0.5058  (law: -0.5)\n"
                     "  chi_r (symmetric) slope   -2.0077  (law: -2)\n"
                     "  entropy vs ln|h-1| slope  -0.2486  (law: -0.25)\n")
        else:
            lines = "  not available: gamma = 1 is singular for the closed forms\n"
        assert (tmp_path / "compare.txt").read_text().endswith(
            "\ncritical-exponent fits at tau=0.5 over |h-1| in [1e-05, 0.0001]:\n" + lines)


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

    def test_unbracketed_peak_is_a_failed_row(self, tmp_path):
        # N = 16 peaks below h = 0.75, on the grid's edge; N = 256 inside it.
        args = ("peak-scan", "--n", "16,256", "--h-start", "0.75", "--h-stop", "1.15",
                "--h-count", "9", "--jobs", "1")
        proc = run_cli(*args, "--out", str(tmp_path / "a"))
        assert proc.returncode == 3
        message = "failed: chi_r peak on the h grid's edge (h=0.75); widen the grid to bracket it"
        assert proc.stderr == f"peak N=16 tau=0.5 [finite-difference]: {message}\n"
        rows = read_rows(tmp_path / "a" / "peaks.csv")
        assert (rows[0]["N"], rows[0]["status"], rows[0]["h_peak"]) == ("16", message, "nan")
        assert (rows[1]["N"], rows[1]["status"]) == ("256", "ok")
        assert 0.75 < float(rows[1]["h_peak"]) < 1.15
        statuses = [r["status"] for r in json.loads(
            (tmp_path / "a" / "peaks.json").read_text())["rows"]]
        assert statuses == [message, "ok"]
        skipped = run_cli(*args, "--skip-errors", "--out", str(tmp_path / "b"))
        assert skipped.returncode == 0 and skipped.stderr == proc.stderr
        assert strip_timestamp((tmp_path / "b" / "peaks.csv").read_text()) == \
            strip_timestamp((tmp_path / "a" / "peaks.csv").read_text()).replace(
                "skip_errors=False", "skip_errors=True")

    def test_check_needs_two_ok_rows(self, tmp_path):
        # N = 9 fails on the h = 0 parity crossing, so only N = 16 is ok and
        # nothing is compared.
        proc = run_cli("peak-scan", "--n", "9,16", "--h-start", "0", "--h-stop", "1.2",
                       "--h-count", "13", "--skip-errors", "--check", "--jobs", "1",
                       "--out", str(tmp_path))
        assert proc.returncode == 0
        assert [r["status"] == "ok" for r in read_rows(tmp_path / "peaks.csv")] == \
            [False, True]
        assert "peak checks passed" not in proc.stdout

    def test_one_numeric_method(self, tmp_path, capsys):
        code = main(["peak-scan", "--n", "16", "--h-start", "0.6", "--h-stop", "1.2",
                     "--h-count", "13", "--methods", "finite-difference,spectral",
                     "--jobs", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == ("lmglab: error: peak-scan takes one numeric "
                                           "method, got finite-difference,spectral\n")
        assert not (tmp_path / "o").exists()


class TestPoolSize:
    def test_clamped_to_tasks_and_cores(self, monkeypatch):
        monkeypatch.setattr(lmglab.cli, "_usable_cpus", lambda: 8)
        assert _pool_size(10**6, 3) == 3
        assert _pool_size(10**6, 100) == 8
        assert _pool_size(2, 100) == 2

    def test_affinity_mask_not_installed_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _usable_cpus() == 1
        assert _pool_size(10**6, 100) == 1

    def test_unknown_core_count_runs_serially(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _usable_cpus() == 1
        assert _pool_size(10**6, 3) == 1


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "sweep-h" in proc.stdout


def config_echo(path: Path) -> str:
    return next(l for l in path.read_text().splitlines() if l.startswith("# config:"))


def write_config(tmp_path, text: str) -> Path:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return cfg


# The keys all four subcommands share, but for methods, skip-errors and out,
# which each test sets itself.
SHARED_KEYS = (
    "gamma = 0.5\n"
    "tau = 0.4\n"
    "m = 8\n"
    "n = 16,32\n"
    "h-start = 0.1\n"
    "h-stop = 0.2\n"
    "h-count = 2\n"
    "h-list = 0.6,0.7,0.8,0.9,1.0,1.1,1.2\n"
    "delta = 0.002\n"
    "formats = csv\n"
    "jobs = 1\n"
)


class TestConfigFile:
    """Keys are the long flag names; every one a subcommand accepts is honored."""

    def test_sweep_h_every_key(self, tmp_path):
        cfg = write_config(tmp_path, SHARED_KEYS + "methods = finite-difference\n"
                           "skip-errors = on\n" f"out = {tmp_path / 'o'}\n")
        proc = run_cli("sweep-h", "--config", str(cfg), check=True)
        assert proc.stdout == f"wrote {tmp_path / 'o' / 'sweep_h.csv'}\n"
        rows = read_rows(tmp_path / "o" / "sweep_h.csv")
        # An h-list beats h-start/stop/count from the same source; --m beats tau.
        assert {(int(r["N"]), float(r["h"])) for r in rows} == {
            (n, h) for n in (16, 32) for h in (0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2)
        }
        assert {float(r["tau"]) for r in rows} == {0.5, 0.25}
        assert {float(r["delta"]) for r in rows} == {0.002}
        echo = config_echo(tmp_path / "o" / "sweep_h.csv")
        for item in ("gamma=0.5", "tau=0.4", "m=8", "n=16,32", "delta=0.002",
                     "formats=csv", "skip_errors=True"):
            assert f" {item}" in echo

    def test_sweep_tau_every_key(self, tmp_path):
        cfg = write_config(tmp_path, SHARED_KEYS + "methods = finite-difference\n"
                           "skip-errors = off\n" f"out = {tmp_path / 'o'}\n"
                           "tau-start = 0.1\n" "tau-stop = 0.3\n" "tau-count = 3\n"
                           "tau-list = 0.5,1.0\n")
        run_cli("sweep-tau", "--config", str(cfg), check=True)
        rows = read_rows(tmp_path / "o" / "sweep_tau.csv")
        # sweep-tau takes M from its tau grid, never from m.
        assert {(int(r["N"]), float(r["tau"])) for r in rows} == {
            (n, t) for n in (16, 32) for t in (0.5, 1.0)
        }
        assert {r["method"] for r in rows} == {"finite-difference"}
        assert len(rows) == 2 * 2 * 7
        echo = config_echo(tmp_path / "o" / "sweep_tau.csv")
        assert " tau_values=0.5,1.0" in echo and " skip_errors=False" in echo
        # Nor does it record them.
        assert " tau=" not in echo and " m=" not in echo

    def test_compare_every_key(self, tmp_path):
        cfg = write_config(tmp_path, SHARED_KEYS +
                           "methods = finite-difference,analytic\n"
                           "skip-errors = 1\n" f"out = {tmp_path / 'o'}\n")
        run_cli("compare", "--config", str(cfg), check=True)
        report = json.loads((tmp_path / "o" / "compare.json").read_text())
        assert report["config"]["m"] == 8 and report["config"]["skip_errors"] is True
        assert report["config"]["h_values"] == "0.6,0.7,0.8,0.9,1.0,1.1,1.2"
        # compare writes fixed files: the file's formats key is read by the
        # sweeps only.
        assert "formats" not in report["config"]
        assert len(report["deviations"]) == 2 * 7
        assert (tmp_path / "o" / "compare.txt").exists()

    def test_peak_scan_every_key(self, tmp_path):
        cfg = write_config(tmp_path, SHARED_KEYS.replace("delta = 0.002", "delta = auto") +
                           "methods = finite-difference\n" "skip-errors = 0\n"
                           f"out = {tmp_path / 'o'}\n" "check = yes\n")
        proc = run_cli("peak-scan", "--config", str(cfg), check=True)
        assert "peak checks passed" in proc.stdout
        rows = read_rows(tmp_path / "o" / "peaks.csv")
        assert [int(r["N"]) for r in rows] == [16, 32]
        assert [float(r["tau"]) for r in rows] == [0.5, 0.25]
        echo = config_echo(tmp_path / "o" / "peaks.csv")
        assert " check=True" in echo and " delta=auto" in echo and " formats=" not in echo

    def test_keys_of_other_subcommands_accepted(self, tmp_path):
        cfg = write_config(tmp_path, "n = 8\n" "h-list = 0.5\n" "check = yes\n"
                           "tau_start = 0.1\n" "tau-list = 0.5\n" f"out = {tmp_path}\n")
        run_cli("sweep-h", "--config", str(cfg), check=True)
        echo = config_echo(tmp_path / "sweep_h.csv")
        assert "check=" not in echo and "tau_values=" not in echo

    @pytest.mark.parametrize("spelling, value", [
        ("yes", True), ("no", False), ("on", True), ("off", False),
        ("1", True), ("0", False), ("True", True), ("FALSE", False),
    ])
    def test_bool_spellings(self, tmp_path, spelling, value):
        cfg = write_config(tmp_path, "n = 8\n" "h-list = 0.5\n"
                           f"skip-errors = {spelling}\n" f"out = {tmp_path}\n")
        run_cli("sweep-h", "--config", str(cfg), check=True)
        echo = config_echo(tmp_path / "sweep_h.csv")
        assert f" skip_errors={value}" in echo

    def test_delta_auto(self, tmp_path):
        cfg = write_config(tmp_path, "n = 8\n" "h-list = 0.5,2.0\n" "delta = auto\n"
                           f"out = {tmp_path}\n")
        run_cli("sweep-h", "--config", str(cfg), "--delta", "0.01", check=True)
        assert {float(r["delta"]) for r in read_rows(tmp_path / "sweep_h.csv")} == {0.01}
        run_cli("sweep-h", "--config", str(cfg), check=True)
        rows = read_rows(tmp_path / "sweep_h.csv")
        assert [float(r["delta"]) for r in rows] == [1e-3, 2e-3]
        assert " delta=auto" in config_echo(tmp_path / "sweep_h.csv")

    def test_unknown_key_names_line(self, tmp_path):
        cfg = write_config(tmp_path, "n = 8\n" "# comment\n" "h-lst = 0.5\n")
        proc = run_cli("sweep-h", "--config", str(cfg), "--out", str(tmp_path))
        assert proc.returncode == 1
        assert f"{cfg}:3" in proc.stderr and "h_lst" in proc.stderr

    @pytest.mark.parametrize("line", ["delta = -1", "delta = nan", "delta = inf", "n = x",
                                      "skip-errors = maybe", "h-count = 2.5",
                                      "no equals sign"])
    def test_bad_value_usage_error(self, tmp_path, line):
        cfg = write_config(tmp_path, "h-list = 0.5\n" f"{line}\n")
        proc = run_cli("sweep-h", "--config", str(cfg), "--n", "8",
                       "--out", str(tmp_path))
        assert proc.returncode == 1
        assert f"{cfg}:2" in proc.stderr
        assert not (tmp_path / "sweep_h.csv").exists()

    def test_missing_config_file_usage_error(self, tmp_path):
        proc = run_cli("sweep-h", "--config", str(tmp_path / "absent.cfg"),
                       "--out", str(tmp_path))
        assert proc.returncode == 1

    def test_repeated_n_concatenates(self, tmp_path):
        run_cli("sweep-h", "--n", "8", "--n", "16,32", "--h-list", "0.5",
                "--methods", "analytic", "--out", str(tmp_path), check=True)
        assert [int(r["N"]) for r in read_rows(tmp_path / "sweep_h.csv")] == [8, 16, 32]
        assert " n=8,16,32" in config_echo(tmp_path / "sweep_h.csv")

    @pytest.mark.parametrize("command", ["sweep-h", "sweep-tau", "compare", "peak-scan"])
    @pytest.mark.parametrize("sizes", [("--n", "16", "--n", "16"), ("--n", "16,16")])
    def test_repeated_size_usage_error(self, tmp_path, command, sizes):
        tau_grid = ("--tau-list", "0.5") if command == "sweep-tau" else ()
        proc = run_cli(command, *sizes, "--h-start", "0.6", "--h-stop", "1.2",
                       "--h-count", "13", *tau_grid, "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "system size given more than once: 16" in proc.stderr
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, methods", [
        ("sweep-h", "analytic,analytic"),
        ("sweep-tau", "finite-difference,spectral,finite-difference"),
        ("compare", "finite-difference,finite-difference,analytic"),
        ("peak-scan", "spectral,spectral"),
    ])
    def test_repeated_method_usage_error(self, tmp_path, capsys, command, methods):
        out = tmp_path / "out"
        tau_grid = ["--tau-list", "0.5"] if command == "sweep-tau" else []
        code = main([command, "--n", "8", "--h-start", "0.6", "--h-stop", "1.2",
                     "--h-count", "13", *tau_grid, "--methods", methods,
                     "--jobs", "1", "--out", str(out)])
        assert code == 1
        repeated = methods.split(",")[0]
        assert capsys.readouterr().err == \
            f"lmglab: error: method given more than once: {repeated}\n"
        assert not out.exists()

    def test_repeated_method_in_config_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "n = 8\nh-list = 0.5\nmethods = analytic,analytic\n")
        assert main(["sweep-h", "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "lmglab: error: method given more than once: analytic\n"
        assert not out.exists()


class TestCommandLineGridBeatsConfig:
    """A grid on the command line replaces the config file's grid in either form."""

    def test_h_range_flags_replace_config_h_list(self, tmp_path):
        cfg = write_config(tmp_path, "n = 8\n" "h-list = 0.5,0.7\n" "methods = analytic\n")
        run_cli("sweep-h", "--config", str(cfg), "--h-start", "0.2", "--h-stop", "0.4",
                "--h-count", "3", "--out", str(tmp_path), check=True)
        hs = [float(r["h"]) for r in read_rows(tmp_path / "sweep_h.csv")]
        assert hs == pytest.approx([0.2, 0.3, 0.4], rel=1e-12)

    def test_h_list_flag_replaces_config_h_range(self, tmp_path):
        cfg = write_config(tmp_path, "n = 8\n" "h-start = 0.2\n" "h-stop = 0.4\n"
                           "h-count = 3\n" "methods = analytic\n")
        run_cli("sweep-h", "--config", str(cfg), "--h-list", "0.9",
                "--out", str(tmp_path), check=True)
        assert [float(r["h"]) for r in read_rows(tmp_path / "sweep_h.csv")] == [0.9]

    def test_tau_range_flags_replace_config_tau_list(self, tmp_path):
        cfg = write_config(tmp_path, "n = 8\n" "h-list = 0.5\n" "tau-list = 0.5\n")
        run_cli("sweep-tau", "--config", str(cfg), "--tau-start", "0.25",
                "--tau-stop", "0.75", "--tau-count", "3", "--out", str(tmp_path),
                check=True)
        taus = [float(r["tau"]) for r in read_rows(tmp_path / "sweep_tau.csv")]
        assert taus == [0.25, 0.5, 0.75]


class TestRangeChecks:
    @pytest.mark.parametrize("flag, value", [
        ("--tau", "-1"), ("--tau", "0"), ("--tau", "1.5"), ("--tau", "nan"),
        ("--gamma", "2"), ("--gamma", "-0.1"), ("--delta", "nan"), ("--delta", "inf"),
        # delta**2 underflows to 0 or overflows in the finite-difference quotient.
        ("--delta", "1e-170"), ("--delta", "1e160"),
    ])
    def test_out_of_range_flag_usage_error(self, tmp_path, flag, value):
        proc = run_cli("sweep-h", "--n", "8", "--h-list", "0.5", flag, value,
                       "--out", str(tmp_path))
        assert proc.returncode == 1
        assert flag.lstrip("-") in proc.stderr
        assert not (tmp_path / "sweep_h.csv").exists()

    def test_out_of_range_config_value_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, "n = 8\n" "h-list = 0.5\n" "tau = -1\n")
        proc = run_cli("sweep-h", "--config", str(cfg), "--out", str(tmp_path))
        assert proc.returncode == 1

    def test_overflowing_automatic_step_usage_error(self, tmp_path):
        # The automatic step 1e-3 * h at h = 1e160 has a square that overflows.
        proc = run_cli("sweep-h", "--n", "8", "--h-list", "0.5,1e160", "--out", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr == ("lmglab: error: --delta auto (at h = 1e+160): "
                               "delta 1e+157 has a square that is not a normal float\n")
        assert not (tmp_path / "sweep_h.csv").exists()

    @pytest.mark.parametrize("grid", [("--h-list", "0.5,1.5,1.0"),
                                      ("--tau-list", "0.5,0.25,0.75")])
    def test_non_monotone_grid_usage_error(self, tmp_path, grid):
        proc = run_cli("sweep-tau", "--n", "8", "--h-list", "0.5", "--tau-list", "0.5",
                       *grid, "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "grid must be strictly monotone" in proc.stderr

    @pytest.mark.parametrize("grid, value", [
        (("--h-list", "inf"), "inf"),
        (("--h-list", "nan"), "nan"),
        (("--h-start", "0.5", "--h-stop", "inf", "--h-count", "3"), "inf"),
    ])
    def test_non_finite_h_grid_usage_error(self, tmp_path, grid, value):
        proc = run_cli("sweep-h", "--n", "8", *grid, "--out", str(tmp_path))
        assert proc.returncode == 1
        flag = grid[grid.index(value) - 1]
        assert proc.stderr.strip() == \
            f"lmglab: error: {flag}: field must be finite and >= 0, got {value}"
        assert not (tmp_path / "sweep_h.csv").exists()

    @pytest.mark.parametrize("source, flag, value", [
        (["--h-list=-0.5,0.5"], "--h-list", "-0.5"),
        (["--h-start", "-0.1", "--h-stop", "0.5", "--h-count", "3"], "--h-start", "-0.1"),
        ("h-start = -0.2\nh-stop = 0.2\nh-count = 2\n", "--h-start", "-0.2"),
    ], ids=["list", "range", "config"])
    def test_negative_h_grid_usage_error(self, tmp_path, capsys, monkeypatch, source, flag,
                                         value):
        def no_compute(task):
            raise AssertionError(f"point computed for a negative field: {task}")

        monkeypatch.setattr(lmglab.cli, "_evaluate_task", no_compute)
        if isinstance(source, str):
            source = ["--config", str(write_config(tmp_path, source))]
        out = tmp_path / "o"
        code = main(["sweep-h", "--n", "8", *source,
                     "--methods", "finite-difference,analytic", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            f"lmglab: error: {flag}: field must be finite and >= 0, got {value}\n"
        assert not out.exists()

    def test_non_finite_tau_grid_usage_error(self, tmp_path):
        proc = run_cli("sweep-tau", "--n", "8", "--h-list", "0.5", "--tau-start", "0.5",
                       "--tau-stop", "nan", "--tau-count", "2", "--out", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr.strip() == "lmglab: error: --tau-stop: tau must lie in (0, 1], got nan"
        assert not (tmp_path / "sweep_tau.csv").exists()

    def test_tau_grid_range_error(self, tmp_path):
        proc = run_cli("sweep-tau", "--n", "8", "--h-list", "0.5", "--tau-list", "-1",
                       "--out", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr.strip() == "lmglab: error: --tau-list: tau must lie in (0, 1], got -1.0"
        assert not (tmp_path / "sweep_tau.csv").exists()

    def test_isotropic_gamma_accepted(self, tmp_path):
        # gamma = 1 is in range; its points fail numerically, not as usage.
        proc = run_cli("sweep-h", "--n", "8", "--h-list", "0.5", "--gamma", "1",
                       "--tau", "1", "--out", str(tmp_path))
        assert proc.returncode == 3
        assert read_rows(tmp_path / "sweep_h.csv")[0]["status"].startswith('"failed:')

    @pytest.mark.parametrize("command, source, flag", [
        ("sweep-h", ["--n", "1"], "--n"),
        ("sweep-h", ["--n", "8", "--m", "0"], "--m"),
        ("sweep-h", ["--n", "8", "--m", "9"], "--m"),
        ("sweep-h", ["--n", "8", "--h-list=-0.5"], "--h-list"),
        ("sweep-h", "n = 8\ngamma = 2\n", "--gamma"),
        ("sweep-tau", ["--n", "8", "--tau-list", "0"], "--tau-list"),
    ], ids=["n", "m-low", "m-high", "h-list", "config-gamma", "tau-list"])
    def test_value_error_names_its_flag(self, tmp_path, capsys, command, source, flag):
        if isinstance(source, str):
            source = ["--config", str(write_config(tmp_path, source))]
        out = tmp_path / "o"
        assert main([command, "--h-list", "0.5", *source, "--jobs", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"lmglab: error: {flag}: ")
        assert not out.exists()


def cli_accepts(argv: list[str]) -> bool:
    """Whether the CLI's usage checks, through the tasks' subsystem sizes, pass argv."""
    cli = lmglab.cli
    try:
        cli._tasks(cli.config_from_args(cli.build_parser().parse_args(argv)))
    except (cli.UsageError, SystemExit):  # argparse exits on a value its type rejects
        return False
    return True


def library_accepts(rule, value) -> bool:
    try:
        rule(value)
    except ValueError:
        return False
    return True


# Each rule on a CLI input, the library statement of it, and its edge values;
# "{}" in the arguments takes the value.
LIBRARY_RULES = [
    ("delta", ["sweep-h", "--h-list", "0.5", "--delta={}"], lmglab.fidelity._check_delta,
     [0.0, -1.0, math.nan, math.inf, 1e-170, 1e-154, 1e-150, 1e150, 1e154, 1e160]),
    ("h-list", ["sweep-h", "--h-list={}"], lmglab.analytic._check_field,
     [-0.0, 0.0, -1e-300, math.inf, math.nan]),
    ("h-start", ["sweep-h", "--h-start={}", "--h-stop", "2", "--h-count", "2"],
     lmglab.analytic._check_field, [-0.0, 0.0, -1e-300, math.inf, math.nan]),
    ("tau", ["sweep-h", "--h-list", "0.5", "--tau={}"], lmglab.analytic._check_tau,
     [0.0, 1e-300, 1.0, 1.0 + 2**-52, math.nan]),
    ("tau-list", ["sweep-tau", "--h-list", "0.5", "--tau-list={}"], lmglab.analytic._check_tau,
     [0.0, 1e-300, 1.0, 1.0 + 2**-52, math.nan]),
    ("n", ["sweep-h", "--h-list", "0.5", "--n={}"], lmglab.analytic._check_size, [1, 2]),
    ("gamma", ["sweep-h", "--h-list", "0.5", "--gamma={}"], lambda g: ModelParams(8, g, 0.5),
     [-0.0, 0.0, 1.0, 1.0 + 2**-52, math.nan]),
    ("m", ["sweep-h", "--h-list", "0.5", "--m={}"], lambda m: Bipartition(8, m), [0, 1, 8, 9]),
]


@pytest.mark.parametrize("args, rule, value", [
    pytest.param(args, rule, value, id=f"{name}={value!r}")
    for name, args, rule, values in LIBRARY_RULES for value in values
])
def test_cli_accepts_what_the_library_accepts(args, rule, value):
    argv = [arg.format(repr(value)) for arg in args]
    if "--n" not in " ".join(argv):
        argv += ["--n", "8"]
    assert cli_accepts(argv) == library_accepts(rule, value)


class TestGridBound:
    """A grid whose rows would not fit in memory is refused before it is built."""

    @pytest.mark.parametrize("command, grid", [
        ("sweep-h", ["--h-start", "0", "--h-stop", "1", "--h-count", str(10**12)]),
        ("sweep-tau", ["--h-list", "0.5", "--tau-start", "0.1", "--tau-stop", "1",
                       "--tau-count", str(10**12)]),
    ])
    def test_oversized_count_refused_before_the_grid_is_built(self, tmp_path, capsys,
                                                              monkeypatch, command, grid):
        def no_linspace(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(lmglab.cli.np, "linspace", no_linspace)
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = main([command, "--n", "8", *grid, "--jobs", "1", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert f"the grid's {10**12} rows" in capsys.readouterr().err
        assert peak < 1e6
        assert not out.exists()

    def test_rows_multiply_sizes_fields_subsystem_sizes_and_methods(self, monkeypatch):
        # 2 sizes x 3 fields x 4 tau values x 2 methods = 48 rows.
        args = lmglab.cli.build_parser().parse_args(
            ["sweep-tau", "--n", "8,16", "--h-list", "0.5,0.6,0.7",
             "--tau-start", "0.25", "--tau-stop", "1", "--tau-count", "4",
             "--methods", "finite-difference,spectral"])
        row_bytes = 2940
        monkeypatch.setattr(lmglab.cli, "_usable_memory", lambda: 48 * row_bytes)
        assert lmglab.cli.config_from_args(args)["tau_values"] == [0.25, 0.5, 0.75, 1.0]
        monkeypatch.setattr(lmglab.cli, "_usable_memory", lambda: 48 * row_bytes - 1)
        with pytest.raises(lmglab.cli.UsageError, match="the grid's 48 rows"):
            lmglab.cli.config_from_args(args)

    def test_usable_memory_at_most_physical(self):
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert 0 < lmglab.cli._usable_memory() <= physical


def test_peak_scan_failure_named_on_stderr(tmp_path):
    proc = run_cli("peak-scan", "--n", "16", "--gamma", "1", "--h-start", "0.6",
                   "--h-stop", "1.2", "--h-count", "13", "--out", str(tmp_path))
    assert proc.returncode == 3
    assert read_rows(tmp_path / "peaks.csv")[0]["status"].startswith('"failed:')
    assert "point N=16 h=0.6 tau=0.5 [finite-difference]: failed:" in proc.stderr


def strip_timestamps(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines()
        if not line.startswith("# timestamp:") and '"timestamp":' not in line
    )


@pytest.mark.parametrize("args, files", [
    (("sweep-tau", "--n", "16,8", "--h-list", "1.1,0.7", "--tau-list", "0.25,0.5",
      "--methods", "finite-difference,spectral", "--formats", "csv,json,plotscript"),
     ("sweep_tau.csv", "sweep_tau.json", "sweep_tau_eta.gp", "sweep_tau_entropy.gp")),
    (("compare", "--n", "16,8", "--h-list", "1.5,1.0,0.9", "--skip-errors"),
     ("compare.json", "compare.txt")),
    (("peak-scan", "--n", "24,16", "--h-start", "0.6", "--h-stop", "1.2",
      "--h-count", "13", "--methods", "spectral"),
     ("peaks.csv", "peaks.json")),
    # Large enough that an unpinned OpenBLAS would start threads.
    (("sweep-h", "--n", "1024", "--h-list", "0.9,1.0,1.1",
      "--methods", "finite-difference,spectral", "--formats", "csv,json"),
     ("sweep_h.csv", "sweep_h.json")),
])
def test_outputs_identical_across_jobs(tmp_path, args, files):
    # At the default thread count: no thread variable in the children.
    env = without_thread_vars()
    one = run_cli(*args, "--out", str(tmp_path / "a"), "--jobs", "1", check=True, env=env)
    two = run_cli(*args, "--out", str(tmp_path / "b"), "--jobs", "2", check=True, env=env)
    assert one.stdout.replace(str(tmp_path / "a"), "") == \
        two.stdout.replace(str(tmp_path / "b"), "")
    for name in files:
        a = strip_timestamps((tmp_path / "a" / name).read_text())
        b = strip_timestamps((tmp_path / "b" / name).read_text())
        assert a == b, name


def test_probe_warnings_reach_the_outputs(tmp_path):
    # At N = 4096, M = 1, h = 1 the delta-probe finds chi_g drifting 2e-3;
    # N = 1024 gives a second task, so --jobs 2 runs two workers on two CPUs.
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        proc = run_cli("sweep-h", "--gamma", "0.5", "--m", "1", "--n", "1024,4096",
                       "--h-list", "1.0", "--jobs", jobs, "--out", str(out), check=True)
        assert "DeltaProbeWarning:" not in proc.stderr
        csv_text = (out / "sweep_h.csv").read_text()
        doc = json.loads((out / "sweep_h.json").read_text())
        (warning,) = doc["warnings"]
        assert warning.startswith("point N=4096 h=1.0 tau=0.000244141 [finite-difference]: "
                                  "chi_g drifts ")
        assert f"# warning: {warning}\n" in csv_text
        assert f"warning: {warning}\n" in proc.stderr
        assert len(doc["rows"]) == 2 and set(doc["rows"][0]) == set(HEADER.split(","))
        outputs.append((strip_timestamps(csv_text),
                        strip_timestamps((out / "sweep_h.json").read_text()), proc.stderr))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("given, record", [
    ({}, dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                       {"value": "1", "set_by": "lmglab"})),
    ({"OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": {"value": "2", "set_by": "user"}}),
])
def test_json_records_blas_threads(tmp_path, given, record):
    run_cli("sweep-h", "--n", "8", "--h-list", "0.5", "--methods", "analytic",
            "--out", str(tmp_path), check=True, env={**without_thread_vars(), **given})
    doc = json.loads((tmp_path / "sweep_h.json").read_text())
    assert doc["blas_threads"] == {k: record.get(k) for k in BLAS_THREAD_VARS}


class TestSharedGroundStates:
    """One task per (N, h): its sweep_point calls share their ground states."""

    METHODS = ("finite-difference", "spectral")

    @pytest.mark.parametrize("h, solves", [
        (0.8, 7),  # h +- d/2, the probe's h +- d/4, h, and spectral's h +- d
        (0.0, 3),  # one-sided stencils: 0, d/2 and d
    ])
    def test_each_stencil_field_solved_once(self, tmp_path, monkeypatch, h, solves):
        fields = []

        def counting(params):
            fields.append(params.h)
            return ground_state(params)

        monkeypatch.setattr(lmglab.fidelity, "ground_state", counting)
        code = main(["sweep-tau", "--n", "16", "--gamma", "0.5", "--h-list", repr(h),
                     "--tau-list", "0.25,0.5,1.0", "--methods", ",".join(self.METHODS),
                     "--jobs", "1", "--out", str(tmp_path)])
        assert code == 0
        rows = json.loads((tmp_path / "sweep_tau.json").read_text())["rows"]
        assert [r["tau"] for r in rows] == [0.25] * 2 + [0.5] * 2 + [1.0] * 2
        assert len(fields) == solves
        assert len(set(fields)) == solves

    @pytest.mark.parametrize("n", [9, 16])
    @pytest.mark.parametrize("h", [0.0, 0.8, 1.0])
    def test_rows_equal_fresh_sweep_points(self, n, h):
        m_subs = (1, n // 2, n - 1, n)
        rows = _evaluate_task((n, 0.5, h, m_subs, None, self.METHODS))
        assert len(rows) == len(m_subs) * len(self.METHODS)
        for row, (m_sub, method) in zip(rows, product(m_subs, self.METHODS)):
            assert (row["tau"], row["method"]) == (m_sub / n, method)
            try:
                point = sweep_point(ModelParams(n, 0.5, h), Bipartition(n, m_sub),
                                    method=method)
            except (EigensolverError, ReducedDensityError, FidelityError,
                    ValueError) as exc:
                assert row["status"] == f"failed: {exc}"
                assert all(math.isnan(row[name]) for name in
                           ("chi_g", "chi_r", "eta", "entropy", "delta"))
            else:
                assert row["status"] == "ok"
                for name in ("chi_g", "chi_r", "eta", "entropy", "delta"):
                    assert row[name] == getattr(point, name), (m_sub, method, name)

    @pytest.mark.parametrize("m_subs", [(32,), (16, 32)])
    def test_rho_at_h_reduced_once_per_subsystem_size(self, monkeypatch, m_subs):
        # Per M at h = 0.8: rho_A at h +- d/2 (finite difference), h +- d
        # (spectral) and h, shared.  At h = 0 both stencils use 0 and d.
        calls = []

        def counting(state, part):
            calls.append((state.params.h, part.m_sub))
            return reduce_state(state, part)

        monkeypatch.setattr(lmglab.fidelity, "reduce_state", counting)
        for h, fields in ((0.8, 5), (0.0, 2)):
            calls.clear()
            rows = _evaluate_task((64, 0.5, h, m_subs, None, self.METHODS))
            assert [row["status"] for row in rows] == ["ok"] * len(rows)
            assert len(calls) == fields * len(m_subs)
            assert len(set(calls)) == len(calls)

    def test_crossing_fails_every_row_that_shares_the_state(self, tmp_path):
        # N = 9 at gamma = 0.5 has k-parity level crossings at h = 0 and near
        # h = 0.1572: the first row at each h solves the crossing state, the
        # later rows find it shared and must fail the same way.
        code = main(["sweep-tau", "--n", "9", "--gamma", "0.5", "--h-list", "0,0.157",
                     "--tau-list", "0.25,0.5,1.0", "--methods", ",".join(self.METHODS),
                     "--jobs", "1", "--out", str(tmp_path)])
        assert code == 3
        rows = json.loads((tmp_path / "sweep_tau.json").read_text())["rows"]
        assert len(rows) == 2 * 3 * len(self.METHODS)
        crossing = {0.0: 0.001, 0.157: 0.1575}
        for row in rows:
            assert row["status"] == (
                f"failed: stencil field h={crossing[row['h']]} lies across a k-parity "
                f"level crossing [h={row['h']}, delta=0.001]"
            )


# Runs its arguments as a command and prints its exit code and peak RSS in KiB.
PEAK_RSS_KIB = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


class TestReductionLifetime:
    """A task holds the reduced density matrices of one subsystem size at a time."""

    def test_earlier_sizes_freed_before_the_next_is_reduced(self, monkeypatch):
        alive = []  # (M, weakref to its reduction)
        checked = []

        def tracking(state, part):
            if alive and part.m_sub != alive[-1][0]:  # the first field of a new M
                gc.collect()
                held = sorted({m for m, ref in alive if ref() is not None})
                assert held == [], f"reductions of M={held} alive while M={part.m_sub} starts"
                checked.append(part.m_sub)
            rho = reduce_state(state, part)
            alive.append((part.m_sub, weakref.ref(rho)))
            return rho

        monkeypatch.setattr(lmglab.fidelity, "reduce_state", tracking)
        rows = _evaluate_task((64, 0.5, 0.8, (8, 16, 32, 48), None,
                               ("finite-difference", "spectral")))
        assert [row["status"] for row in rows] == ["ok"] * 8
        assert checked == [16, 32, 48]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_maxrss is in KiB on Linux only")
    def test_peak_memory_does_not_grow_with_the_tau_grid(self, tmp_path):
        def peak_rss_mb(tau_start, tau_stop, tau_count):
            # A child's ru_maxrss starts at its parent's resident size, which
            # grows over a test session, so a bare interpreter starts the CLI
            # and reports the CLI's own peak, from os.wait4.
            cli = [sys.executable, "-m", "lmglab.cli", "sweep-tau", "--n", "2048",
                   "--h-list", "0.5", "--tau-start", tau_start, "--tau-stop", tau_stop,
                   "--tau-count", tau_count, "--methods", "finite-difference,spectral",
                   "--formats", "csv", "--jobs", "1", "--out", str(tmp_path / tau_count)]
            code, kib = subprocess.run([sys.executable, "-c", PEAK_RSS_KIB, *cli],
                                       capture_output=True, text=True,
                                       check=True).stdout.split()
            assert code == "0"
            return int(kib) / 1024.0

        few = peak_rss_mb("0.2", "0.8", "4")
        many = peak_rss_mb("0.05", "0.95", "16")
        assert many - few < 2.0, (few, many)


FORKED_POOL = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                 reason="the patch reaches pool workers only when they are forked")


class TestMemoryErrorIsAFailedPoint:
    """A MemoryError or ArithmeticError inside one point fails that point, not the run."""

    @pytest.mark.parametrize("error, status", [
        (MemoryError(), "failed: MemoryError"),
        (MemoryError("cannot allocate"), "failed: MemoryError: cannot allocate"),
        (OverflowError("math range error"), "failed: OverflowError: math range error"),
        (ZeroDivisionError("float division by zero"),
         "failed: ZeroDivisionError: float division by zero"),
    ])
    @pytest.mark.parametrize("jobs", [
        1,
        pytest.param(2, marks=FORKED_POOL),
    ])
    def test_other_rows_written_and_exit_3(self, tmp_path, monkeypatch, capsys,
                                           jobs, error, status):
        def out_of_memory_at_96(params):
            if params.n == 96:
                raise error
            return ground_state(params)

        monkeypatch.setattr(lmglab.fidelity, "ground_state", out_of_memory_at_96)
        monkeypatch.setattr(lmglab.cli, "_usable_cpus", lambda: 2)
        code = main(["sweep-h", "--n", "64,96", "--h-list", "0.5,1.5",
                     "--jobs", str(jobs), "--out", str(tmp_path)])
        assert code == 3
        rows = read_rows(tmp_path / "sweep_h.csv")
        assert [(r["N"], r["status"]) for r in rows] == \
            [("64", "ok")] * 2 + [("96", status)] * 2
        err = capsys.readouterr().err
        assert err.count("point N=96 ") == 2 and err.count(status) == 2

    @pytest.mark.parametrize("args, failed_h, status", [
        # chi_g underflows to 0, and eta divides by it.
        (("--h-list", "0.5,1e100", "--methods", "analytic"), "1.000000000000e+100",
         "failed: ZeroDivisionError: float division by zero"),
    ], ids=["huge-h"])
    def test_extreme_step_or_field_fails_its_point(self, tmp_path, args, failed_h, status):
        proc = run_cli("sweep-h", "--n", "8", *args, "--jobs", "1", "--out", str(tmp_path))
        assert proc.returncode == 3
        assert f"point N=8 h={float(failed_h):g} tau=0.5" in proc.stderr
        rows = read_rows(tmp_path / "sweep_h.csv")
        for row in rows:
            assert row["status"] == (status if row["h"] == failed_h else "ok")
            if row["h"] == failed_h:
                assert row["chi_g"] == row["chi_r"] == row["eta"] == "nan"


LOST = "failed: pool worker lost: "


class TestLostPoolWorker:
    """A pool worker that dies fails its tasks' rows; the rows already returned stay."""

    @FORKED_POOL
    @pytest.mark.parametrize("skip_errors, code", [((), 3), (("--skip-errors",), 0)])
    def test_returned_rows_kept_and_lost_rows_failed(self, tmp_path, monkeypatch, capsys,
                                                     skip_errors, code):
        real = lmglab.cli._evaluate_task
        done = tmp_path / "done"
        done.mkdir()

        # Forked workers see the patched module global that _evaluate_chunk calls.
        def killed_at_96(task):
            n, _, h = task[:3]
            if n == 96:
                # Die only after both N = 64 tasks have returned, so that which
                # rows are lost does not depend on scheduling.
                deadline = time.monotonic() + 60.0
                while len(list(done.iterdir())) < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.2)
                os._exit(137)
            rows = real(task)
            (done / str(h)).touch()
            return rows

        monkeypatch.setattr(lmglab.cli, "_evaluate_task", killed_at_96)
        monkeypatch.setattr(lmglab.cli, "_usable_cpus", lambda: 2)
        assert main(["sweep-h", "--n", "64,96", "--h-list", "0.5,1.5", "--jobs", "2",
                     *skip_errors, "--out", str(tmp_path / "o")]) == code
        for name in ("sweep_h.csv", "sweep_h.json"):
            assert (tmp_path / "o" / name).exists()
        rows = read_rows(tmp_path / "o" / "sweep_h.csv")
        assert [(r["N"], r["h"]) for r in rows] == \
            [(n, h) for n in ("64", "96") for h in ("5.000000000000e-01", "1.500000000000e+00")]
        assert [r["status"] for r in rows[:2]] == ["ok"] * 2
        assert all(math.isfinite(float(r["chi_r"])) for r in rows[:2])
        rows = json.loads((tmp_path / "o" / "sweep_h.json").read_text())["rows"]
        assert all(r["status"].startswith(LOST) for r in rows[2:])
        assert all(r["chi_r"] is None for r in rows[2:])
        err = capsys.readouterr().err
        assert err.count("point N=96 ") == 2 and err.count(LOST) == 2

    @FORKED_POOL
    def test_healthy_task_running_when_a_worker_dies_is_rerun(self, tmp_path, monkeypatch,
                                                              capsys):
        real = lmglab.cli._evaluate_task
        marker = tmp_path / "dying"

        def killed_at_96(task):
            n, _, h = task[:3]
            if n == 96:
                marker.touch()
                time.sleep(0.2)
                os._exit(137)
            if h == 1.5:
                # Still running when the N = 96 worker dies, so the broken
                # pool fails it with the dead worker's task.
                deadline = time.monotonic() + 60.0
                while not marker.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(1.0)
            return real(task)

        monkeypatch.setattr(lmglab.cli, "_evaluate_task", killed_at_96)
        monkeypatch.setattr(lmglab.cli, "_usable_cpus", lambda: 2)
        assert main(["sweep-h", "--n", "64,96", "--h-list", "0.5,1.5", "--jobs", "2",
                     "--out", str(tmp_path / "o")]) == 3
        rows = json.loads((tmp_path / "o" / "sweep_h.json").read_text())["rows"]
        assert [(r["N"], r["h"]) for r in rows] == [(64, 0.5), (64, 1.5), (96, 0.5), (96, 1.5)]
        assert [r["status"] for r in rows[:2]] == ["ok"] * 2
        assert all(r["status"].startswith(LOST) for r in rows[2:])
        err = capsys.readouterr().err
        assert err.count("point N=96 ") == 2 and err.count(LOST) == 2

    def test_pool_broken_while_tasks_are_submitted(self, tmp_path, monkeypatch):
        # Tasks the broken pool refuses are lost like the ones it had taken.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        real = ProcessPoolExecutor.submit
        submitted = []

        def broken_after_two(pool, *args):
            submitted.append(args)
            if len(submitted) > 2:
                raise BrokenProcessPool("not usable anymore")
            return real(pool, *args)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", broken_after_two)
        monkeypatch.setattr(lmglab.cli, "_usable_cpus", lambda: 2)
        assert main(["sweep-h", "--n", "8,16", "--h-list", "0.5,1.5", "--jobs", "2",
                     "--out", str(tmp_path)]) == 3
        rows = read_rows(tmp_path / "sweep_h.csv")
        assert [(r["N"], r["status"]) for r in rows] == \
            [("8", "ok")] * 2 + [("16", f"{LOST}not usable anymore")] * 2


def gp_text(stem, x, y, x_col, y_col, series, logscale=False):
    """The gnuplot file the writer is pinned to, written out line by line."""
    lines = [
        f"# lmglab {lmglab.__version__} gnuplot commands: {y} vs {x}",
        "set datafile separator ','",
        "set key top left",
        f"set xlabel '{x}'",
        f"set ylabel '{y}'",
        *(["set logscale y"] if logscale else []),
        "plot \\",
    ]
    plots = [f"  '{stem}.csv' using (column(2)=={n} && strcol(8) eq '{method}' ? "
             f"column({x_col}) : NaN):(column({y_col})) with linespoints "
             f"title 'N={n} {method}'" for n, method in series]
    return "\n".join(lines) + "\n" + ", \\\n".join(plots) + "\n"


class TestPlotscripts:
    def test_sweep_h_files(self, tmp_path):
        code = main(["sweep-h", "--n", "16,8", "--h-list", "0.5,1.5", "--methods",
                     "finite-difference,analytic", "--formats", "csv,plotscript",
                     "--jobs", "1", "--out", str(tmp_path)])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "sweep_h.csv", "sweep_h_chi_r.gp", "sweep_h_entropy.gp", "sweep_h_eta.gp"]
        series = [(8, "analytic"), (8, "finite-difference"),
                  (16, "analytic"), (16, "finite-difference")]
        assert (tmp_path / "sweep_h_chi_r.gp").read_text() == \
            gp_text("sweep_h", "h", "chi_r", 1, 5, series, logscale=True)
        assert (tmp_path / "sweep_h_eta.gp").read_text() == \
            gp_text("sweep_h", "h", "eta", 1, 6, series)
        assert (tmp_path / "sweep_h_entropy.gp").read_text() == \
            gp_text("sweep_h", "h", "entropy", 1, 7, series)

    def test_sweep_tau_files(self, tmp_path):
        code = main(["sweep-tau", "--n", "8", "--h-list", "0.5", "--tau-list", "0.25,0.5",
                     "--formats", "csv,plotscript", "--jobs", "1", "--out", str(tmp_path)])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "sweep_tau.csv", "sweep_tau_entropy.gp", "sweep_tau_eta.gp"]
        series = [(8, "finite-difference")]
        assert (tmp_path / "sweep_tau_eta.gp").read_text() == \
            gp_text("sweep_tau", "tau", "eta", 3, 6, series)
        assert (tmp_path / "sweep_tau_entropy.gp").read_text() == \
            gp_text("sweep_tau", "tau", "entropy", 3, 7, series)


PEAK_H = ("0.6,0.65,0.7,0.75,0.7999999999999999,0.85,0.8999999999999999,0.95,1.0,"
          "1.0499999999999998,1.0999999999999999,1.15,1.2")


@pytest.mark.parametrize("args, text_file, json_file, line, echo", [
    (("sweep-h", "--n", "16,8", "--gamma", "0.25", "--h-list", "0.5,1.5",
      "--methods", "analytic"),
     "sweep_h.csv", "sweep_h.json",
     "# config: command=sweep-h delta=auto formats=csv,json gamma=0.25 h_values=0.5,1.5 "
     "m=None methods=analytic n=16,8 skip_errors=False tau=0.5",
     {"command": "sweep-h", "delta": "auto", "formats": "csv,json", "gamma": 0.25,
      "h_values": "0.5,1.5", "m": None, "methods": "analytic", "n": "16,8",
      "skip_errors": False, "tau": 0.5}),
    (("sweep-tau", "--n", "8", "--h-list", "0.5", "--tau-start", "0.25", "--tau-stop",
      "0.75", "--tau-count", "3", "--delta", "0.002", "--methods", "spectral",
      "--skip-errors"),
     "sweep_tau.csv", "sweep_tau.json",
     "# config: command=sweep-tau delta=0.002 formats=csv,json gamma=0.5 h_values=0.5 "
     "methods=spectral n=8 skip_errors=True tau_values=0.25,0.5,0.75",
     {"command": "sweep-tau", "delta": 0.002, "formats": "csv,json", "gamma": 0.5,
      "h_values": "0.5", "methods": "spectral", "n": "8",
      "skip_errors": True, "tau_values": "0.25,0.5,0.75"}),
    (("compare", "--n", "8", "--m", "2", "--h-list", "0.5,1.5"),
     "compare.txt", "compare.json",
     "config: command=compare delta=auto gamma=0.5 h_values=0.5,1.5 m=2 "
     "methods=finite-difference,analytic n=8 skip_errors=False tau=0.5",
     {"command": "compare", "delta": "auto", "gamma": 0.5,
      "h_values": "0.5,1.5", "m": 2, "methods": "finite-difference,analytic", "n": "8",
      "skip_errors": False, "tau": 0.5}),
    (("peak-scan", "--n", "16", "--h-start", "0.6", "--h-stop", "1.2", "--h-count", "13",
      "--tau", "0.25", "--check"),
     "peaks.csv", "peaks.json",
     "# config: check=True command=peak-scan delta=auto gamma=0.5 "
     f"h_values={PEAK_H} m=None methods=finite-difference n=16 "
     "skip_errors=False tau=0.25",
     {"check": True, "command": "peak-scan", "delta": "auto",
      "gamma": 0.5, "h_values": PEAK_H, "m": None, "methods": "finite-difference",
      "n": "16", "skip_errors": False, "tau": 0.25}),
], ids=["sweep-h", "sweep-tau", "compare", "peak-scan"])
def test_config_echo_pinned(tmp_path, args, text_file, json_file, line, echo):
    assert main([*args, "--jobs", "1", "--out", str(tmp_path)]) == 0
    text = (tmp_path / text_file).read_text().splitlines()
    assert [l for l in text if l.startswith(("# config:", "config:"))] == [line]
    assert json.loads((tmp_path / json_file).read_text())["config"] == echo


def echo_keys_of_options(command: str) -> set[str]:
    """The keys a subcommand's outputs record, worked out from its flags."""
    keys = {"command"}
    for commands, flag, _ in lmglab.cli._OPTIONS:
        key = flag[2:].replace("-", "_")
        if command not in commands or key in ("out", "jobs", "config"):
            continue
        # A grid's list and start/stop/count flags are recorded as its values.
        keys.add(key.split("_")[0] + "_values" if key.startswith(("h_", "tau_")) else key)
    return keys


@pytest.mark.parametrize("command, echo_file", [
    ("sweep-h", "sweep_h.csv"), ("sweep-tau", "sweep_tau.csv"),
    ("compare", "compare.txt"), ("peak-scan", "peaks.csv"),
])
def test_echo_records_the_keys_of_the_subcommands_flags(tmp_path, command, echo_file):
    # The file carries keys of every subcommand; each records only its own.
    cfg = write_config(tmp_path, "tau = 0.5\n" "m = 4\n" "formats = csv\n" "check = no\n"
                       "tau-list = 0.5\n")
    code = main([command, "--config", str(cfg), "--n", "16", "--h-start", "0.6",
                 "--h-stop", "1.2", "--h-count", "12", "--jobs", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 0
    line = next(l for l in (tmp_path / "o" / echo_file).read_text().splitlines()
                if l.startswith(("# config:", "config:")))
    assert {item.split("=")[0] for item in line.split(": ", 1)[1].split(" ")} == \
        echo_keys_of_options(command)


@pytest.mark.parametrize("command", ["compare", "peak-scan"])
def test_formats_flag_only_on_sweeps(tmp_path, capsys, command):
    code = main([command, "--n", "16", "--h-start", "0.6", "--h-stop", "1.2",
                 "--h-count", "13", "--formats", "csv", "--jobs", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "unrecognized arguments: --formats csv\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


TOP_USAGE = "usage: lmglab [-h] [--version] {sweep-h,sweep-tau,compare,peak-scan} ...\n"


@pytest.mark.parametrize("argv, message", [
    (["sweep-h", "--n", "8", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
])
def test_bad_flags_print_argparse_usage(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{TOP_USAGE}lmglab: error: {message}\n"


def test_unusable_out_fails_before_any_point(tmp_path, monkeypatch):
    blocker = tmp_path / "afile"
    blocker.write_text("")

    def no_compute(task):
        raise AssertionError(f"point computed before --out was checked: {task}")

    monkeypatch.setattr(lmglab.cli, "_evaluate_task", no_compute)
    assert main(["sweep-h", "--n", "8", "--h-list", "0.5", "--jobs", "1",
                 "--out", str(blocker / "sub")]) == 2


@pytest.mark.parametrize("flags", [("--m", "5"), ("--tau", "0.3"),
                                   ("--m", "5", "--methods", "spectral")])
def test_sweep_tau_rejects_fixed_subsystem_flags(tmp_path, capsys, flags):
    # sweep-tau takes M from its tau grid; a fixed M or tau would be ignored.
    code = main(["sweep-tau", "--n", "16", "--h-list", "0.5", "--tau-list", "0.25,0.5",
                 *flags, "--jobs", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"unrecognized arguments: {' '.join(flags[:2])}\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_tau_ignores_fixed_subsystem_keys_in_config(tmp_path):
    # A config file may carry other subcommands' keys; sweep-tau neither
    # checks nor uses m and tau, even out of range.
    cfg = write_config(tmp_path, "tau = 1.5\n" "m = 99\n")
    code = main(["sweep-tau", "--config", str(cfg), "--n", "16", "--h-list", "0.5",
                 "--tau-list", "0.25,0.5", "--jobs", "1", "--out", str(tmp_path / "o")])
    assert code == 0
    rows = read_rows(tmp_path / "o" / "sweep_tau.csv")
    assert [(int(r["N"]), float(r["tau"])) for r in rows] == [(16, 0.25), (16, 0.5)]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_format_list_usage_error(tmp_path, capsys, source):
    cfg = write_config(tmp_path, "formats =\n")
    given = ["--formats", ""] if source == "flag" else ["--config", str(cfg)]
    code = main(["sweep-h", "--n", "8", "--h-list", "0.5", *given, "--jobs", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == "lmglab: error: empty format list\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_repeated_format_usage_error(tmp_path, capsys, source):
    cfg = write_config(tmp_path, "formats = csv,json,csv\n")
    given = ["--formats", "csv,json,csv"] if source == "flag" else ["--config", str(cfg)]
    code = main(["sweep-h", "--n", "8", "--h-list", "0.5", *given, "--jobs", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == "lmglab: error: format given more than once: csv\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_plotscript_without_csv_usage_error(tmp_path, capsys, source):
    cfg = write_config(tmp_path, "formats = json,plotscript\n")
    given = ["--formats", "json,plotscript"] if source == "flag" else ["--config", str(cfg)]
    code = main(["sweep-h", "--n", "8", "--h-list", "0.5,0.6", *given, "--jobs", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (
        "lmglab: error: format 'plotscript' needs 'csv': its gnuplot files read the CSV\n")
    assert not (tmp_path / "o").exists()


def test_csv_quotes_commas_quotes_and_newlines(tmp_path):
    # RFC 4180 quoting: a field holding a comma, a double quote or a newline
    # is quoted, and a double quote inside it is doubled.
    rows = [dict.fromkeys(lmglab.cli.COLUMNS, math.nan) for _ in range(3)]
    for row, status in zip(rows, ['failed: bad "x", at h=0.5', "failed: a\nb", "ok"]):
        row.update(N=8, method="analytic", status=status)
    config = {"command": "sweep-h", "delta": None, "n": [8]}
    lmglab.cli.write_csv(tmp_path / "q.csv", rows, config, [])
    assert (tmp_path / "q.csv").read_text().split("\n")[4:] == [
        'nan,8,nan,nan,nan,nan,nan,analytic,nan,"failed: bad ""x"", at h=0.5"',
        'nan,8,nan,nan,nan,nan,nan,analytic,nan,"failed: a',
        'b"',
        "nan,8,nan,nan,nan,nan,nan,analytic,nan,ok",
        "",
    ]


@pytest.mark.parametrize("command, flag, value, expected", [
    ("sweep-h", "--n", "8,x", "expected comma-separated integers, got '8,x'"),
    ("sweep-h", "--h-list", "0.5,y", "expected comma-separated numbers, got '0.5,y'"),
    ("sweep-tau", "--tau-list", "z", "expected comma-separated numbers, got 'z'"),
    ("sweep-h", "--delta", "x", "delta must be finite and positive, or 'auto', got 'x'"),
])
def test_bad_flag_value_names_expected_form(tmp_path, capsys, command, flag, value,
                                            expected):
    tau_grid = ["--tau-list", "0.5"] if command == "sweep-tau" else []
    code = main([command, "--n", "8", "--h-list", "0.5", *tau_grid, flag, value,
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"lmglab {command}: error: argument {flag}: {expected}\n" in err
    assert "_parse" not in err
    assert not (tmp_path / "o").exists()


def test_bad_config_value_names_line_and_expected_form(tmp_path, capsys):
    cfg = write_config(tmp_path, "h-list = 0.5\n" "n = x\n")
    assert main(["sweep-h", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"lmglab: error: {cfg}:2: bad value for n: "
        "expected comma-separated integers, got 'x'\n")


def test_left_off_n_and_out_take_their_defaults(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["compare", "--h-list", "1.5", "--jobs", "1"]) == 0
    rows = json.loads((tmp_path / "out" / "compare.json").read_text())["rows"]
    assert sorted({row["N"] for row in rows}) == [64, 128, 256, 512]


def test_jobs_defaults_to_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(lmglab.cli, "_usable_cpus", lambda: 3)
    args = lmglab.cli.build_parser().parse_args(["sweep-h", "--h-list", "0.5"])
    assert lmglab.cli.config_from_args(args)["jobs"] == 3
