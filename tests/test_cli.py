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
    "seedless = yes\n"
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
                     "formats=csv", "skip_errors=True", "seedless=True"):
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

    def test_compare_every_key(self, tmp_path):
        cfg = write_config(tmp_path, SHARED_KEYS +
                           "methods = finite-difference,analytic\n"
                           "skip-errors = 1\n" f"out = {tmp_path / 'o'}\n")
        run_cli("compare", "--config", str(cfg), check=True)
        report = json.loads((tmp_path / "o" / "compare.json").read_text())
        assert report["config"]["m"] == 8 and report["config"]["skip_errors"] is True
        assert report["config"]["h_values"] == "0.6,0.7,0.8,0.9,1.0,1.1,1.2"
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
        assert " check=True" in echo and " delta=auto" in echo

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
        cfg = write_config(tmp_path, "n = 8\n" "h-list = 0.5\n" f"seedless = {spelling}\n"
                           f"skip-errors = {spelling}\n" f"out = {tmp_path}\n")
        run_cli("sweep-h", "--config", str(cfg), check=True)
        echo = config_echo(tmp_path / "sweep_h.csv")
        assert f" seedless={value}" in echo and f" skip_errors={value}" in echo

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

    @pytest.mark.parametrize("grid", [("--h-list", "0.5,1.5,1.0"),
                                      ("--tau-list", "0.5,0.25,0.75")])
    def test_non_monotone_grid_usage_error(self, tmp_path, grid):
        proc = run_cli("sweep-tau", "--n", "8", "--h-list", "0.5", "--tau-list", "0.5",
                       *grid, "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "grid must be strictly monotone" in proc.stderr

    def test_tau_grid_range_error(self, tmp_path):
        proc = run_cli("sweep-tau", "--n", "8", "--h-list", "0.5", "--tau-list", "-1",
                       "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "tau grid values must lie in (0, 1]" in proc.stderr

    def test_isotropic_gamma_accepted(self, tmp_path):
        # gamma = 1 is in range; its points fail numerically, not as usage.
        proc = run_cli("sweep-h", "--n", "8", "--h-list", "0.5", "--gamma", "1",
                       "--tau", "1", "--out", str(tmp_path))
        assert proc.returncode == 3
        assert read_rows(tmp_path / "sweep_h.csv")[0]["status"].startswith('"failed:')


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
      "--h-count", "13", "--methods", "spectral,finite-difference"),
     ("peaks.csv", "peaks.json")),
])
def test_outputs_identical_across_jobs(tmp_path, args, files):
    one = run_cli(*args, "--out", str(tmp_path / "a"), "--jobs", "1", check=True)
    two = run_cli(*args, "--out", str(tmp_path / "b"), "--jobs", "2", check=True)
    assert one.stdout.replace(str(tmp_path / "a"), "") == \
        two.stdout.replace(str(tmp_path / "b"), "")
    for name in files:
        a = strip_timestamps((tmp_path / "a" / name).read_text())
        b = strip_timestamps((tmp_path / "b" / name).read_text())
        assert a == b, name
