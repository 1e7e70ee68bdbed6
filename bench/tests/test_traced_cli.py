import json
import os
import subprocess
import sys
from pathlib import Path

import metrics

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"


def traced_run(tmp_path, *cli_args):
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "traced_cli.py"), str(trace_dir), *cli_args,
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for path in sorted(trace_dir.glob("spans-*.jsonl"))
            for line in path.read_text().splitlines()]


def test_spectral_run_decomposes_only_the_middle_state(tmp_path):
    spans = traced_run(tmp_path, "sweep-h", "--n", "16", "--h-list", "0.7,1.3",
                       "--methods", "spectral", "--jobs", "1")
    out = metrics.invocation_layers(spans, wall_s=10.0, setup_s=0.0)
    assert out["fidelity.sweep_point.calls"] == 2
    assert out["reduced.reduce_state.calls"] == 6  # rho(h - d), rho(h), rho(h + d)
    assert out["reduced.decomposition.calls"] == 2  # rho(h) only
    assert out["fidelity.fs_spectral.calls"] == 2
    assert out["fidelity.uhlmann_fidelity.calls"] == 0
    assert out["model.ground_state.calls"] == 2 * 7
    assert out["cli.writers.calls"] == 2  # csv and json
    assert out["cli.writers.bytes"] > 0
    assert out["cli.pool.workers"] == 1


def test_pool_workers_report_their_spans(tmp_path):
    spans = traced_run(tmp_path, "sweep-h", "--n", "16,24", "--h-list", "0.7,0.9,1.1,1.3",
                       "--methods", "finite-difference,analytic", "--jobs", "2")
    out = metrics.invocation_layers(spans, wall_s=10.0, setup_s=0.0)
    main_pid = next(s["pid"] for s in spans if s["name"] == "cli.pool")
    task_pids = {s["pid"] for s in spans if s["name"] == "cli.pool.task"}
    assert main_pid not in task_pids
    assert out["cli.pool.workers"] == len(task_pids) >= 1
    assert out["fidelity.sweep_point.calls"] == 8
    assert out["fidelity.uhlmann_fidelity.calls"] == 8
    assert out["analytic.calls"] == 8 * 3
    # Every worker span's parent lies in the worker itself.
    ids = {(s["pid"], s["id"]) for s in spans}
    assert all(s["parent"] is None or (s["pid"], s["parent"]) in ids for s in spans)
