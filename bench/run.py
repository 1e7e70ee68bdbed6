"""Benchmark of the lmglab CLI: each workload is one CLI invocation.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop: one fresh ``python3 -m lmglab`` process at a
time, the next started only after the previous one ended, for about S
seconds (at least one run).  The CLI comes from ``src/`` of this checkout;
no BLAS or OpenMP thread variable is set, so the CLI and its pool workers
run with the threading they inherit.

Every CLI run's output is checked (see check.py).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced CLI runs
(see tracing.py) and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted`` (CLI
runs), ``failed`` (CLI runs that crashed, timed out or wrote no output) and
``metrics`` (medians); the lines before it give each metric's median, tail
and sample count, and the environment.  The exit code is 0 when every
output is correct, 1 when not, 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import check
import metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH / "reference"
TMP_ROOT = ROOT / ".bench_tmp"
SETUP_SAMPLES = 5
# A benchmark run must end within 180 s: no CLI run starts after START_LIMIT_S,
# and none may last beyond HARD_LIMIT_S from the benchmark's start.
START_LIMIT_S = 100.0
HARD_LIMIT_S = 170.0

ENV_SCRIPT = r"""
import json, platform
import numpy, scipy, lmglab
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError):
    blas = {}
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "lmglab": lmglab.__version__,
    "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
}))
"""


class CheckoutError(RuntimeError):
    """The checkout holds no lmglab source to benchmark."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], timeout: float, stdout=subprocess.DEVNULL,
              stderr=subprocess.DEVNULL) -> tuple[float, object, int | None]:
    """Run one process to completion: (wall_s, rusage, exit code or None on timeout).

    The rusage is the child's own, from ``os.wait4``: it covers the child
    and the workers it waited for, never earlier runs.  On timeout the whole
    process group is killed and waited for.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=stdout, stderr=stderr,
                            start_new_session=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        _kill_group(proc.pid)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _wait_group(proc.pid)
    return wall, rusage, None if timed_out.is_set() else proc.returncode


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group(pgid: int) -> None:
    """Wait until no process of the group is left (pool workers of a killed CLI)."""
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    _kill_group(pgid)


def measure_setup(count: int) -> list[float]:
    """Wall times of fresh interpreters importing lmglab.cli."""
    walls = []
    for _ in range(count):
        wall, _, code = run_child([sys.executable, "-c", "import lmglab.cli"], timeout=60.0)
        if code != 0:
            raise CheckoutError(f"importing lmglab.cli from {ROOT / 'src'} failed")
        walls.append(wall)
    return walls


def environment(jobs: int) -> dict:
    out = subprocess.run([sys.executable, "-c", ENV_SCRIPT], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    env = json.loads(out.stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env.update({
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "jobs": jobs,
        "thread_vars": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
    })
    return env


def run_cli(workload, seed: int, out_dir: Path, trace_dir: Path | None, timeout: float,
            reference: list[dict]):
    """One CLI run; returns (Invocation or None if it failed, spans, errors, notes)."""
    argv = workload.argv(seed) + ["--out", str(out_dir)]
    if trace_dir is None:
        cmd = [sys.executable, "-m", "lmglab", *argv]
    else:
        trace_dir.mkdir()
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_dir), *argv]
    stderr_path = out_dir.with_suffix(".stderr")
    with open(stderr_path, "w") as err:
        wall, rusage, code = run_child(cmd, timeout, stderr=err)
    csvs = sorted(out_dir.glob("*.csv"))
    if code is None or code not in (0, 3) or len(csvs) != 1:
        reason = "timed out" if code is None else f"exit code {code}, {len(csvs)} CSV files"
        tail = stderr_path.read_text()[-2000:]
        return None, [], [f"CLI run failed ({reason}): {' '.join(cmd)}\n{tail}"], []

    rows = check.read_rows(csvs[0])
    errors, notes = check.check_rows(rows, code, reference, compare_values=seed == 0)
    errors += check_files(workload, out_dir, len(rows))
    spans = []
    if trace_dir is not None:
        for path in sorted(trace_dir.glob("spans-*.jsonl")):
            spans += [json.loads(line) for line in path.read_text().splitlines()]
    inv = metrics.Invocation(
        wall_s=wall,
        cpu_s=rusage.ru_utime + rusage.ru_stime,
        peak_rss_mb=rusage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        rows=len(rows),
        numeric_rows=sum(row["method"] != "analytic" for row in rows),
        failed_rows=check.count_failures(rows),
    )
    return inv, spans, errors, notes


def check_files(workload, out_dir: Path, csv_rows: int) -> list[str]:
    """Every requested format was written, and the JSON holds the CSV's rows."""
    formats = workload.args[workload.args.index("--formats") + 1].split(",")
    errors = []
    if "json" in formats:
        docs = sorted(out_dir.glob("*.json"))
        if len(docs) != 1 or len(json.loads(docs[0].read_text())["rows"]) != csv_rows:
            errors.append("the JSON output is missing or does not hold the CSV's rows")
    if "plotscript" in formats and not any(out_dir.glob("*.gp")):
        errors.append("no gnuplot script was written")
    return errors


def report(name: str, unit: str, values: list[float]) -> str:
    pct, tail_value = metrics.tail(values)
    return (f"{name:<34} median {statistics.median(values):.6g} {unit}  "
            f"p{pct:g} {tail_value:.6g}  n={len(values)}")


def benchmark(workload, seed: int, seconds: float, trace: bool, tmp: Path) -> int:
    started = time.perf_counter()
    reference = check.read_rows(REFERENCE_DIR / f"{workload.name}.csv")
    env = environment(workload.jobs or os.cpu_count() or 1)
    setup = measure_setup(SETUP_SAMPLES)

    untraced: list[metrics.Invocation] = []
    traced: list[tuple[list[dict], float]] = []
    attempted = failed = 0
    errors: list[str] = []
    notes: list[str] = []
    window_end = time.perf_counter() + seconds
    while True:
        # In a traced run, untraced and traced CLI runs alternate.
        trace_dir = tmp / f"trace{attempted}" if trace and attempted % 2 else None
        out_dir = tmp / f"run{attempted}"
        remaining = HARD_LIMIT_S - (time.perf_counter() - started)
        inv, spans, errs, nts = run_cli(workload, seed, out_dir, trace_dir, remaining, reference)
        attempted += 1
        errors += errs
        notes += nts
        if inv is None:
            failed += 1
            break
        if trace_dir is None:
            untraced.append(inv)
        else:
            traced.append((spans, inv.wall_s))
        now = time.perf_counter()
        if now - started > START_LIMIT_S:
            break
        if trace and not traced:
            continue
        if now + statistics.median(i.wall_s for i in untraced) > window_end:
            break

    print(f"workload {workload.name} seed {seed}: lmglab {' '.join(workload.argv(seed))}")
    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(f"note: {note}")
    for error in errors:
        print(f"error: {error}")
    result = {"correct": not errors and not failed, "attempted": attempted, "failed": failed,
              "metrics": {}}
    if untraced and (traced or not trace):
        last = untraced[-1]
        print(f"rows per CLI run: {last.rows} ({last.numeric_rows} numeric), "
              f"{last.failed_rows} failed or singular")
        walls = [i.wall_s for i in untraced]
        print("wall_s samples: " + " ".join(f"{w:.3f}" for w in walls))
        if trace:
            samples = metrics.per_layer(traced, walls, statistics.median(setup))
            units = metrics.PER_LAYER_UNITS
            layer_s = statistics.median(metrics.cli_process_self_s(spans) for spans, _ in traced)
            rest = statistics.median(walls) - statistics.median(setup) - layer_s
            print(f"untraced wall_s {statistics.median(walls):.4f} = setup_s "
                  f"{statistics.median(setup):.4f} + layer self time in the CLI process "
                  f"{layer_s:.4f} + unaccounted {rest:.4f}")
        else:
            samples = metrics.end_to_end(untraced, setup)
            units = metrics.END_TO_END_UNITS
        for name, unit in units.items():
            print(report(name, unit, samples[name]))
            result["metrics"][name] = {"value": statistics.median(samples[name]), "unit": unit}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lmglab" / "cli.py").is_file():
        print(f"error: no lmglab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        return benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), tmp)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
