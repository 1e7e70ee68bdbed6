"""Command-line driver: parameter sweeps, numeric-vs-analytic comparison,
figure data files, and peak scans.

Subcommands
-----------
sweep-h    chi_g, chi_r, eta and entropy over an h grid, per system size.
sweep-tau  the same quantities over a subsystem-fraction grid at fixed h;
           M comes from the tau grid, so --tau and --m are not accepted,
           and tau values that round to the same M give one row.
compare    per-point relative deviation of numeric results from the
           closed forms, plus critical-exponent fits at --tau, which its
           outputs name even when --m sets the rows' M; it needs
           'analytic' and at least one numeric method in --methods.
peak-scan  location and height of the chi_r peak per system size, for
           exactly one numeric method.  A peak on the h grid's edge is
           written as a failed row.

Only the sweeps take --formats, and plotscript needs csv, the file its
gnuplot commands read; compare and peak-scan write fixed files.
Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numerical failure
at one or more points or peaks (suppressed by --skip-errors).  The --out
directory is created and checked to be writable before any point is
computed.  Flags must be spelled out in full.

Configuration may come from a flat ``key=value`` file (--config) whose
keys are the long flag names.  Each key takes the flag given on the
command line, else the config-file value, else the built-in default.  A
file may carry any subcommand's keys; a subcommand reads, checks and
records only the keys of its own flags.  A grid given on the command
line, as a list or as start/stop/count, replaces the config file's grid
in either form.  Each value is checked by the library's own rule for it,
and a value the library rejects is a usage error naming its flag: a
system size below 2, --gamma outside [0, 1], --tau or a tau grid value
outside (0, 1], an h grid value that is not finite and >= 0, --m outside
[1, N], a --delta that is not finite and positive or whose square is not
a normal float, and, with a numeric method, an automatic step
(1e-3 * max(1, h) at the grid's largest h) whose square is not.  A
system size, method or format given twice is a usage error too, and so
is a grid whose output rows would not fit in the memory the process may
use.

All four subcommands evaluate the same kind of grid of independent
points, one task per (N, h) pair, dispatched to a process pool sized by
--jobs.  A task's sweep_point calls share one cache: its ground states
are solved once for all of its subsystem sizes and methods, and the cache
holds one size's reduced density matrices at a time, so a task's memory
does not grow with the tau grid.  A point that runs out of memory, or
whose arithmetic overflows or divides by zero (an extreme h), is a
failed row naming the exception, like any other failed point.  A
pool worker that dies breaks the pool; each task the pool did not return
is rerun alone in a fresh worker, and only a task whose worker dies
again gives failed rows.
Output rows are sorted by (N, h, tau, method) after collection, so the
result is deterministic regardless of scheduling.
Each failed point, and each peak-scan peak on the grid's edge, is named on
stderr.  A warning raised while a point is computed, such as the
delta-probe's, is named with its point in sorted row order, after the
M-rounding warnings, and like them goes to stderr, to the CSV's
"# warning:" lines and to the JSON's warnings.

BLAS runs on one thread: unless the user set a thread-count variable
(OPENBLAS_NUM_THREADS and the like), this module sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before it loads numpy, and pool
workers inherit that.  The JSON files record the variables under
blas_threads.  --jobs defaults to the CPUs this process may run on.
Outputs are byte-identical across worker counts at a fixed thread count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path

# One BLAS thread unless the user chose a count.  Every BLAS call here is on
# a window of at most a few hundred rows, where more threads only spin and
# take cores from the pool.  OpenBLAS reads the count once, when numpy (and,
# through lmglab.model, scipy's _flapack) loads, so this runs above every
# import that loads numpy, and only if none has yet.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
_USER_THREAD_VARS = {name for name in BLAS_THREAD_VARS if name in os.environ}
if not _USER_THREAD_VARS and "numpy" not in sys.modules:
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
# The thread variables as numpy found them, for the JSON metadata.
BLAS_THREADS = {
    name: {"value": os.environ[name],
           "set_by": "user" if name in _USER_THREAD_VARS else "lmglab"}
    if name in os.environ else None
    for name in BLAS_THREAD_VARS
}

import numpy as np

from . import __version__
from .analytic import (
    CriticalPointError,
    _check_anisotropy,
    _check_field,
    _check_size,
    _check_tau,
    chi_g_analytic,
    chi_r_analytic,
    entropy_analytic,
    loglog_slope,
)
from .fidelity import NUMERIC_METHODS, FidelityError, _check_delta, auto_delta, sweep_point
from .model import EigensolverError, ModelParams
from .reduced import Bipartition, ReducedDensityError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3

COLUMNS = ("h", "N", "tau", "chi_g", "chi_r", "eta", "entropy", "method", "delta", "status")
ALL_METHODS = NUMERIC_METHODS + ("analytic",)
ALL_FORMATS = ("csv", "json", "plotscript")

# Window |h - 1| used for the critical-exponent fits in compare reports.
EXPONENT_WINDOW = (1e-5, 1e-4)
EXPONENT_POINTS = 10
# Each fit's key in _exponent_fits, its compare.txt label and the paper's law.
EXPONENT_LAWS = (
    ("broken_chi_r_over_n_vs_1_minus_h", "chi_r/N (broken) slope", "-0.5"),
    ("symmetric_chi_r_vs_h_minus_1", "chi_r (symmetric) slope", "-2"),
    ("entropy_vs_log_abs_h_minus_1", "entropy vs ln|h-1| slope", "-0.25"),
)
# Large N so the intensive part of the broken-phase chi_r is negligible
# when fitting the extensive divergence law of chi_r / N.
EXPONENT_FIT_N = 10**12

# Settings an output does not record.  jobs is an execution detail, not a
# scientific input: leaving it out keeps outputs byte-identical across
# worker counts.
NOT_ECHOED = ("config", "out", "jobs")


class UsageError(ValueError, argparse.ArgumentTypeError):
    """Bad flags, bad config values, or an unusable grid.

    Also an ArgumentTypeError, so that argparse reports a flag value that
    an option's type rejects with this message.
    """


def _check(flag: str, rule, *args) -> None:
    """Apply a library rule to a setting; its ValueError becomes a usage error.

    The message names flag, unless flag is empty: argparse names the flag of
    a value that an option's type rejects.
    """
    try:
        rule(*args)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}" if flag else str(exc)) from None


def _split(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _list_of(kind: type, nouns: str):
    """A parser of comma-separated values of ``kind``, named ``nouns`` in its error."""
    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in _split(text)]
        except ValueError:
            raise UsageError(f"expected comma-separated {nouns}, got {text!r}") from None
    return parse


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"cannot parse boolean value {text!r}")


def _parse_delta(text: str) -> float | None:
    if text.strip().lower() == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"delta must be finite and positive, or 'auto', got {text!r}") from None
    _check("", _check_delta, value)
    return value


_SHARED = ("sweep-h", "sweep-tau", "compare", "peak-scan")
_FIXED_TAU = ("sweep-h", "compare", "peak-scan")  # sweep-tau takes M from its tau grid
_SWITCH = {"action": "store_const", "const": True}

# Every flag, declared once: (subcommands, flag, argparse keywords plus the
# setting's default, None where a row gives none).  The config-file keys are
# the long flag names but --config; a key's value is parsed by the flag's
# type, and a switch's by _parse_bool.  A subcommand's settings are the keys
# of its own flags, and its outputs record them.
_OPTIONS = (
    (_SHARED, "--gamma", {"type": float, "default": 0.5, "help": "anisotropy in [0, 1]"}),
    (_FIXED_TAU, "--tau", {"type": float, "default": 0.5,
                           "help": "subsystem fraction M/N in (0, 1]"}),
    (_FIXED_TAU, "--m", {"type": int, "help": "explicit subsystem size M (overrides --tau)"}),
    (_SHARED, "--n", {"type": _list_of(int, "integers"), "action": "extend", "metavar": "N[,N...]",
                      "default": [64, 128, 256, 512],
                      "help": "system size; repeatable or comma separated"}),
    (_SHARED, "--h-start", {"type": float}),
    (_SHARED, "--h-stop", {"type": float}),
    (_SHARED, "--h-count", {"type": int}),
    (_SHARED, "--h-list", {"type": _list_of(float, "numbers"), "metavar": "H[,H...]",
                           "help": "explicit h values (overrides --h-start/stop/count)"}),
    (_SHARED, "--delta", {"type": _parse_delta,
                          "help": "finite-difference step, or 'auto' for 1e-3*max(1,|h|)"}),
    (_SHARED, "--methods", {"type": _split, "default": ["finite-difference"],
                            "help": f"comma list from {{{','.join(ALL_METHODS)}}}; "
                                    "peak-scan takes one numeric method"}),
    (_SHARED, "--out", {"type": str, "default": "out", "help": "output directory"}),
    (("sweep-h", "sweep-tau"), "--formats",
     {"type": _split, "default": ["csv", "json"],
      "help": f"comma list from {{{','.join(ALL_FORMATS)}}}"}),
    (_SHARED, "--jobs", {"type": int,
                         "help": "worker processes for the grid, at most one per usable "
                                 "CPU and per task (default: the usable CPUs)"}),
    (_SHARED, "--skip-errors", {**_SWITCH, "default": False,
                                "help": "record failed points and exit 0 instead of 3"}),
    (_SHARED, "--config", {"type": str,
                           "help": "flat key=value config file; flags override it"}),
    (("sweep-tau",), "--tau-start", {"type": float}),
    (("sweep-tau",), "--tau-stop", {"type": float}),
    (("sweep-tau",), "--tau-count", {"type": int}),
    (("sweep-tau",), "--tau-list", {"type": _list_of(float, "numbers"), "metavar": "T[,T...]"}),
    (("peak-scan",), "--check", {**_SWITCH, "default": False,
                                 "help": "assert peak migration toward h=1 "
                                         "and growing height"}),
)


def _key(flag: str) -> str:
    """The settings and config-file key of a flag: --h-list gives h_list."""
    return flag[2:].replace("-", "_")


def read_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment, blank lines ignored."""
    parsers = {_key(flag): options.get("type", _parse_bool)
               for _, flag, options in _OPTIONS if flag != "--config"}
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in parsers:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = parsers[key](value.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmglab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"lmglab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        # Flags left out stay out of the namespace, so that a config-file
        # value is overridden only by a flag actually given.  No abbreviations:
        # sweep-tau has no --m, and would otherwise read it as --methods.
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)
        for commands, flag, options in _OPTIONS:
            if command in commands:
                p.add_argument(flag, **{k: v for k, v in options.items() if k != "default"})
    return parser


def _grid(config: dict, what: str, rule) -> list[float]:
    """The grid of config's list or start/stop/count keys, which it removes.

    Each value must pass rule, the library's check for the axis: a listed
    value itself, a range through its start and stop, between which every
    value of the range lies.
    """
    listed, start, stop, count = (config.pop(f"{what}_{end}", None)
                                  for end in ("list", "start", "stop", "count"))
    if listed is not None:
        for value in listed:
            _check(f"--{what}-list", rule, value)
    elif start is None or stop is None or count is None:
        raise UsageError(
            f"no {what} grid: give --{what}-list or --{what}-start/--{what}-stop/--{what}-count"
        )
    elif count < 1:
        raise UsageError(f"--{what}-count must be >= 1, got {count}")
    else:
        _check(f"--{what}-start", rule, start)
        _check(f"--{what}-stop", rule, stop)
        listed = [float(x) for x in np.linspace(start, stop, count)]
    if not listed:
        raise UsageError(f"empty {what} grid")
    diffs = np.diff(listed)
    if len(listed) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise UsageError(f"{what} grid must be strictly monotone")
    return listed


def _grid_size(config: dict, what: str) -> int:
    """The number of values in the grid of config's keys, before _grid builds it; 0 for none."""
    listed, count = config[f"{what}_list"], config[f"{what}_count"]
    return len(listed) if listed is not None else max(count or 0, 0)


def _usable_memory() -> int:
    """Bytes this process may use: physical memory, or its cgroup v2 memory.max if lower."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        group = next(line[3:] for line in Path("/proc/self/cgroup").read_text().splitlines()
                     if line.startswith("0::"))
        limit = Path("/sys/fs/cgroup", group.lstrip("/"), "memory.max").read_text().strip()
    except (OSError, StopIteration):
        return physical
    return physical if limit == "max" else min(physical, int(limit))


def _check_rows(rows: int) -> None:
    """Reject a grid whose output rows would not fit in the memory the process may use."""
    # Bytes per row, measured with tracemalloc over 10^4 and 5 * 10^4 sweep-h
    # rows: 641 for the row itself, and a peak of 2300 more while write_json
    # encodes it.
    need, memory = rows * 2940, _usable_memory()
    if need > memory:
        raise UsageError(f"the grid's {rows} rows (sizes x fields x subsystem sizes x methods) "
                         f"need about {need / 2**30:.3g} GiB, more than the "
                         f"{memory / 2**30:.3g} GiB this process may use")


def _check_unique(values: list, what: str) -> None:
    repeated = sorted({value for value in values if values.count(value) > 1})
    if repeated:
        raise UsageError(f"{what} given more than once: {','.join(map(str, repeated))}")


def _check_choices(values: list[str], choices: tuple[str, ...], what: str) -> None:
    for value in values:
        if value not in choices:
            raise UsageError(f"unknown {what} {value!r}")
    _check_unique(values, what)
    if not values:
        raise UsageError(f"empty {what} list")


def config_from_args(args: argparse.Namespace) -> dict:
    """Merge per key: defaults, then the config file, then the flags given.

    Only the keys of the subcommand's own flags are kept.  A grid given on
    the command line in either form, a list or start/stop/count, replaces
    the config file's grid in either form.  The merged dict is the run's
    settings, with the grids as h_values and, for sweep-tau, tau_values in
    place of their list and start/stop/count keys.
    """
    given = vars(args)
    command = given["command"]
    defaults = {_key(flag): options.get("default")
                for commands, flag, options in _OPTIONS if command in commands}
    if command == "compare":
        defaults["methods"] = ["finite-difference", "analytic"]
    defaults["jobs"] = _usable_cpus()
    file_values = read_config_file(given["config"]) if "config" in given else {}
    for axis in ("h", "tau"):
        if {f"{axis}_start", f"{axis}_stop", f"{axis}_count"} & given.keys():
            file_values.pop(f"{axis}_list", None)
    config = {key: given.get(key, file_values.get(key, default))
              for key, default in defaults.items()}
    config["command"] = command
    grids = {"h": _check_field}
    if "tau_list" in config:  # sweep-tau's rows run over a tau grid too
        grids["tau"] = _check_tau
    # Before any grid is built, so that its size cannot exhaust memory first.
    _check_rows(len(config["n"]) * len(config["methods"])
                * math.prod(_grid_size(config, axis) for axis in grids))
    for axis, rule in grids.items():
        config[f"{axis}_values"] = _grid(config, axis, rule)

    n_list = config["n"]
    if not n_list:
        raise UsageError("empty system-size list")
    for n in n_list:
        _check("--n", _check_size, n)
    _check_unique(n_list, "system size")
    _check("--gamma", _check_anisotropy, config["gamma"])
    if "tau" in config:
        _check("--tau", _check_tau, config["tau"])
    methods = config["methods"]
    _check_choices(methods, ALL_METHODS, "method")
    if config["delta"] is None and any(m in NUMERIC_METHODS for m in methods):
        h_max = max(config["h_values"])
        _check(f"--delta auto (at h = {h_max!r})", _check_delta, auto_delta(h_max))
    if "formats" in config:
        _check_choices(config["formats"], ALL_FORMATS, "format")
        if "plotscript" in config["formats"] and "csv" not in config["formats"]:
            raise UsageError("format 'plotscript' needs 'csv': its gnuplot files read the CSV")
    if config["jobs"] < 1:
        raise UsageError(f"--jobs must be >= 1, got {config['jobs']}")
    if command == "peak-scan":
        if len(methods) != 1 or methods[0] not in NUMERIC_METHODS:
            raise UsageError(f"peak-scan takes one numeric method, got {','.join(methods)}")
        if len(config["h_values"]) < 3:
            raise UsageError("peak-scan needs at least 3 h grid points")
    if command == "compare":
        if "analytic" not in methods or not any(m in NUMERIC_METHODS for m in methods):
            raise UsageError("compare needs 'analytic' plus at least one numeric method")
    return config


def _echo(config: dict) -> dict:
    """The settings an output records, lists joined by commas."""
    echo = {key: value for key, value in config.items() if key not in NOT_ECHOED}
    for key, value in echo.items():
        if isinstance(value, list):
            echo[key] = ",".join(map(str, value))
    if echo["delta"] is None:
        echo["delta"] = "auto"
    return echo


def _echo_line(config: dict) -> str:
    """The recorded settings as sorted key=value pairs on one line."""
    return " ".join(f"{k}={v}" for k, v in sorted(_echo(config).items()))


def _resolve_m_sub(n: int, tau: float, m_sub: int | None) -> tuple[int, str | None]:
    """Subsystem size for one n, with a warning when tau*n must be rounded."""
    if m_sub is not None:
        _check("--m", Bipartition, n, m_sub)
        return m_sub, None
    exact = tau * n
    m = int(round(exact))
    m = min(max(m, 1), n)
    warning = None
    if abs(exact - m) > 1e-9:
        warning = (
            f"tau*N = {exact:.6g} is not integral for N={n}; "
            f"rounded to M={m} (realized tau={m / n:.12g})"
        )
    return m, warning


# ---------------------------------------------------------------------------
# Per-point evaluation (runs inside worker processes; must stay top level)
# ---------------------------------------------------------------------------

def _row(n: int, h: float, m_sub: int, method: str, status: str) -> dict:
    """A row of NaN values for a point to fill in, with no warnings yet."""
    return dict(dict.fromkeys(COLUMNS, math.nan), h=h, N=n, tau=m_sub / n, method=method,
                status=status, warnings=[])


def _evaluate_task(task: tuple) -> list[dict]:
    """The rows of one (N, h) task, each with the warnings raised computing it."""
    n, gamma, h, m_subs, delta, methods = task
    # Shared by every subsystem size and method of this (N, h).
    cache = {}
    rows = []
    for m_sub in m_subs:
        for method in methods:
            row = _row(n, h, m_sub, method, "ok")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    if method == "analytic":
                        # Filled at once, so a failed row keeps its NaN fields.
                        chi_g = chi_g_analytic(h, gamma, n)
                        chi_r = chi_r_analytic(h, gamma, row["tau"], n)
                        row.update(chi_g=chi_g, chi_r=chi_r, eta=chi_r / chi_g,
                                   entropy=entropy_analytic(h, gamma, row["tau"]))
                    else:
                        point = sweep_point(ModelParams(n, gamma, h), Bipartition(n, m_sub),
                                            delta=delta, method=method, cache=cache)
                        row.update((name, getattr(point, name)) for name in COLUMNS
                                   if hasattr(point, name))
                except CriticalPointError as exc:
                    row["status"] = f"singular: {exc}"
                except (EigensolverError, ReducedDensityError, FidelityError,
                        ValueError) as exc:
                    row["status"] = f"failed: {exc}"
                except (MemoryError, ArithmeticError) as exc:
                    # str(MemoryError()) is empty, so the status names the type.
                    row["status"] = f"failed: {type(exc).__name__}{f': {exc}' if str(exc) else ''}"
            # Not a column: main moves these into the run's warnings.
            row["warnings"] = [str(w.message) for w in caught]
            rows.append(row)
    return rows


def _evaluate_chunk(tasks: list[tuple]) -> list[list[dict]]:
    """The rows of each task of one pool chunk, in order."""
    return [_evaluate_task(task) for task in tasks]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(jobs: int, n_tasks: int) -> int:
    """Workers worth starting: no more than requested, usable CPUs or tasks."""
    return min(jobs, _usable_cpus(), n_tasks)


def _run_tasks(tasks: list[tuple], jobs: int) -> list[dict]:
    workers = _pool_size(jobs, len(tasks))
    if workers <= 1:
        nested = [_evaluate_task(t) for t in tasks]
    else:
        # Imported here: the pool machinery loads multiprocessing, which a
        # serial run never uses.
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        chunk = max(1, len(tasks) // (4 * workers))
        chunks = [tasks[i:i + chunk] for i in range(0, len(tasks), chunk)]
        # A worker that dies, killed for memory say, breaks the pool, which
        # fails every chunk not yet returned, healthy ones too.  Each of their
        # tasks is rerun alone, and fails only if its worker dies again.
        nested, lost = [], []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = []
            for part in chunks:
                try:
                    futures.append(pool.submit(_evaluate_chunk, part))
                except BrokenExecutor:  # broken before this chunk was sent
                    break
            for part, future in zip(chunks, futures):
                try:
                    nested += future.result()
                except BrokenExecutor:
                    lost += part
        lost += [task for part in chunks[len(futures):] for task in part]
        for task in lost:
            with ProcessPoolExecutor(max_workers=1) as pool:
                try:
                    nested += pool.submit(_evaluate_chunk, [task]).result()
                except BrokenExecutor as exc:
                    n, _, h, m_subs, _, methods = task
                    nested.append([_row(n, h, m_sub, method, f"failed: pool worker lost: {exc}")
                                   for m_sub in m_subs for method in methods])
    rows = [row for group in nested for row in group]
    rows.sort(key=lambda r: (r["N"], r["h"], r["tau"], r["method"]))
    return rows


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12e}"


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def write_csv(path: Path, rows: list[dict], config: dict,
              warnings_list: list[str], columns=COLUMNS) -> None:
    text = io.StringIO()
    text.write(f"# lmglab {__version__} {config['command']}\n"
               f"# timestamp: {_timestamp()}\n"
               f"# config: {_echo_line(config)}\n")
    text.writelines(f"# warning: {w}\n" for w in warnings_list)
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(row[c]) for c in columns] for row in rows)
    path.write_text(text.getvalue())


def _json_clean(value):
    # Strict JSON has no NaN/Infinity; failed fields become null.
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_clean(v) for v in value]
    return value


def write_json(path: Path, rows: list[dict], config: dict,
               warnings_list: list[str], extra: dict | None = None) -> None:
    doc = {
        "tool": "lmglab",
        "version": __version__,
        "command": config["command"],
        "timestamp": _timestamp(),
        "config": _echo(config),
        "blas_threads": BLAS_THREADS,
        "warnings": warnings_list,
        "rows": rows,
    }
    if extra:
        doc.update(extra)
    path.write_text(
        json.dumps(_json_clean(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


def write_plotscript(path: Path, csv_name: str, rows: list[dict], x: str, y: str) -> None:
    """gnuplot commands plotting column y against column x per (N, method); log y for chi_r."""
    header = [
        f"# lmglab {__version__} gnuplot commands: {y} vs {x}",
        "set datafile separator ','",
        "set key top left",
        f"set xlabel '{x}'",
        f"set ylabel '{y}'",
    ]
    if y == "chi_r":
        header.append("set logscale y")
    number = {name: i + 1 for i, name in enumerate(COLUMNS)}
    plots = []
    for n, method in sorted({(row["N"], row["method"]) for row in rows}):
        selector = (
            f"(column({number['N']})=={n} && strcol({number['method']}) eq '{method}'"
            f" ? column({number[x]}) : NaN)"
        )
        plots.append(
            f"  '{csv_name}' using {selector}:(column({number[y]})) "
            f"with linespoints title 'N={n} {method}'"
        )
    header.append("plot \\")
    header.append(", \\\n".join(plots))
    path.write_text("\n".join(header) + "\n")


def _prepare_outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    probe.write_text("")
    probe.unlink()
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _tasks(config: dict) -> tuple[list[tuple], list[str]]:
    """Tasks (n, gamma, h, m_subs, delta, methods), with M-rounding warnings.

    One task per (N, h) pair carries every subsystem size M and every
    method, and its sweep_point calls share their ground states: each
    stencil field of the pair is solved once, not once per (M, method).
    sweep-tau takes M from each value of its tau grid; the other commands
    from --m or --tau.
    """
    methods = tuple(config["methods"])
    if "tau_values" in config:
        taus, m_sub = config["tau_values"], None
    else:
        taus, m_sub = [config["tau"]], config["m"]
    tasks = []
    warnings_list = []
    for n in config["n"]:
        m_subs = []
        for tau in taus:
            m, warning = _resolve_m_sub(n, tau, m_sub)
            if warning:
                warnings_list.append(warning)
            if m not in m_subs:  # tau values that round to one M give one row
                m_subs.append(m)
        for h in config["h_values"]:
            tasks.append((n, config["gamma"], h, tuple(m_subs), config["delta"], methods))
    return tasks, warnings_list


def _point_label(row: dict) -> str:
    return f"point N={row['N']} h={row['h']} tau={row['tau']:.6g} [{row['method']}]"


def _report(config: dict, rows: list[dict], warnings_list: list[str],
            files: list[Path], failures: tuple[str, ...] | list[str] = ()) -> int:
    """Print the warnings, the files written and each failure; the exit code.

    The failures are each failed point of rows, then the given ones.
    """
    for w in warnings_list:
        print(f"warning: {w}", file=sys.stderr)
    for f in files:
        print(f"wrote {f}")
    failures = [f"{_point_label(row)}: {row['status']}"
                for row in rows if row["status"] != "ok"] + list(failures)
    for line in failures:
        print(line, file=sys.stderr)
    return EXIT_NUMERICAL if failures and not config["skip_errors"] else EXIT_OK


# Each sweep's x column and the columns its gnuplot files plot against it.
_SWEEP_PLOTS = {"sweep-h": ("h", ("chi_r", "eta", "entropy")),
                "sweep-tau": ("tau", ("eta", "entropy"))}


def cmd_sweep(config: dict, rows: list[dict], warnings_list: list[str], out: Path) -> int:
    stem = config["command"].replace("-", "_")
    files = []
    if "csv" in config["formats"]:
        files.append(out / f"{stem}.csv")
        write_csv(files[-1], rows, config, warnings_list)
    if "json" in config["formats"]:
        files.append(out / f"{stem}.json")
        write_json(files[-1], rows, config, warnings_list)
    if "plotscript" in config["formats"]:
        x, ys = _SWEEP_PLOTS[config["command"]]
        for y in ys:
            files.append(out / f"{stem}_{y}.gp")
            write_plotscript(files[-1], f"{stem}.csv", rows, x, y)
    return _report(config, rows, warnings_list, files)


def _relative_deviation(numeric: float, reference: float) -> float:
    scale = abs(reference)
    if scale == 0.0:
        return math.inf if numeric != reference else 0.0
    return abs(numeric - reference) / scale


def _exponent_fits(gamma: float, tau: float) -> dict:
    lo, hi = EXPONENT_WINDOW
    u = np.logspace(math.log10(lo), math.log10(hi), EXPONENT_POINTS)
    broken = np.array(
        [chi_r_analytic(1.0 - x, gamma, tau, EXPONENT_FIT_N) for x in u]
    ) / EXPONENT_FIT_N
    symmetric = np.array([chi_r_analytic(1.0 + x, gamma, tau, EXPONENT_FIT_N) for x in u])
    entropy = np.array([entropy_analytic(1.0 + x, gamma, tau) for x in u])
    return {
        "window_abs_h_minus_1": [lo, hi],
        "broken_chi_r_over_n_vs_1_minus_h": loglog_slope(u, broken),
        "symmetric_chi_r_vs_h_minus_1": loglog_slope(u, symmetric),
        "entropy_vs_log_abs_h_minus_1": float(np.polyfit(np.log(u), entropy, 1)[0]),
    }


def cmd_compare(config: dict, rows: list[dict], warnings_list: list[str], out: Path) -> int:
    by_key: dict[tuple, dict] = {}
    for row in rows:
        by_key.setdefault((row["N"], row["h"]), {})[row["method"]] = row

    numeric_methods = [m for m in config["methods"] if m != "analytic"]
    table = []
    for (n, h), group in sorted(by_key.items()):
        ana = group["analytic"]
        for method in numeric_methods:
            num = group[method]
            entry = {
                "N": n,
                "h": h,
                "tau": num["tau"],
                "method": method,
                "status": "ok",
                "chi_g_numeric": num["chi_g"],
                "chi_g_analytic": ana["chi_g"],
                "chi_r_numeric": num["chi_r"],
                "chi_r_analytic": ana["chi_r"],
            }
            if num["status"] != "ok":
                entry["status"] = num["status"]
            elif ana["status"] != "ok":
                entry["status"] = ana["status"]
            else:
                for name in ("chi_g", "chi_r", "eta", "entropy"):
                    entry[f"{name}_rel_dev"] = _relative_deviation(num[name], ana[name])
            table.append(entry)

    summary = {}
    for n in config["n"]:
        devs = [e["chi_r_rel_dev"] for e in table if e["N"] == n and e["status"] == "ok"]
        if devs:
            summary[str(n)] = {
                "points": len(devs),
                "max_chi_r_rel_dev": max(devs),
                "median_chi_r_rel_dev": float(np.median(devs)),
            }
    # The fits read --tau, not the --m that the rows may use, and say so.
    fits = {"tau": config["tau"]}
    try:
        fits.update(_exponent_fits(config["gamma"], config["tau"]))
    except ValueError as exc:  # gamma = 1 or a bad tau make the fits singular
        fits["error"] = str(exc)

    text_lines = [
        f"lmglab {__version__} compare report",
        f"config: {_echo_line(config)}",
        "",
        f"{'N':>6} {'h':>12} {'method':>18} {'chi_r num':>14} {'chi_r analytic':>14} "
        f"{'rel dev':>10}  status",
    ]
    for entry in table:
        dev = entry.get("chi_r_rel_dev")
        dev_text = "-" if dev is None else f"{dev:.3e}"
        text_lines.append(
            f"{entry['N']:>6} {entry['h']:>12.6g} {entry['method']:>18} "
            f"{entry['chi_r_numeric']:>14.6e} {entry['chi_r_analytic']:>14.6e} "
            f"{dev_text:>10}  {entry['status']}"
        )
    text_lines.append("")
    for n, block in summary.items():
        text_lines.append(
            f"N={n}: {block['points']} points, max chi_r rel dev "
            f"{block['max_chi_r_rel_dev']:.3e}, median {block['median_chi_r_rel_dev']:.3e}"
        )
    text_lines.append("")
    text_lines.append(
        f"critical-exponent fits at tau={fits['tau']:.6g} over |h-1| in "
        f"[{EXPONENT_WINDOW[0]:g}, {EXPONENT_WINDOW[1]:g}]:"
    )
    if "error" in fits:
        text_lines.append(f"  not available: {fits['error']}")
    else:
        text_lines += [f"  {label:<25} {fits[key]:+.4f}  (law: {law})"
                       for key, label, law in EXPONENT_LAWS]
    (out / "compare.txt").write_text("\n".join(text_lines) + "\n")
    write_json(
        out / "compare.json",
        rows,
        config,
        warnings_list,
        extra={"deviations": table, "summary": summary, "exponent_fits": fits},
    )
    return _report(config, rows, warnings_list, [out / "compare.txt", out / "compare.json"])


PEAK_COLUMNS = ("N", "tau", "h_peak", "chi_r_peak", "h_grid_max", "chi_r_grid_max",
                "delta", "status")


def _parabolic_vertex(h3: np.ndarray, y3: np.ndarray) -> tuple[float, float]:
    a, b, c = np.polyfit(h3, y3, 2)
    vertex = -b / (2.0 * a)
    return float(vertex), float(np.polyval([a, b, c], vertex))


def cmd_peak_scan(config: dict, rows: list[dict], warnings_list: list[str], out: Path) -> int:
    peak_rows = []
    unbracketed = []
    for n in sorted(config["n"]):
        n_rows = [r for r in rows if r["N"] == n]  # sorted by h: one tau, one method
        hs = np.array([r["h"] for r in n_rows])
        chis = np.array([r["chi_r"] for r in n_rows])
        failed = [r["status"] for r in n_rows if r["status"] != "ok"]
        imax = int(np.argmax(chis))
        entry = dict.fromkeys(PEAK_COLUMNS, math.nan)
        entry.update(N=n, tau=n_rows[0]["tau"], delta=n_rows[0]["delta"], status="ok")
        if failed:
            entry["status"] = failed[0]
        elif imax in (0, len(hs) - 1):
            entry["status"] = (f"failed: chi_r peak on the h grid's edge (h={hs[imax]}); "
                               "widen the grid to bracket it")
            unbracketed.append(f"peak N={n} tau={entry['tau']:.6g} "
                               f"[{n_rows[0]['method']}]: {entry['status']}")
        else:
            entry["h_grid_max"] = float(hs[imax])
            entry["chi_r_grid_max"] = float(chis[imax])
            entry["h_peak"], entry["chi_r_peak"] = _parabolic_vertex(
                hs[imax - 1 : imax + 2], chis[imax - 1 : imax + 2])
        peak_rows.append(entry)

    write_csv(out / "peaks.csv", peak_rows, config, warnings_list, columns=PEAK_COLUMNS)
    write_json(out / "peaks.json", peak_rows, config, warnings_list)
    status = _report(config, rows, warnings_list, [out / "peaks.csv", out / "peaks.json"],
                     unbracketed)
    ok_rows = [r for r in peak_rows if r["status"] == "ok"]
    if status != EXIT_OK or not config["check"] or len(ok_rows) < 2:
        return status
    distances = [abs(r["h_peak"] - 1.0) for r in ok_rows]
    heights = [r["chi_r_peak"] for r in ok_rows]
    if any(b >= a for a, b in zip(distances, distances[1:])):
        print(f"peak-migration check failed: |h*-1| not strictly decreasing: "
              f"{distances}", file=sys.stderr)
        return EXIT_NUMERICAL
    if any(b <= a for a, b in zip(heights, heights[1:])):
        print(f"peak-height check failed: heights not strictly increasing: "
              f"{heights}", file=sys.stderr)
        return EXIT_NUMERICAL
    print("peak checks passed: |h*-1| decreasing, heights increasing")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "sweep-h": ("sweep the field h at fixed tau", cmd_sweep),
    "sweep-tau": ("sweep tau at fixed h values", cmd_sweep),
    "compare": ("numeric vs closed-form deviation report", cmd_compare),
    "peak-scan": ("chi_r peak location per system size", cmd_peak_scan),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with status 2 on bad flags; the contract here is 1.
        return EXIT_USAGE if exc.code == 2 else int(exc.code or 0)
    try:
        config = config_from_args(args)
        tasks, warnings_list = _tasks(config)
        # Before the grid runs, so that an unusable --out costs no compute.
        out = _prepare_outdir(config["out"])
        rows = _run_tasks(tasks, config["jobs"])
        warnings_list += [f"{_point_label(row)}: {w}" for row in rows for w in row.pop("warnings")]
        return _COMMANDS[config["command"]][1](config, rows, warnings_list, out)
    except UsageError as exc:
        print(f"lmglab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"lmglab: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
