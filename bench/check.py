"""Output check and failure counting for one CLI run.

Every run is checked for structure (the same (N, tau, method) rows as the
reference, the same number of h values), for the exit-code contract (3 if
and only if some row has a ``failed:`` or ``singular:`` status), and for the
invariants every ``ok`` row must meet.  At seed 0 the rows are also compared
with the reference outputs, which were generated once from the parent
commit of the benchmark.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from pathlib import Path

VALUES = ("chi_g", "chi_r", "eta", "entropy")
# Criterion 10 of the acceptance suite accepts 1e-3 between independent chi
# routes; the BLAS thread count alone moves values by about 1e-11.  The
# absolute floor covers entropies of nearly pure states, which sit at
# roundoff level (the density-matrix eigenvalue floor is 1e-10).
RTOL = 1e-3
ATOL = 1e-10
# The CLI enforces eta <= 1 + 1e-6 on numeric rows; the finite-N closed
# forms can exceed 1 near h = 1.
ETA_SLACK = 1e-6


def read_rows(path: Path) -> list[dict]:
    """Rows of a CLI CSV file, with numbers parsed; '#' lines are skipped."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = []
    for raw in csv.DictReader(lines):
        row = dict(raw)
        row["N"] = int(row["N"])
        for name in ("h", "tau", *VALUES, "delta"):
            row[name] = float(row[name])
        rows.append(row)
    return rows


def is_failure(row: dict) -> bool:
    return row["status"].startswith(("failed:", "singular:"))


def count_failures(rows: list[dict]) -> int:
    """Rows the CLI could not compute: a ``failed:`` or ``singular:`` status."""
    return sum(is_failure(row) for row in rows)


def _key(row: dict) -> tuple:
    # The CSV prints 13 significant digits; rounding to 10 makes the key
    # immune to a last-digit change in how a grid value is generated.
    return (row["N"], round(row["h"], 10), round(row["tau"], 10), row["method"])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def check_rows(rows: list[dict], exit_code: int, reference: list[dict],
               compare_values: bool) -> tuple[list[str], list[str]]:
    """Check one run's rows; return (errors, notes).

    ``errors`` make the run incorrect.  ``notes`` report a reference
    failure that now passes, which is not an error.
    """
    errors: list[str] = []
    notes: list[str] = []

    failed = count_failures(rows)
    if exit_code not in (0, 3):
        errors.append(f"exit code {exit_code}")
    elif (exit_code == 3) != (failed > 0):
        errors.append(f"exit code {exit_code} with {failed} failed rows")

    def shape(rs):
        return Counter((r["N"], round(r["tau"], 10), r["method"]) for r in rs)

    if shape(rows) != shape(reference):
        errors.append(f"{len(rows)} rows do not have the reference's (N, tau, method) layout")
    for row in rows:
        status = row["status"]
        if status == "ok":
            bad = [n for n in VALUES if not math.isfinite(row[n])]
            if bad:
                errors.append(f"ok row {_key(row)} has non-finite {', '.join(bad)}")
            elif (row["chi_g"] <= 0.0 or row["chi_r"] < 0.0 or row["entropy"] < -ATOL
                  or row["eta"] < 0.0
                  or (row["method"] != "analytic" and row["eta"] > 1.0 + ETA_SLACK)):
                errors.append(f"ok row {_key(row)} breaks an invariant: "
                              f"{ {n: row[n] for n in VALUES} }")
        elif not is_failure(row):
            errors.append(f"row {_key(row)} has unknown status {status!r}")

    if not compare_values:
        return errors, notes
    current = {_key(row): row for row in rows}
    for ref in reference:
        row = current.get(_key(ref))
        if row is None:
            errors.append(f"row {_key(ref)} is missing")
        elif ref["status"] == "ok" and row["status"] != "ok":
            errors.append(f"row {_key(ref)} was ok in the reference, now {row['status']!r}")
        elif ref["status"] != "ok" and row["status"] == "ok":
            notes.append(f"row {_key(ref)} failed in the reference and now passes")
        elif ref["status"] == "ok":
            off = [f"{n} {row[n]!r} vs {ref[n]!r}" for n in VALUES
                   if not _close(row[n], ref[n])]
            if off:
                errors.append(f"row {_key(ref)} differs from the reference: {'; '.join(off)}")
    return errors, notes
