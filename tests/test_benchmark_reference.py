"""The benchmark's gated workloads at seed 0, checked in-process against
``bench/reference`` with ``bench/check.py``, so that an output moving past
the benchmark's tolerances fails here first."""

import json
import sys
from pathlib import Path

import pytest

from lmglab.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
# The benchmark's modules import each other as top-level modules.
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]


@pytest.mark.parametrize("name", [w["name"] for w in DECLARED])
def test_seed_zero_matches_reference(tmp_path, name):
    code = main(WORKLOADS[name].argv(0) + ["--out", str(tmp_path)])
    (csv,) = tmp_path.glob("*.csv")
    reference = check.read_rows(BENCH / "reference" / f"{name}.csv")
    errors, _ = check.check_rows(check.read_rows(csv), code, reference, compare_values=True)
    assert errors == []
