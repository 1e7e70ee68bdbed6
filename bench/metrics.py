"""End-to-end and per-layer metrics, as printed by ``run.py``.

A timing is summarized by its median and by its tail: the highest of the
percentiles below that has at least ten samples beyond it (nearest rank),
or the maximum, labelled percentile 100, when there are too few samples
for any of them.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass

from tracing import LAYER_OF, LAYERS

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}

# Layers whose call durations are also given as a median and a tail.
DISTRIBUTION_LAYERS = (
    "model.ground_state",
    "reduced.reduce_state",
    "reduced.decomposition",
    "fidelity.sweep_point",
)


def _per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer in DISTRIBUTION_LAYERS:
            units[f"{layer}.p50_ms"] = "ms"
            units[f"{layer}.tail_ms"] = "ms"
            units[f"{layer}.tail_pct"] = "percentile"
    units.update({
        "reduced.reduce_state.cold_s": "s",
        "cli.pool.workers": "count",
        "cli.pool.efficiency": "ratio",
        "cli.writers.bytes": "B",
        "trace.overhead_s": "s",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the tail of ``values``."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n - max(1, math.ceil(pct / 100.0 * n)) >= 10:
            return pct, percentile(values, pct)
    return 100.0, max(values)


@dataclass
class Invocation:
    """One CLI run, as measured from outside its process."""

    wall_s: float
    cpu_s: float  # user + system of the CLI and its waited-for workers
    peak_rss_mb: float  # largest resident set of the CLI or any waited-for worker
    rows: int
    numeric_rows: int
    failed_rows: int


def end_to_end(invocations: list[Invocation], setup_samples: list[float]) -> dict:
    """Every end-to-end metric: the median over the run's samples."""
    samples = {
        "wall_s": [i.wall_s for i in invocations],
        "points_per_s": [i.numeric_rows / i.wall_s for i in invocations],
        "cpu_s": [i.cpu_s for i in invocations],
        "peak_rss_mb": [i.peak_rss_mb for i in invocations],
        "setup_s": setup_samples,
        "ok_ratio": [(i.rows - i.failed_rows) / i.rows for i in invocations],
    }
    return {name: samples[name] for name in END_TO_END_UNITS}


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children are found within the span's own process; spans of one process
    nest strictly, because lmglab runs one call at a time per process.
    """
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[(s["pid"], s["parent"])] += s["end"] - s["start"]
    return [s["end"] - s["start"] - children[(s["pid"], s["id"])] for s in spans]


def cli_process_self_s(spans: list[dict]) -> float:
    """Layer self time spent in the CLI process itself, not in pool workers."""
    pid = next(s["pid"] for s in spans if s["name"] == "cli.pool")
    return sum(own for s, own in zip(spans, self_times(spans)) if s["pid"] == pid)


def invocation_layers(spans: list[dict], wall_s: float, setup_s: float) -> dict:
    """Per-layer counts and times of one traced CLI run."""
    out = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("calls", "self_s")}
    for span, own in zip(spans, self_times(spans)):
        layer = LAYER_OF[span["name"]]
        out[f"{layer}.self_s"] += own
        if span["name"] == layer:
            out[f"{layer}.calls"] += 1

    first_reduce = {}
    for s in sorted(spans, key=lambda s: s["start"]):
        if s["name"] == "reduced.reduce_state":
            first_reduce.setdefault((s["pid"], s["n"], s["m"]), s["end"] - s["start"])
    out["reduced.reduce_state.cold_s"] = sum(first_reduce.values())

    tasks = [s for s in spans if s["name"] == "cli.pool.task"]
    workers = len({s["pid"] for s in tasks})
    writers = [s for s in spans if s["name"] == "cli.writers"]
    writer_s = sum(s["end"] - s["start"] for s in writers)
    task_s = sum(s["end"] - s["start"] for s in tasks)
    out["cli.pool.workers"] = workers
    out["cli.pool.efficiency"] = task_s / (max(workers, 1) * (wall_s - setup_s - writer_s))
    out["cli.writers.bytes"] = sum(s["bytes"] for s in writers)
    return out


def per_layer(traced: list[tuple[list[dict], float]], untraced_walls: list[float],
              setup_s: float) -> dict[str, list[float]]:
    """Every per-layer metric, as a list of samples whose median is reported.

    ``traced`` holds (spans, wall_s) per traced CLI run.  Call durations are
    pooled over all traced runs for the median and the tail; every other
    metric has one sample per traced run.
    """
    per_run = [invocation_layers(spans, wall, setup_s) for spans, wall in traced]
    samples = {name: [run[name] for run in per_run] for name in per_run[0]}
    for layer in DISTRIBUTION_LAYERS:
        ms = [(s["end"] - s["start"]) * 1e3
              for spans, _ in traced for s in spans if s["name"] == layer]
        if not ms:
            ms = [0.0]
        pct, value = tail(ms)
        samples[f"{layer}.p50_ms"] = [percentile(ms, 50.0)]
        samples[f"{layer}.tail_ms"] = [value]
        samples[f"{layer}.tail_pct"] = [pct]
    samples["trace.overhead_s"] = [
        statistics.median(w for _, w in traced) - statistics.median(untraced_walls)
    ]
    return {name: samples[name] for name in PER_LAYER_UNITS}
