import json
from pathlib import Path

import pytest

import metrics
from workloads import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def span(pid, span_id, parent, name, start, end, **attrs):
    return {"pid": pid, "id": span_id, "parent": parent, "name": name,
            "start": start, "end": end, **attrs}


def test_self_time_of_nested_spans():
    spans = [
        span(1, 0, None, "fidelity.sweep_point", 0.0, 10.0),
        span(1, 1, 0, "model.ground_state", 1.0, 3.0),
        span(1, 2, 0, "reduced.reduce_state", 3.0, 8.0, n=8, m=4),
        span(1, 3, 2, "reduced.decomposition", 4.0, 5.0),
        # Another process reusing the same span ids: never a child of pid 1.
        span(2, 1, 0, "model.ground_state", 0.0, 4.0),
        span(2, 0, None, "fidelity.sweep_point", 0.0, 5.0),
    ]
    assert metrics.self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0, 4.0, 1.0])


def test_layer_metrics_of_one_run():
    spans = [
        span(1, 0, None, "cli.pool", 0.0, 6.0),
        span(1, 1, 0, "cli.pool.task", 0.0, 6.0),
        span(1, 2, 1, "fidelity.sweep_point", 0.5, 5.5),
        span(1, 3, 2, "reduced.reduce_state", 1.0, 3.0, n=8, m=4),
        span(1, 4, 2, "reduced.reduce_state", 3.0, 4.0, n=8, m=4),
        span(1, 5, None, "cli.writers", 6.0, 7.0, bytes=100),
    ]
    out = metrics.invocation_layers(spans, wall_s=8.0, setup_s=1.0)
    assert out["cli.pool.calls"] == 1
    assert out["cli.pool.self_s"] == pytest.approx(1.0)  # task bookkeeping counts here
    assert out["fidelity.sweep_point.self_s"] == pytest.approx(2.0)
    assert out["reduced.reduce_state.calls"] == 2
    assert out["reduced.reduce_state.cold_s"] == pytest.approx(2.0)  # first call per (N, M)
    assert out["cli.pool.workers"] == 1
    assert out["cli.pool.efficiency"] == pytest.approx(6.0 / (8.0 - 1.0 - 1.0))
    assert out["cli.writers.bytes"] == 100


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 201))
    assert metrics.tail(values) == (95.0, 190)
    assert metrics.tail(list(range(1, 21))) == (50.0, 10)
    assert metrics.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert metrics.percentile([3.0, 1.0, 2.0], 50.0) == 2.0


def test_benchmark_json_names_what_the_command_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)

    inv = metrics.Invocation(wall_s=2.0, cpu_s=3.0, peak_rss_mb=60.0, rows=10,
                             numeric_rows=8, failed_rows=1)
    printed = metrics.end_to_end([inv], [0.5])
    assert list(printed) == list(metrics.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END_UNITS

    spans = [span(1, 0, None, "cli.pool", 0.0, 1.0), span(1, 1, 0, "cli.pool.task", 0.0, 1.0),
             span(1, 2, None, "cli.writers", 1.0, 1.5, bytes=10)]
    printed = metrics.per_layer([(spans, 2.0)], [1.9], setup_s=0.4)
    assert list(printed) == list(metrics.PER_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER_UNITS
