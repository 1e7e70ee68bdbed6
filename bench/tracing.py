"""Spans around the calls into each lmglab layer, recorded from outside ``src/``.

``install`` replaces module attributes with timing wrappers, at the names
through which ``lmglab.fidelity`` and ``lmglab.cli`` look them up, and wraps
the cached eigendecomposition of ``ReducedDensity`` where it is first
computed, so no decomposition is forced that the program would not do.

Spans are kept in memory and appended as JSON lines to
``<trace_dir>/spans-<pid>.jsonl``: by pool workers after each task, by the
CLI process when it ends.  Pool workers are forked from the traced CLI
process, so they inherit the wrappers.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

# Span names, mapped to the layer their self time counts towards.  A pool
# task's own time (the CLI's per-point bookkeeping) counts towards cli.pool.
LAYER_OF = {
    "model.ground_state": "model.ground_state",
    "reduced.reduce_state": "reduced.reduce_state",
    "reduced.decomposition": "reduced.decomposition",
    "fidelity.uhlmann_fidelity": "fidelity.uhlmann_fidelity",
    "fidelity.fs_spectral": "fidelity.fs_spectral",
    "fidelity.sweep_point": "fidelity.sweep_point",
    "analytic": "analytic",
    "cli.pool": "cli.pool",
    "cli.pool.task": "cli.pool",
    "cli.writers": "cli.writers",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


class Tracer:
    """In-memory spans of one process: (id, parent id, name, start, end, attrs)."""

    def __init__(self, trace_dir: Path | str):
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0

    def enter(self) -> tuple[int, int | None, float]:
        if os.getpid() != self.pid:
            # A forked pool worker: the parent's spans and open stack are not its own.
            self.pid = os.getpid()
            self.spans, self.stack = [], []
        span_id = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def leave(self, token: tuple[int, int | None, float], name: str, attrs: dict) -> None:
        end = time.perf_counter()
        span_id, parent, start = token
        self.stack.pop()
        self.spans.append((span_id, parent, name, start, end, attrs))

    def flush(self) -> None:
        if not self.spans:
            return
        with open(self.trace_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for span_id, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"pid": self.pid, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end, **attrs})
                         + "\n")
        self.spans = []


def timed(tracer: Tracer, name: str, fn, attrs=None, after=None):
    """``fn`` wrapped in a span; ``attrs(args, kwargs)`` adds fields to it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = tracer.enter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leave(token, name, attrs(args, kwargs) if attrs else {})
            if after:
                after()

    return wrapper


def _part_size(args, kwargs) -> dict:
    part = args[1] if len(args) > 1 else kwargs["part"]
    return {"n": part.n, "m": part.m_sub}


def _file_size(args, kwargs) -> dict:
    path = Path(args[0] if args else kwargs["path"])
    return {"bytes": path.stat().st_size if path.exists() else 0}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of an already imported lmglab."""
    import lmglab.cli as cli
    import lmglab.fidelity as fidelity
    from lmglab.reduced import ReducedDensity

    def wrap(module, attr, name, attrs=None, after=None):
        setattr(module, attr, timed(tracer, name, getattr(module, attr), attrs, after))

    wrap(fidelity, "ground_state", "model.ground_state")
    wrap(fidelity, "reduce_state", "reduced.reduce_state", _part_size)
    wrap(fidelity, "uhlmann_fidelity", "fidelity.uhlmann_fidelity")
    wrap(fidelity, "fs_spectral", "fidelity.fs_spectral")
    wrap(cli, "sweep_point", "fidelity.sweep_point")
    for attr in ("chi_g_analytic", "chi_r_analytic", "entropy_analytic"):
        wrap(cli, attr, "analytic")
    wrap(cli, "_run_tasks", "cli.pool")

    main_pid = os.getpid()

    def flush_in_worker():
        if os.getpid() != main_pid:
            tracer.flush()

    # Pickled by name, so pool workers run this wrapper too; a worker's spans
    # are written after each task, because workers exit without cleanup.
    wrap(cli, "_evaluate_task", "cli.pool.task", after=flush_in_worker)
    for attr in ("write_csv", "write_json", "write_plotscript"):
        wrap(cli, attr, "cli.writers", _file_size)

    decomposition = ReducedDensity.__dict__["_decomposition"]
    timed_decomposition = functools.cached_property(
        timed(tracer, "reduced.decomposition", decomposition.func)
    )
    timed_decomposition.__set_name__(ReducedDensity, "_decomposition")
    ReducedDensity._decomposition = timed_decomposition
