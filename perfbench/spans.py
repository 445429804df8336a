"""Per-layer spans of cvconf, recorded from outside the package.

:func:`install` replaces the layer entry points of ``cvconf`` (module
attributes looked up at call time) with wrappers that record one span per
call: name, start, end, parent span, run id, and the work counted at that
boundary.  The pool that ``cvconf.rates`` starts is replaced by a subclass
that records its start and passes an initializer to every worker, so the
workers record their own spans; each worker writes them when it exits, and
the parent merges them after the pool has shut down.  Spans stay in memory
until then.  Nothing under ``src/`` is edited; :func:`uninstall` restores
every original.

:func:`layer_metrics` turns the spans of one round into the per-layer
metrics of ``BENCHMARK.json``.  A span's self time is its duration minus
that of its direct children in the same process.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy

import cvconf.cli
import cvconf.holevo
import cvconf.inference
import cvconf.protocol
import cvconf.rates


class Tracer:
    """Spans of one process, kept in memory until written."""

    def __init__(self, run_id: str, out_dir: Path, origin: str | None = None):
        self.reset(run_id, out_dir, origin)

    def reset(self, run_id: str, out_dir: Path, origin: str | None = None) -> None:
        self.run_id = run_id
        self.out_dir = Path(out_dir)
        self.origin = origin          # span in the process that started this one
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._next = 0

    def begin(self, name: str) -> dict:
        sid = f"{self.pid}:{self._next}"
        self._next += 1
        parent = self._stack[-1] if self._stack else self.origin
        self._stack.append(sid)
        return {"id": sid, "name": name, "start": time.perf_counter(), "end": None,
                "parent": parent, "run": self.run_id, "counts": {}}

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def call(self, name, fn, count, args, kwargs):
        span = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(span)
        if count is not None:
            span["counts"] = count(args, result)
        return result

    def write(self, path: Path | None = None, append: bool = False) -> Path:
        """Write the spans as JSON lines, by default to this run id's file for this process."""
        path = path or self.out_dir / f"{self.run_id}.{self.pid}.jsonl"
        with open(path, "a" if append else "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        return path


def _rows(args, result):
    return {"rows": len(args[0])}


def _certify_counts(args, result):
    rate, rate_ps = result
    return {"rows": len(rate), "kept": int(numpy.count_nonzero(rate_ps > 0.0)),
            "dropped_positive": int(numpy.count_nonzero((rate > 0.0) & (rate_ps == 0.0)))}


def _matrices(args, result):
    return {"matrices": len(result)}


def _points(args, result):
    return {"points": result.n_samples}


# (module, attribute, span name, counter).  The attribute is the name the
# calling module looks up, so a function is wrapped where it is called.
ENTRY_POINTS = [
    (cvconf.cli, "main", "cli", None),
    (cvconf.cli, "_render_csv", "cli.render", None),
    (cvconf.cli, "sweep_distance", "rates.sweep", None),
    (cvconf.cli, "simulate_relay", "protocol.relay", None),
    (cvconf.cli, "outcome_density", "protocol.analytic", None),
    (cvconf.cli, "eve_conditional_means", "protocol.analytic", None),
    (cvconf.cli, "symplectic_eigenvalues", "gaussian", None),
    (cvconf.cli, "sign_posterior_table", "inference.single", None),
    (cvconf.cli, "eve_overlaps", "holevo.single", None),
    (cvconf.cli, "assemble_total_state", "holevo.single", None),
    (cvconf.cli, "von_neumann_entropy", "holevo.single", None),
    (cvconf.cli, "gram_oracle_entropy", "holevo.single", None),
    (cvconf.protocol, "make_coherent_product", "gaussian", None),
    (cvconf.protocol, "pure_loss_tap", "gaussian", None),
    (cvconf.protocol, "apply_beamsplitter", "gaussian", None),
    (cvconf.protocol, "homodyne_condition", "gaussian", None),
    (cvconf.rates, "posterior_table_batch", "inference.posterior", _rows),
    (cvconf.rates, "posterior_rel_err", "inference.posterior", None),
    (cvconf.rates, "_mi_with_bound", "inference.mi", _rows),
    (cvconf.rates, "overlap_deficits_batch", "holevo.overlaps", None),
    (cvconf.rates, "_holevo_with_bound", "holevo.chi", None),
    (cvconf.rates, "single_point_mi", "inference.single", None),
    (cvconf.rates, "single_point_holevo", "holevo.single", None),
    (cvconf.rates, "certified_rates", "rates.certify", _certify_counts),
    (cvconf.rates, "_mc_block", "rates.sample", None),
    (cvconf.rates, "estimate_rates_mc", "rates.estimate", None),
    (cvconf.rates, "quadrature_cross_check", "rates.quad", _points),
    (cvconf.inference, "single_point_mi", "inference.single", None),
    (cvconf.holevo, "single_point_holevo", "holevo.single", None),
    (cvconf.holevo, "_assemble_batch", "holevo.assemble", _matrices),
]


class _Installed:
    """The tracer of this process and the originals it replaced."""

    tracer: Tracer | None = None
    originals: list = []


def _wrap(tracer: Tracer, fn, name: str, count):
    # functools.wraps keeps __module__ and __qualname__, so a wrapped task
    # function still pickles by reference to the same attribute.
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, count, args, kwargs)
    return traced


def _traced_eigvalsh(tracer: Tracer, eigvalsh):
    """numpy.linalg.eigvalsh, traced by matrix size when cvconf.holevo calls it."""
    @functools.wraps(eigvalsh)
    def traced(a, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") != "cvconf.holevo":
            return eigvalsh(a, *args, **kwargs)
        a = numpy.asarray(a)
        n = a.shape[-1]
        matrices = a.size // (n * n)
        return tracer.call(f"holevo.eig{n}", eigvalsh, lambda _a, _r: {"matrices": matrices},
                           (a,) + args, kwargs)
    return traced


def _worker_start(run_id: str, out_dir: str, origin: str) -> None:
    """Pool initializer: give the worker its own tracer, written at exit."""
    tracer = _Installed.tracer
    if tracer is None:            # a fresh interpreter (spawn or forkserver)
        tracer = Tracer(run_id, Path(out_dir), origin)
        install(tracer)
    else:                         # a fork: drop the parent's spans
        tracer.reset(run_id, Path(out_dir), origin)
    multiprocessing.util.Finalize(None, tracer.write, exitpriority=10)


class TracedPool(ProcessPoolExecutor):
    """The pool ``cvconf.rates`` starts, with its lifetime and forks as spans."""

    def __init__(self, max_workers=None, **kwargs):
        tracer = _Installed.tracer
        self._pool_span = tracer.begin("rates.pool")
        kwargs.update(initializer=_worker_start,
                      initargs=(tracer.run_id, str(tracer.out_dir), self._pool_span["id"]))
        super().__init__(max_workers, **kwargs)

    def _spawn_process(self):
        tracer = _Installed.tracer
        span = tracer.begin("rates.pool.start")
        try:
            super()._spawn_process()
        finally:
            tracer.end(span)

    def shutdown(self, wait=True, **kwargs):
        try:
            super().shutdown(wait, **kwargs)
        finally:
            if self._pool_span["end"] is None:
                _Installed.tracer.end(self._pool_span)


def install(tracer: Tracer) -> None:
    """Replace every entry point with its traced wrapper, in this process."""
    if _Installed.tracer is not None:
        raise RuntimeError("tracing is already installed")
    originals = []
    for module, attr, name, count in ENTRY_POINTS:
        fn = getattr(module, attr)
        originals.append((module, attr, fn))
        setattr(module, attr, _wrap(tracer, fn, name, count))
    originals.append((numpy.linalg, "eigvalsh", numpy.linalg.eigvalsh))
    numpy.linalg.eigvalsh = _traced_eigvalsh(tracer, numpy.linalg.eigvalsh)
    originals.append((cvconf.rates, "ProcessPoolExecutor", cvconf.rates.ProcessPoolExecutor))
    cvconf.rates.ProcessPoolExecutor = TracedPool
    _Installed.tracer = tracer
    _Installed.originals = originals


def uninstall() -> None:
    """Restore every original entry point."""
    for module, attr, fn in reversed(_Installed.originals):
        setattr(module, attr, fn)
    _Installed.tracer = None
    _Installed.originals = []


def collect_workers(tracer: Tracer) -> None:
    """Move the spans that exited workers wrote for the current run id into ``tracer``."""
    for path in sorted(tracer.out_dir.glob(f"{tracer.run_id}.*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            tracer.spans.extend(json.loads(line) for line in handle)
        path.unlink()


def _self_times(spans: list[dict]) -> dict[str, float]:
    """Duration minus the duration of direct children in the same process."""
    child_time: dict[str, float] = defaultdict(float)
    for s in spans:
        parent = s["parent"]
        if parent is not None and parent.split(":")[0] == s["id"].split(":")[0]:
            child_time[parent] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time[s["id"]] for s in spans}


def layer_metrics(spans: list[dict], parent_pid: int) -> dict[str, float]:
    """Per-layer metrics of one round's spans (parent and workers)."""
    own = _self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(name, key=None):
        return sum(s["counts"].get(key, 0) for s in by_name[name]) if key else \
            sum(s["end"] - s["start"] for s in by_name[name])

    def self_s(name):
        return sum(own[s["id"]] for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    quad_ids = {s["id"] for s in by_name["rates.quad"]}
    workers_busy = sum(s["end"] - s["start"] for s in by_name["rates.sample"]
                       if int(s["id"].split(":")[0]) != parent_pid)
    forks = defaultdict(int)
    for s in by_name["rates.pool.start"]:
        forks[s["parent"]] += 1
    pool_capacity = sum(forks[s["id"]] * (s["end"] - s["start"]) for s in by_name["rates.pool"])
    rows = total("rates.certify", "rows")
    kept = total("rates.certify", "kept")
    return {
        "inference.posterior.rows": total("inference.posterior", "rows"),
        "inference.posterior.s": total("inference.posterior"),
        "inference.mi.rows": total("inference.mi", "rows"),
        "inference.mi.s": total("inference.mi"),
        "holevo.overlaps.s": total("holevo.overlaps"),
        "holevo.assemble.matrices": total("holevo.assemble", "matrices"),
        "holevo.assemble.s": total("holevo.assemble"),
        "holevo.eig8.matrices": total("holevo.eig8", "matrices"),
        "holevo.eig8.s": total("holevo.eig8"),
        "holevo.eig4.matrices": total("holevo.eig4", "matrices"),
        "holevo.eig4.s": total("holevo.eig4"),
        "holevo.entropy.self_s": self_s("holevo.chi"),
        "rates.certify.rows": rows,
        "rates.certify.kept": kept,
        "rates.kept_fraction": kept / rows if rows else 0.0,
        "rates.certify.dropped_positive": total("rates.certify", "dropped_positive"),
        "rates.certify.self_s": self_s("rates.certify"),
        "rates.sample.blocks": calls("rates.sample"),
        "rates.sample.self_s": self_s("rates.sample"),
        "rates.pool.starts": calls("rates.pool"),
        "rates.pool.processes": calls("rates.pool.start"),
        "rates.pool.start_s": total("rates.pool.start"),
        "rates.pool.busy_s": workers_busy,
        "rates.pool.idle_s": pool_capacity - workers_busy,
        "rates.quad.points": total("rates.quad", "points"),
        "rates.quad.chunks": sum(1 for s in by_name["rates.certify"] if s["parent"] in quad_ids),
        "rates.quad.self_s": self_s("rates.quad"),
        "inference.single.calls": calls("inference.single"),
        "inference.single.self_s": self_s("inference.single"),
        "holevo.single.calls": calls("holevo.single"),
        "holevo.single.self_s": self_s("holevo.single"),
        "protocol.relay.calls": calls("protocol.relay"),
        "protocol.relay.self_s": self_s("protocol.relay"),
        "gaussian.s": total("gaussian"),
        "cli.render.s": total("cli.render"),
        "cli.self_s": self_s("cli"),
    }
