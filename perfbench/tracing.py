"""Spans around hbgraph's layer boundaries, recorded from outside.

The traced run calls ``hbgraph.cli.main`` in-process once per stage.
Before that, `Tracer.install` replaces each traced function under the
name its caller looks it up by (``hbgraph.cli.encode``,
``hbgraph.diameter.bfs``, ...) with a wrapper that records a span:
name, start, end, parent span and stage. Nothing in the package changes.
A target that no longer exists is skipped and simply records no calls.

Spans stay in memory; `layer_metrics` turns one traced pipeline's spans
into the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter


def _rows(args, kwargs, result):
    return {"rows": int(args[0].shape[0])}


def _encoded(args, kwargs, result):
    return {
        "stream_bits": int(result.stream_bits),
        "copied_arcs": int(result.copied_arcs),
        "interval_arcs": int(result.interval_arcs),
    }


def _run(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _components(args, kwargs, result):
    return {"count": int(result.max()) + 1 if result.size else 0}


def _giant(args, kwargs, result):
    return {"arcs": int(result.num_arcs)}


# (module, attribute, span name, what to keep from the call)
TARGETS = [
    ("hbgraph.cli", "load_edge_list", "graph.parse", None),
    ("hbgraph.cli", "transpose", "graph.transpose", None),
    ("hbgraph.graph", "transpose", "graph.transpose", None),
    ("hbgraph.cli", "encode", "storage.encode", _encoded),
    ("hbgraph.cli", "save_compressed", "storage.save", None),
    ("hbgraph.cli", "load_compressed", "storage.load", None),
    ("hbgraph.storage", "decode", "storage.decode", None),
    ("hbgraph.cli", "run", "engine.run", _run),
    ("hbgraph.cli", "run_systolic", "engine.run", _run),
    ("hbgraph.engine", "unpack_registers", "hll.unpack", _rows),
    ("hbgraph.engine", "pack_registers", "hll.pack", _rows),
    ("hbgraph.engine", "estimate_registers", "hll.estimate", _rows),
    ("hbgraph.cli", "summarize", "distance.summarize", None),
    ("hbgraph.cli", "giant_component", "diameter.giant", _giant),
    ("hbgraph.diameter", "component_labels", "diameter.components", _components),
    ("hbgraph.cli", "ifub", "diameter.search", None),
    ("hbgraph.cli", "double_sweep", "diameter.search", None),
    ("hbgraph.diameter", "bfs", "diameter.bfs", None),
]

# tracemalloc slows allocation, so a tracer that measures memory runs it
# only inside these spans, and its timings are not used
_MEMORY_SPANS = {"engine.run"}


@dataclass
class Span:
    name: str
    stage: str
    parent: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; `install`/`uninstall` swap the wrappers in."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans: list[Span] = []
        self.stage = ""
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def span(self, name, fn, *args, info=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        rec = Span(name, self.stage, parent, 0.0)
        self.spans.append(rec)
        self._open.append(idx)
        memory = self.memory and name in _MEMORY_SPANS
        if memory:
            tracemalloc.start()
        try:
            rec.start = perf_counter()
            result = fn(*args, **kwargs)
            rec.end = perf_counter()
        finally:
            self._open.pop()
            if memory:
                rec.info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        if info is not None:
            rec.info.update(info(args, kwargs, result))
        return result

    def install(self):
        for module_name, attr, name, info in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue

            @functools.wraps(original)
            def wrapper(*args, _fn=original, _name=name, _info=info, **kwargs):
                return self.span(_name, _fn, *args, info=_info, **kwargs)

            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _self_seconds(spans, idx, children):
    return spans[idx].seconds - sum(spans[c].seconds for c in children.get(idx, ()))


def peak_bytes(spans):
    """Largest tracemalloc peak of any engine run span."""
    return max((s.info.get("peak_bytes", 0) for s in spans if s.name == "engine.run"),
               default=0)


def layer_metrics(spans, graph_n, graph_arcs, file_bytes, runs, words, peak):
    """Per-layer figures from one traced pipeline.

    `graph_n`/`graph_arcs` describe the imported graph, `file_bytes` its
    HBG1 file, `runs` the anf stage's repetitions, `words` the uint64
    words of one counter as the package's ``hll.words_per_counter``
    gives them, `peak` the engine's tracemalloc peak from a separate
    memory pass. Every ratio is reported next to its base.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(name):
        return sum(spans[i].seconds for i in named(name))

    def info_sum(name, key):
        return sum(spans[i].info.get(key, 0) for i in named(name))

    def per(value, base, scale=1.0):
        return value * scale / base if base else 0.0

    def under(idx, ancestors):
        p = spans[idx].parent
        while p is not None:
            if p in ancestors:
                return True
            p = spans[p].parent
        return False

    out = {}
    arcs, n = graph_arcs, graph_n
    out["graph.n"] = (n, "count")
    out["graph.arcs"] = (arcs, "count")
    out["graph.parse_s"] = (total("graph.parse"), "s")
    out["graph.parse_ns_per_arc"] = (per(total("graph.parse"), arcs, 1e9), "ns/arc")
    out["graph.transpose_s"] = (total("graph.transpose"), "s")

    encode = named("storage.encode")
    stream_bits = spans[encode[0]].info["stream_bits"] if encode else 0
    # what the file spends beyond the code stream: header and offset table
    offset_bits = 8 * file_bytes - stream_bits
    out["storage.encode_s"] = (total("storage.encode"), "s")
    out["storage.encode_us_per_arc"] = (per(total("storage.encode"), arcs, 1e6), "us/arc")
    out["storage.save_s"] = (total("storage.save"), "s")
    out["storage.load_s"] = (total("storage.load"), "s")
    decodes = len(named("storage.decode"))
    out["storage.decode_s"] = (total("storage.decode"), "s")
    out["storage.decode_calls"] = (decodes, "count")
    out["storage.decode_us_per_arc"] = (
        per(total("storage.decode"), arcs * decodes, 1e6), "us/arc")
    out["storage.stream_bits_per_arc"] = (per(stream_bits, arcs), "bits/arc")
    out["storage.offset_bits_per_arc"] = (per(offset_bits, arcs), "bits/arc")
    out["storage.offset_share"] = (per(offset_bits, 8 * file_bytes), "ratio")
    out["storage.copy_pct"] = (per(info_sum("storage.encode", "copied_arcs"), arcs, 100), "%")
    out["storage.interval_pct"] = (
        per(info_sum("storage.encode", "interval_arcs"), arcs, 100), "%")

    engine = named("engine.run")
    sweeps = sum(spans[i].info["iterations"] for i in engine)
    hll_names = ("hll.unpack", "hll.pack", "hll.estimate")
    for name in hll_names:
        out[f"{name}_s"] = (total(name), "s")
        out[f"{name}_rows"] = (info_sum(name, "rows"), "count")
    out["hll.unpack_rows_per_counter_sweep"] = (
        per(info_sum("hll.unpack", "rows"), n * sweeps), "ratio")
    run_s = sum(spans[i].seconds for i in engine)
    hll_in_engine = sum(
        spans[c].seconds for i in engine for c in children.get(i, ())
        if spans[c].name in hll_names
    )
    budget = 2 * n * words * 8  # two buffers of n counters, as --budget-bytes counts
    out["engine.runs"] = (runs, "count")
    out["engine.run_s"] = (run_s, "s")
    out["engine.self_s"] = (run_s - hll_in_engine, "s")
    out["engine.sweeps"] = (sweeps, "count")
    out["engine.ns_per_arc_sweep"] = (per(run_s, arcs * sweeps, 1e9), "ns/arc/sweep")
    out["engine.changed_frac"] = (
        per(info_sum("hll.estimate", "rows") - runs * n, n * sweeps), "ratio")
    out["engine.peak_mb"] = (peak / 1e6, "MB")
    out["engine.budget_mb"] = (budget / 1e6, "MB")
    out["engine.peak_over_budget"] = (per(peak, budget), "ratio")

    out["distance.summarize_s"] = (total("distance.summarize"), "s")

    search = set(named("diameter.search"))
    search_bfs = [i for i in named("diameter.bfs") if under(i, search)]
    giant_arcs = info_sum("diameter.giant", "arcs")
    bfs_s = sum(spans[i].seconds for i in search_bfs)
    out["diameter.components_s"] = (total("diameter.giant"), "s")
    out["diameter.components"] = (info_sum("diameter.components", "count"), "count")
    out["diameter.giant_arcs"] = (giant_arcs, "count")
    out["diameter.bfs_calls"] = (len(search_bfs), "count")
    out["diameter.bfs_s"] = (bfs_s, "s")
    out["diameter.bfs_ns_per_arc"] = (per(bfs_s, giant_arcs * len(search_bfs), 1e9), "ns/arc")
    out["diameter.search_s"] = (sum(spans[i].seconds for i in search), "s")
    out["diameter.search_self_s"] = (
        sum(_self_seconds(spans, i, children) for i in search), "s")

    for i in named("cli.stage"):
        out[f"cli.self_s.{spans[i].stage}"] = (_self_seconds(spans, i, children), "s")
    return out


def layer_seconds(spans):
    """Seconds spent in each span name within each stage: {stage: {name: s}}.

    Nested names overlap: ``hll.*`` spans lie inside ``engine.run``, and
    ``diameter.bfs`` inside ``diameter.search`` or ``diameter.giant``.
    """
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        if s.name != "cli.stage":
            per_stage = out.setdefault(s.stage, {})
            per_stage[s.name] = per_stage.get(s.name, 0.0) + s.seconds
    return out


def stage_seconds(spans):
    """Traced wall time of each stage span, keyed by stage."""
    return {s.stage: s.seconds for s in spans if s.name == "cli.stage"}
