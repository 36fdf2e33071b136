"""The benchmark's import stage, on the graphs the benchmark generates.

perfbench/run.py fails a run when a stage exits non-zero or when the
graph that `export-edges --original-ids` decodes from the imported file
is not the generated one. This test runs that round trip in-process on
every workload, at its benchmark size and at seeds 1-10, so a seed that
breaks the import stage fails here with its message and traceback. It
also checks that the imported HBG4 file is smaller than the HBG3 file of
the same encoding, whose stream it keeps bit for bit.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from hbgraph.cli import main
from hbgraph.graph import load_edge_list
from hbgraph.storage import CodecConfig, encode, load
from util import save_hbg3

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    """{name: (generator, benchmark size)} as run.py declares them."""
    graphs = _load("perfbench_graphs", PERFBENCH / "graphs.py")
    saved = sys.modules.get("graphs")
    sys.modules["graphs"] = graphs  # run.py imports it by that name
    try:
        run = _load("perfbench_run", PERFBENCH / "run.py")
    finally:
        if saved is None:
            del sys.modules["graphs"]
        else:
            sys.modules["graphs"] = saved
    return graphs, {name: (w["graph"], w["size"]) for name, w in run.WORKLOADS.items()}


GRAPHS, WORKLOADS = _workloads()


def _import(tmp_path, workload, seed):
    """The generated graph, and the paths of its edge list and imported file."""
    generate, size = WORKLOADS[workload]
    graph = generate(size, seed)
    edges, hbg = str(tmp_path / "edges.txt"), str(tmp_path / "g.hbg")
    with open(edges, "w", encoding="ascii") as fh:
        fh.write(GRAPHS.edge_lines(graph))
    assert main(["import", edges, "-o", hbg]) == 0
    return graph, edges, hbg


@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_import_keeps_the_generated_arcs(tmp_path, workload, seed):
    (n, a, b), _, hbg = _import(tmp_path, workload, seed)
    back = str(tmp_path / "back.txt")
    assert main(["export-edges", hbg, "-o", back, "--original-ids"]) == 0
    pairs = np.loadtxt(back, dtype=np.int64, ndmin=2)
    keys = np.sort(pairs[:, 0] * n + pairs[:, 1])
    assert np.array_equal(keys, np.sort(np.concatenate([a * n + b, b * n + a])))


@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_import_file_is_smaller_than_hbg3(tmp_path, workload, seed):
    _, edges, hbg = _import(tmp_path, workload, seed)
    enc = encode(load_edge_list(edges), CodecConfig(None, None, None, None))  # as import codes it
    save_hbg3(enc, tmp_path / "g3.hbg")
    imported = load(hbg)
    assert imported.stream == enc.stream and imported.stream_bits == enc.stream_bits
    assert (tmp_path / "g.hbg").stat().st_size < (tmp_path / "g3.hbg").stat().st_size
