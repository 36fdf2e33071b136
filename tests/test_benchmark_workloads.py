"""The benchmark's import stage, on the graphs the benchmark generates.

perfbench/run.py fails a run when a stage exits non-zero or when the
graph that `export-edges --original-ids` decodes from the imported file
is not the generated one. This test runs that round trip in-process on
every workload, at its benchmark size and at seeds 1-10, so a seed that
breaks the import stage fails here with its message and traceback.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from hbgraph.cli import main

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


@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_import_keeps_the_generated_arcs(tmp_path, workload, seed):
    generate, size = WORKLOADS[workload]
    n, a, b = graph = generate(size, seed)
    edges, hbg, back = (str(tmp_path / name) for name in ("edges.txt", "g.hbg", "back.txt"))
    with open(edges, "w", encoding="ascii") as fh:
        fh.write(GRAPHS.edge_lines(graph))
    assert main(["import", edges, "-o", hbg]) == 0
    assert main(["export-edges", hbg, "-o", back, "--original-ids"]) == 0
    pairs = np.loadtxt(back, dtype=np.int64, ndmin=2)
    keys = np.sort(pairs[:, 0] * n + pairs[:, 1])
    assert np.array_equal(keys, np.sort(np.concatenate([a * n + b, b * n + a])))
