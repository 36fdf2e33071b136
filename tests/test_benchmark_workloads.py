"""The benchmark's import stage, on the graphs the benchmark generates.

perfbench/run.py fails a run when a stage exits non-zero or when the
graph that `export-edges --original-ids` decodes from the imported file
is not the generated one. This test runs that round trip in-process on
every workload, at its benchmark size and at seeds 1-10, so a seed that
breaks the import stage fails here with its message and traceback. It
also checks that the imported HBG4 file is smaller than the HBG3 file of
the same encoding, whose stream it keeps bit for bit, and no larger than
the file of any residual code import chose from before exp-Golomb, and
that import writes the bytes it wrote before it parsed by arrays and
stopped searching for copies and intervals.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from hbgraph.cli import main
from hbgraph.graph import load_edge_list
from hbgraph.storage import CodecConfig, encode, load, save
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


# the residual codes import chose among before exp-Golomb came
OLDER_CODES = [("gamma", 3), ("delta", 3)] + [("zeta", k) for k in range(1, 8)]


@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_import_file_is_no_larger_than_any_older_code(tmp_path, workload, seed):
    _, edges, hbg = _import(tmp_path, workload, seed)
    g, size = load_edge_list(edges), (tmp_path / "g.hbg").stat().st_size
    older = tmp_path / "older.hbg"
    for code, k in OLDER_CODES:
        save(encode(g, CodecConfig(None, None, code, k)), older)
        assert size <= older.stat().st_size, (code, k)


# sha256 of the .hbg file and of its .ids sidecar that import writes at
# seed 1, recorded with the line-by-line parser and the chooser that
# searched window {7, 0} x min_interval {4, 0}; never regenerate these
IMPORT_DIGESTS = {
    "locality": ("a161cf1c3f7026cf977577c7e3452ca70ee6542e4e794b2d950f35b7d50cb313",
                 "0eb76798c5d62cf7d52cf74effb52f9c5e9d729063c0d9843cbc58776886b4a1"),
    "scalefree": ("c2d50694d24a2f2a12f3e8d38c3aa628714b10cba2c9819262515e93c0158ae0",
                  "154b2de80680a655809967907e24c9783aad28b90637ee130d9e2279bedd7b39"),
    "smallworld": ("040342c99defb0dfbc819d49654c145b4c99ed508da74dbf9b727bd1ae165058",
                   "60ca767d880385d16bd409800190b12f8eb69cff0a3117a3fa106ed751d2b386"),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_import_writes_the_pinned_bytes(tmp_path, workload):
    _, _, hbg = _import(tmp_path, workload, 1)
    digests = tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in (hbg, hbg + ".ids"))
    assert digests == IMPORT_DIGESTS[workload]
